//! Multi-band scenes modelled on Sentinel-1 and Sentinel-2 acquisitions.

use crate::raster::Raster;
use crate::RasterError;
use ee_geo::Envelope;
use ee_util::timeline::Date;

/// The spectral / polarimetric bands the workspace knows about.
///
/// The 13 `B*` bands mirror the Sentinel-2 MSI instrument (the EuroSat
/// benchmark of Challenge C2 uses all 13); `VV`/`VH` mirror Sentinel-1 IW
/// dual-pol SAR backscatter (in dB).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Band {
    B01,
    B02,
    B03,
    B04,
    B05,
    B06,
    B07,
    B08,
    B8A,
    B09,
    B10,
    B11,
    B12,
    VV,
    VH,
}

impl Band {
    /// All 13 Sentinel-2 MSI bands, in instrument order.
    pub const S2_ALL: [Band; 13] = [
        Band::B01,
        Band::B02,
        Band::B03,
        Band::B04,
        Band::B05,
        Band::B06,
        Band::B07,
        Band::B08,
        Band::B8A,
        Band::B09,
        Band::B10,
        Band::B11,
        Band::B12,
    ];

    /// The Sentinel-1 dual-pol SAR bands.
    pub const S1_ALL: [Band; 2] = [Band::VV, Band::VH];

    /// Band name as products label it.
    pub fn name(self) -> &'static str {
        match self {
            Band::B01 => "B01",
            Band::B02 => "B02",
            Band::B03 => "B03",
            Band::B04 => "B04",
            Band::B05 => "B05",
            Band::B06 => "B06",
            Band::B07 => "B07",
            Band::B08 => "B08",
            Band::B8A => "B8A",
            Band::B09 => "B09",
            Band::B10 => "B10",
            Band::B11 => "B11",
            Band::B12 => "B12",
            Band::VV => "VV",
            Band::VH => "VH",
        }
    }
}

/// The observing mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mission {
    /// Sentinel-1-like C-band SAR.
    Sentinel1,
    /// Sentinel-2-like multispectral optical.
    Sentinel2,
}

impl Mission {
    /// Mission name string used in product identifiers.
    pub fn name(self) -> &'static str {
        match self {
            Mission::Sentinel1 => "S1",
            Mission::Sentinel2 => "S2",
        }
    }
}

/// One acquisition: a set of co-registered `f32` bands plus metadata.
///
/// Invariant: all bands share the same shape and geotransform (checked on
/// insertion).
#[derive(Debug, Clone)]
pub struct Scene {
    /// Product identifier, e.g. `S2_T34SGH_20170615_0`.
    pub id: String,
    /// Observing mission.
    pub mission: Mission,
    /// Sensing date.
    pub sensing: Date,
    bands: Vec<(Band, Raster<f32>)>,
}

impl Scene {
    /// An empty scene shell; add bands with [`Scene::add_band`].
    pub fn new(id: impl Into<String>, mission: Mission, sensing: Date) -> Self {
        Self {
            id: id.into(),
            mission,
            sensing,
            bands: Vec::new(),
        }
    }

    /// Add a band; shape/transform must match any existing band and the
    /// band must not already be present.
    pub fn add_band(&mut self, band: Band, raster: Raster<f32>) -> Result<(), RasterError> {
        if let Some((_, first)) = self.bands.first() {
            if first.shape() != raster.shape() {
                return Err(RasterError::ShapeMismatch {
                    expected: first.shape(),
                    actual: raster.shape(),
                });
            }
            if first.transform() != raster.transform() {
                return Err(RasterError::Codec(format!(
                    "band {} geotransform differs from scene", band.name()
                )));
            }
        }
        if self.bands.iter().any(|(b, _)| *b == band) {
            return Err(RasterError::Codec(format!(
                "duplicate band {} in scene {}", band.name(), self.id
            )));
        }
        self.bands.push((band, raster));
        Ok(())
    }

    /// The band raster, if present.
    pub fn band(&self, band: Band) -> Result<&Raster<f32>, RasterError> {
        self.bands
            .iter()
            .find(|(b, _)| *b == band)
            .map(|(_, r)| r)
            .ok_or_else(|| RasterError::MissingBand(band.name().to_string()))
    }

    /// Take one band out of the scene by value, dropping the rest.
    pub fn into_band(self, band: Band) -> Result<Raster<f32>, RasterError> {
        self.bands
            .into_iter()
            .find(|(b, _)| *b == band)
            .map(|(_, r)| r)
            .ok_or_else(|| RasterError::MissingBand(band.name().to_string()))
    }

    /// True when the band is present.
    pub fn has_band(&self, band: Band) -> bool {
        self.bands.iter().any(|(b, _)| *b == band)
    }

    /// Bands present, in insertion order.
    pub fn bands(&self) -> impl Iterator<Item = (Band, &Raster<f32>)> {
        self.bands.iter().map(|(b, r)| (*b, r))
    }

    /// (cols, rows) of the scene's grid. Zero for an empty shell.
    pub fn shape(&self) -> (usize, usize) {
        self.bands
            .first()
            .map(|(_, r)| r.shape())
            .unwrap_or((0, 0))
    }

    /// World footprint (empty envelope for an empty shell).
    pub fn footprint(&self) -> Envelope {
        self.bands
            .first()
            .map(|(_, r)| r.envelope())
            .unwrap_or_else(Envelope::empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::GeoTransform;

    fn date() -> Date {
        Date::new(2017, 6, 15).unwrap()
    }

    fn scene_with(bands: &[Band]) -> Scene {
        let mut s = Scene::new("S2_TEST", Mission::Sentinel2, date());
        for &b in bands {
            s.add_band(b, Raster::filled(4, 4, GeoTransform::new(0.0, 40.0, 10.0), 0.5))
                .unwrap();
        }
        s
    }

    #[test]
    fn band_metadata() {
        assert_eq!(Band::S2_ALL.len(), 13, "the 13 MSI bands of EuroSat");
        assert_eq!(Band::B04.name(), "B04");
        assert_eq!(Mission::Sentinel1.name(), "S1");
    }

    #[test]
    fn add_and_get_bands() {
        let s = scene_with(&[Band::B04, Band::B08]);
        assert_eq!(s.bands().count(), 2);
        assert!(s.has_band(Band::B04));
        assert!(!s.has_band(Band::B02));
        assert!(s.band(Band::B08).is_ok());
        assert!(matches!(s.band(Band::B02), Err(RasterError::MissingBand(_))));
        let b08 = s.band(Band::B08).unwrap().clone();
        assert_eq!(s.clone().into_band(Band::B08).unwrap(), b08);
        assert!(matches!(s.into_band(Band::B02), Err(RasterError::MissingBand(_))));
    }

    #[test]
    fn rejects_duplicate_band() {
        let mut s = scene_with(&[Band::B04]);
        let r = Raster::filled(4, 4, GeoTransform::new(0.0, 40.0, 10.0), 0.1);
        assert!(s.add_band(Band::B04, r).is_err());
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut s = scene_with(&[Band::B04]);
        let r = Raster::filled(5, 4, GeoTransform::new(0.0, 40.0, 10.0), 0.1);
        assert!(matches!(
            s.add_band(Band::B08, r),
            Err(RasterError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_transform_mismatch() {
        let mut s = scene_with(&[Band::B04]);
        let r = Raster::filled(4, 4, GeoTransform::new(5.0, 40.0, 10.0), 0.1);
        assert!(s.add_band(Band::B08, r).is_err());
    }

    #[test]
    fn footprint_and_payload() {
        let s = scene_with(&[Band::B04, Band::B08, Band::B11]);
        assert_eq!(s.footprint(), Envelope::new(0.0, 0.0, 40.0, 40.0));
        assert_eq!(s.shape(), (4, 4));
        let empty = Scene::new("X", Mission::Sentinel1, date());
        assert!(empty.footprint().is_empty());
    }
}
