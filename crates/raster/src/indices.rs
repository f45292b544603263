//! Spectral indices — the band arithmetic the application pipelines use.
//!
//! NDVI drives the crop-phenology features (A1).

use crate::raster::Raster;
use crate::scene::{Band, Scene};
use crate::RasterError;

/// Normalised difference of two bands: `(a - b) / (a + b)`, 0 where the
/// denominator vanishes. Output in `[-1, 1]`.
pub fn normalized_difference(
    a: &Raster<f32>,
    b: &Raster<f32>,
) -> Result<Raster<f32>, RasterError> {
    a.zip_map(b, |x, y| {
        let denom = x + y;
        if denom.abs() < f32::EPSILON {
            0.0
        } else {
            ((x - y) / denom).clamp(-1.0, 1.0)
        }
    })
}

/// NDVI = (NIR − Red) / (NIR + Red) = (B08 − B04) / (B08 + B04).
pub fn ndvi(scene: &Scene) -> Result<Raster<f32>, RasterError> {
    normalized_difference(scene.band(Band::B08)?, scene.band(Band::B04)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::GeoTransform;
    use crate::scene::Mission;
    use ee_util::timeline::Date;

    fn gt() -> GeoTransform {
        GeoTransform::new(0.0, 20.0, 10.0)
    }

    fn scene(pairs: &[(Band, f32)]) -> Scene {
        let mut s = Scene::new("T", Mission::Sentinel2, Date::new(2017, 7, 1).unwrap());
        for &(b, v) in pairs {
            s.add_band(b, Raster::filled(2, 2, gt(), v)).unwrap();
        }
        s
    }

    #[test]
    fn ndvi_of_vegetation_is_high() {
        // Healthy vegetation: NIR 0.5, Red 0.05 → NDVI ≈ 0.818.
        let s = scene(&[(Band::B08, 0.5), (Band::B04, 0.05)]);
        let n = ndvi(&s).unwrap();
        assert!((n.at(0, 0) - 0.8181818).abs() < 1e-5);
    }

    #[test]
    fn ndvi_of_water_is_negative() {
        let s = scene(&[(Band::B08, 0.02), (Band::B04, 0.06)]);
        let n = ndvi(&s).unwrap();
        assert!(n.at(0, 0) < -0.3);
    }

    #[test]
    fn zero_denominator_yields_zero() {
        let s = scene(&[(Band::B08, 0.0), (Band::B04, 0.0)]);
        assert_eq!(ndvi(&s).unwrap().at(0, 0), 0.0);
    }

    #[test]
    fn missing_band_is_reported() {
        let s = scene(&[(Band::B08, 0.5)]);
        assert!(matches!(ndvi(&s), Err(RasterError::MissingBand(_))));
    }

    #[test]
    fn output_is_bounded() {
        let s = scene(&[(Band::B08, 1.0), (Band::B04, -0.5)]);
        let n = ndvi(&s).unwrap();
        for (_, _, v) in n.iter() {
            assert!((-1.0..=1.0).contains(&v));
        }
    }
}
