//! The synthetic agricultural landscape (application A1's world).
//!
//! A jittered-grid field pattern over a fractal DEM. Every pixel carries
//! ground truth: parcel id, land class, soil water capacity, elevation —
//! the truth real EO lacks, which is what lets E5/E6/E11 report accuracy.

use crate::landclass::LandClass;
use crate::DataGenError;
use ee_geo::{Point, Polygon};
use ee_raster::raster::GeoTransform;
use ee_raster::Raster;
use ee_util::noise::Fbm;
use ee_util::Rng;

/// One field parcel.
#[derive(Debug, Clone)]
pub struct Parcel {
    /// Parcel id (1-based; 0 in the parcel map means "no parcel").
    pub id: u16,
    /// The crop / cover grown.
    pub class: LandClass,
    /// Footprint polygon in world coordinates.
    pub polygon: Polygon,
    /// Sowing-date jitter in days (shifts the phenology curve).
    pub sowing_shift: i16,
}

/// Landscape generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct LandscapeConfig {
    /// Pixels per side (square world).
    pub size: usize,
    /// Pixel size in metres (10 m = Sentinel-2 resolution).
    pub pixel_m: f64,
    /// Approximate parcels per side.
    pub parcels_per_side: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LandscapeConfig {
    fn default() -> Self {
        Self {
            size: 192,
            pixel_m: 10.0,
            parcels_per_side: 12,
            seed: 20170101,
        }
    }
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct Landscape {
    /// Configuration used.
    pub config: LandscapeConfig,
    /// Elevation in metres.
    pub dem: Raster<f32>,
    /// Ground-truth class index per pixel (see [`LandClass::as_index`]).
    pub truth: Raster<u8>,
    /// Parcel id per pixel (0 = non-parcel background).
    pub parcel_map: Raster<u16>,
    /// Soil plant-available water capacity in millimetres.
    pub soil_awc: Raster<f32>,
    /// The parcels.
    pub parcels: Vec<Parcel>,
}

impl Landscape {
    /// Generate a landscape.
    pub fn generate(config: LandscapeConfig) -> Result<Landscape, DataGenError> {
        if config.size < 16 || config.parcels_per_side < 2 {
            return Err(DataGenError::Config(
                "landscape needs size >= 16 and >= 2 parcels per side".into(),
            ));
        }
        let mut rng = Rng::seed_from(config.seed);
        let n = config.size;
        let transform = GeoTransform::new(0.0, n as f64 * config.pixel_m, config.pixel_m);

        // Terrain: gentle fractal hills, 80–320 m elevation.
        let relief = Fbm::new(config.seed ^ 0x7e11, 0.015).with_octaves(5);
        let dem = Raster::from_fn(n, n, transform, |c, r| {
            (80.0 + 240.0 * relief.sample01(c as f64, r as f64)) as f32
        });

        // Soil: available water capacity correlated with (inverse) slope
        // via a separate noise field, 60–220 mm.
        let soil_noise = Fbm::new(config.seed ^ 0x5011, 0.03).with_octaves(4);
        let soil_awc = Raster::from_fn(n, n, transform, |c, r| {
            (60.0 + 160.0 * soil_noise.sample01(c as f64, r as f64)) as f32
        });

        // Landscape zoning from coarse noise: low = water/wetland, high =
        // forest/urban ridges, middle = arable land.
        let zone = Fbm::new(config.seed ^ 0x20e, 0.02).with_octaves(3);

        // Jittered-grid parcels over the arable zone.
        let cell = n / config.parcels_per_side;
        let mut parcels = Vec::new();
        let mut parcel_map: Raster<u16> = Raster::zeros(n, n, transform);
        let mut truth: Raster<u8> = Raster::zeros(n, n, transform);
        // Background classes first.
        for r in 0..n {
            for c in 0..n {
                let z = zone.sample01(c as f64, r as f64);
                let class = if z < 0.18 {
                    LandClass::Water
                } else if z < 0.26 {
                    LandClass::Wetland
                } else if z > 0.82 {
                    LandClass::Urban
                } else if z > 0.68 {
                    LandClass::Forest
                } else {
                    LandClass::BareSoil // provisional; parcels overwrite
                };
                truth.put(c, r, class.as_index() as u8);
            }
        }
        // Crop shares typical of a central-European watershed.
        let crop_weights = [0.32, 0.22, 0.14, 0.12, 0.20]; // CROPS order
        let mut next_id: u16 = 1;
        for gy in 0..config.parcels_per_side {
            for gx in 0..config.parcels_per_side {
                // Jittered parcel rectangle inside its grid cell.
                let x0 = gx * cell + rng.range(0, cell / 4 + 1);
                let y0 = gy * cell + rng.range(0, cell / 4 + 1);
                let w = cell - rng.range(0, cell / 3 + 1) - 1;
                let h = cell - rng.range(0, cell / 3 + 1) - 1;
                if w < 3 || h < 3 || x0 + w >= n || y0 + h >= n {
                    continue;
                }
                // Only place parcels on arable zone (probe the centre).
                let (cc, cr) = (x0 + w / 2, y0 + h / 2);
                let z = zone.sample01(cc as f64, cr as f64);
                if !(0.26..=0.68).contains(&z) {
                    continue;
                }
                let class = LandClass::CROPS
                    [rng.weighted_index(&crop_weights).expect("weights sum > 0")];
                let sowing_shift = rng.range(0, 21) as i16 - 10;
                // Pixel rect -> world polygon.
                let (wx0, wy1) = {
                    let p = transform.pixel_center(x0, y0);
                    (p.x - config.pixel_m / 2.0, p.y + config.pixel_m / 2.0)
                };
                let (wx1, wy0) = {
                    let p = transform.pixel_center(x0 + w - 1, y0 + h - 1);
                    (p.x + config.pixel_m / 2.0, p.y - config.pixel_m / 2.0)
                };
                let polygon = Polygon::from_exterior(vec![
                    Point::new(wx0, wy0),
                    Point::new(wx1, wy0),
                    Point::new(wx1, wy1),
                    Point::new(wx0, wy1),
                ])
                .expect("rectangle ring valid");
                for r in y0..y0 + h {
                    for c in x0..x0 + w {
                        parcel_map.put(c, r, next_id);
                        truth.put(c, r, class.as_index() as u8);
                    }
                }
                parcels.push(Parcel {
                    id: next_id,
                    class,
                    polygon,
                    sowing_shift,
                });
                next_id += 1;
            }
        }
        if parcels.is_empty() {
            return Err(DataGenError::Config(
                "no parcels landed on arable zone; adjust seed/size".into(),
            ));
        }
        Ok(Landscape {
            config,
            dem,
            truth,
            parcel_map,
            soil_awc,
            parcels,
        })
    }

    /// Class of a pixel.
    pub fn class_at(&self, col: usize, row: usize) -> LandClass {
        LandClass::from_index(self.truth.at(col, row) as usize).expect("truth stores valid indexes")
    }

    /// The parcel covering a pixel, if any.
    pub fn parcel_at(&self, col: usize, row: usize) -> Option<&Parcel> {
        match self.parcel_map.at(col, row) {
            0 => None,
            id => self.parcels.get(id as usize - 1),
        }
    }

    /// Effective day-of-year for phenology at a pixel (parcel sowing
    /// shifts move the curve).
    pub fn effective_doy(&self, col: usize, row: usize, doy: u16) -> u16 {
        match self.parcel_at(col, row) {
            Some(p) => (doy as i32 - p.sowing_shift as i32).clamp(1, 365) as u16,
            None => doy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Landscape {
        Landscape::generate(LandscapeConfig::default()).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = world();
        let b = world();
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.dem, b.dem);
        assert_eq!(a.parcels.len(), b.parcels.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = world();
        let b = Landscape::generate(LandscapeConfig {
            seed: 99,
            ..LandscapeConfig::default()
        })
        .unwrap();
        assert_ne!(a.truth, b.truth);
    }

    #[test]
    fn parcels_are_consistent_with_truth() {
        let w = world();
        assert!(!w.parcels.is_empty());
        for p in &w.parcels {
            // Probe the parcel centroid pixel: class must match.
            let centroid = ee_geo::algorithms::polygon_centroid(&p.polygon);
            let (c, r) = w.truth.transform().world_to_pixel(&centroid);
            let (c, r) = (c as usize, r as usize);
            assert_eq!(w.class_at(c, r), p.class, "parcel {}", p.id);
            assert_eq!(w.parcel_at(c, r).map(|q| q.id), Some(p.id));
        }
    }

    #[test]
    fn world_has_diverse_cover() {
        let w = world();
        let truth = w.truth.data();
        let present: std::collections::BTreeSet<u8> = truth.iter().copied().collect();
        assert!(present.len() >= 6, "at least 6 of 10 classes present: {present:?}");
        // Crops cover a substantial share of an agricultural watershed.
        let is_crop = |v: &&u8| LandClass::CROPS.iter().any(|c| c.as_index() == **v as usize);
        let crop_share = truth.iter().filter(is_crop).count() as f64 / truth.len() as f64;
        assert!(crop_share > 0.2, "crop share {crop_share}");
    }

    #[test]
    fn dem_and_soil_ranges() {
        let w = world();
        let (lo, hi) = w.dem.min_max();
        assert!(lo >= 80.0 && hi <= 320.0, "DEM range [{lo}, {hi}]");
        let (slo, shi) = w.soil_awc.min_max();
        assert!(slo >= 60.0 && shi <= 220.0, "AWC range [{slo}, {shi}]");
    }

    #[test]
    fn effective_doy_shifts_with_sowing() {
        let w = world();
        let p = &w.parcels[0];
        let centroid = ee_geo::algorithms::polygon_centroid(&p.polygon);
        let (c, r) = w.truth.transform().world_to_pixel(&centroid);
        let shifted = w.effective_doy(c as usize, r as usize, 150);
        assert_eq!(shifted as i32, 150 - p.sowing_shift as i32);
        // Background pixels are unshifted: find one.
        let mut bg = None;
        'outer: for r in 0..w.config.size {
            for c in 0..w.config.size {
                if w.parcel_at(c, r).is_none() {
                    bg = Some((c, r));
                    break 'outer;
                }
            }
        }
        let (c, r) = bg.expect("some background exists");
        assert_eq!(w.effective_doy(c, r, 150), 150);
    }

    #[test]
    fn config_validation() {
        assert!(Landscape::generate(LandscapeConfig {
            size: 8,
            ..LandscapeConfig::default()
        })
        .is_err());
        assert!(Landscape::generate(LandscapeConfig {
            parcels_per_side: 1,
            ..LandscapeConfig::default()
        })
        .is_err());
    }

    #[test]
    fn parcel_map_zero_is_background() {
        let w = world();
        let bg_pixels = w.parcel_map.data().iter().filter(|&&v| v == 0).count();
        assert!(bg_pixels > 0, "world is not wall-to-wall parcels");
    }
}
