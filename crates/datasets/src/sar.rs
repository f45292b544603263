//! The Sentinel-1 SAR simulator.
//!
//! Backscatter per class (dB) with canopy modulation, multiplicative
//! gamma speckle (the defining SAR noise), and optional soil-moisture
//! brightening after rain. SAR sees through clouds — the reason A2's sea
//! ice service is SAR-first — so there is no cloud model here.

use crate::landscape::Landscape;
use crate::DataGenError;
use ee_raster::{Band, Mission, Raster, Scene};
use ee_util::timeline::Date;
use ee_util::Rng;

/// SAR simulation knobs.
#[derive(Debug, Clone, Copy)]
pub struct SarConfig {
    /// Number of looks (averaging) — higher = less speckle.
    pub looks: u32,
    /// Extra soil-moisture brightening in dB (0 = dry).
    pub moisture_db: f32,
}

impl Default for SarConfig {
    fn default() -> Self {
        Self {
            looks: 4,
            moisture_db: 0.0,
        }
    }
}

/// Gamma-distributed speckle with unit mean and `looks` shape, via the
/// sum of `looks` exponentials.
fn speckle(rng: &mut Rng, looks: u32) -> f64 {
    let l = looks.max(1);
    let mut acc = 0.0;
    for _ in 0..l {
        acc += rng.exponential(1.0);
    }
    acc / l as f64
}

/// Simulate one Sentinel-1 (VV, VH) scene over the landscape.
pub fn simulate_s1(
    world: &Landscape,
    date: Date,
    config: SarConfig,
    seed: u64,
) -> Result<Scene, DataGenError> {
    let n = world.config.size;
    let transform = world.truth.transform();
    let mut rng = Rng::seed_from(seed ^ 0x5a4 ^ date.ordinal() as u64);
    let doy = date.ordinal();
    let mut scene = Scene::new(
        format!("S1_SYN_{}_{:03}", date.year(), date.ordinal()),
        Mission::Sentinel1,
        date,
    );
    for (band_idx, band) in Band::S1_ALL.iter().enumerate() {
        let mut raster = Raster::zeros(n, n, transform);
        for r in 0..n {
            for c in 0..n {
                let class = world.class_at(c, r);
                let eff_doy = world.effective_doy(c, r, doy);
                let (vv, vh) = class.backscatter_db();
                let developed = if band_idx == 0 { vv } else { vh };
                // Growing canopy adds volume scattering over the bare
                // field; bare fields sit ~4 dB below developed crops.
                let base = if class.is_crop() {
                    let canopy = class.canopy(eff_doy);
                    developed - 4.0 * (1.0 - canopy)
                } else {
                    developed
                };
                let base = base + config.moisture_db;
                // Speckle is multiplicative in linear power.
                let linear = 10f64.powf(base as f64 / 10.0) * speckle(&mut rng, config.looks);
                raster.put(c, r, (10.0 * linear.log10()) as f32);
            }
        }
        scene.add_band(*band, raster)?;
    }
    Ok(scene)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landclass::LandClass;
    use crate::landscape::LandscapeConfig;

    fn world() -> Landscape {
        Landscape::generate(LandscapeConfig {
            size: 64,
            parcels_per_side: 6,
            ..LandscapeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn scene_structure() {
        let w = world();
        let s = simulate_s1(&w, Date::new(2017, 6, 1).unwrap(), SarConfig::default(), 1).unwrap();
        assert_eq!(s.bands().count(), 2);
        assert!(s.has_band(Band::VV) && s.has_band(Band::VH));
        assert_eq!(s.mission, Mission::Sentinel1);
    }

    #[test]
    fn class_means_are_separable_despite_speckle() {
        let w = world();
        let s = simulate_s1(&w, Date::new(2017, 7, 1).unwrap(), SarConfig::default(), 3).unwrap();
        let vv = s.band(Band::VV).unwrap();
        let mut by_class: std::collections::HashMap<LandClass, Vec<f32>> = Default::default();
        for r in 0..64 {
            for c in 0..64 {
                by_class.entry(w.class_at(c, r)).or_default().push(vv.at(c, r));
            }
        }
        let mean = |v: &Vec<f32>| v.iter().sum::<f32>() / v.len() as f32;
        if let (Some(water), Some(urban)) =
            (by_class.get(&LandClass::Water), by_class.get(&LandClass::Urban))
        {
            if water.len() > 20 && urban.len() > 20 {
                assert!(
                    mean(urban) > mean(water) + 10.0,
                    "urban {} vs water {}",
                    mean(urban),
                    mean(water)
                );
            }
        }
    }

    #[test]
    fn more_looks_less_speckle() {
        let w = world();
        let d = Date::new(2017, 6, 1).unwrap();
        let noisy = simulate_s1(&w, d, SarConfig { looks: 1, moisture_db: 0.0 }, 5).unwrap();
        let smooth = simulate_s1(&w, d, SarConfig { looks: 16, moisture_db: 0.0 }, 5).unwrap();
        // Compare within-class variance on the same class mask.
        let target = LandClass::Grassland;
        let var_of = |s: &Scene| {
            let vv = s.band(Band::VV).unwrap();
            let vals: Vec<f32> = (0..64)
                .flat_map(|r| (0..64).map(move |c| (c, r)))
                .filter(|&(c, r)| w.class_at(c, r) == target)
                .map(|(c, r)| vv.at(c, r))
                .collect();
            if vals.len() < 20 {
                return None;
            }
            let m = vals.iter().sum::<f32>() / vals.len() as f32;
            Some(vals.iter().map(|v| (v - m).powi(2)).sum::<f32>() / vals.len() as f32)
        };
        if let (Some(v1), Some(v16)) = (var_of(&noisy), var_of(&smooth)) {
            assert!(v16 < v1 / 2.0, "multilooking reduces variance: {v1} → {v16}");
        }
    }

    #[test]
    fn moisture_brightens() {
        let w = world();
        let d = Date::new(2017, 6, 1).unwrap();
        let dry = simulate_s1(&w, d, SarConfig::default(), 9).unwrap();
        let wet = simulate_s1(
            &w,
            d,
            SarConfig {
                moisture_db: 3.0,
                ..SarConfig::default()
            },
            9,
        )
        .unwrap();
        assert!(
            wet.band(Band::VV).unwrap().mean() > dry.band(Band::VV).unwrap().mean() + 2.0
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let w = world();
        let d = Date::new(2017, 2, 10).unwrap();
        let a = simulate_s1(&w, d, SarConfig::default(), 42).unwrap();
        let b = simulate_s1(&w, d, SarConfig::default(), 42).unwrap();
        assert_eq!(a.band(Band::VH).unwrap(), b.band(Band::VH).unwrap());
    }
}
