//! Training-dataset builders (Challenge C2).
//!
//! * [`patches_from_scene`] — cut a labelled scene into EuroSat-style
//!   patches (13 bands × p × p, labelled by majority ground truth);
//! * [`pixels_from_scene`] — per-pixel spectra for the shallow baselines;
//! * [`weak_label_raster`] — labels derived from "cartographic products"
//!   (the OSM-like parcel layer) with controllable annotation noise and
//!   staleness, reproducing how C2 builds million-sample corpora without
//!   ground surveys;
//! * [`sar_pixels`] / [`multimodal_pixels`] — SAR-only and optical+SAR
//!   fused features for the E5 modality ablation.

use crate::landclass::LandClass;
use crate::landscape::Landscape;
use crate::DataGenError;
use ee_dl::Dataset;
use ee_raster::{Band, Raster, Scene};
use ee_tensor::Tensor;
use ee_util::Rng;

/// Majority class in a window of the truth raster.
fn majority_label(truth: &Raster<u8>, c0: usize, r0: usize, p: usize) -> u8 {
    let mut counts = [0u32; 16];
    for r in r0..r0 + p {
        for c in c0..c0 + p {
            counts[truth.at(c, r) as usize] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &n)| n)
        .map(|(i, _)| i as u8)
        .expect("non-empty")
}

/// Cut non-overlapping `p × p` patches from a scene, labelled by the
/// majority truth class. Produces `[N, bands, p, p]` features.
pub fn patches_from_scene(
    scene: &Scene,
    truth: &Raster<u8>,
    patch: usize,
) -> Result<Dataset, DataGenError> {
    if patch == 0 || scene.shape() != truth.shape() {
        return Err(DataGenError::Config("patch size 0 or truth/scene mismatch".into()));
    }
    let (cols, rows) = scene.shape();
    let bands: Vec<(Band, &Raster<f32>)> = scene.bands().collect();
    let nb = bands.len();
    let px = cols / patch;
    let py = rows / patch;
    let n = px * py;
    let mut data = Vec::with_capacity(n * nb * patch * patch);
    let mut labels = Vec::with_capacity(n);
    for ty in 0..py {
        for tx in 0..px {
            let (c0, r0) = (tx * patch, ty * patch);
            for (_, raster) in &bands {
                for r in r0..r0 + patch {
                    for c in c0..c0 + patch {
                        data.push(raster.at(c, r));
                    }
                }
            }
            labels.push(majority_label(truth, c0, r0, patch) as usize);
        }
    }
    let x = Tensor::from_vec(&[n, nb, patch, patch], data)
        .map_err(|e| DataGenError::Config(e.to_string()))?;
    Dataset::new(x, labels).map_err(|e| DataGenError::Config(e.to_string()))
}

/// Sample per-pixel spectra `[N, bands]` for shallow baselines.
pub fn pixels_from_scene(
    scene: &Scene,
    truth: &Raster<u8>,
    max_samples: usize,
    seed: u64,
) -> Result<Dataset, DataGenError> {
    let (cols, rows) = scene.shape();
    let total = cols * rows;
    let mut rng = Rng::seed_from(seed);
    let take = rng.sample_indices(total, max_samples.min(total));
    let bands: Vec<(Band, &Raster<f32>)> = scene.bands().collect();
    let nb = bands.len();
    let mut data = Vec::with_capacity(take.len() * nb);
    let mut labels = Vec::with_capacity(take.len());
    for &i in &take {
        let (c, r) = (i % cols, i / cols);
        for (_, raster) in &bands {
            data.push(raster.at(c, r));
        }
        labels.push(truth.at(c, r) as usize);
    }
    let x = Tensor::from_vec(&[take.len(), nb], data)
        .map_err(|e| DataGenError::Config(e.to_string()))?;
    Dataset::new(x, labels).map_err(|e| DataGenError::Config(e.to_string()))
}

/// Per-pixel SAR features (VV, VH, VH−VV) from a SAR scene.
pub fn sar_pixels(
    scene: &Scene,
    truth: &Raster<u8>,
    max_samples: usize,
    seed: u64,
) -> Result<Dataset, DataGenError> {
    let vv = scene.band(Band::VV)?;
    let vh = scene.band(Band::VH)?;
    let (cols, rows) = scene.shape();
    let mut rng = Rng::seed_from(seed);
    let take = rng.sample_indices(cols * rows, max_samples.min(cols * rows));
    let mut data = Vec::with_capacity(take.len() * 3);
    let mut labels = Vec::with_capacity(take.len());
    for &i in &take {
        let (c, r) = (i % cols, i / cols);
        let v = vv.at(c, r);
        let h = vh.at(c, r);
        data.extend_from_slice(&[v, h, h - v]);
        labels.push(truth.at(c, r) as usize);
    }
    let x = Tensor::from_vec(&[take.len(), 3], data)
        .map_err(|e| DataGenError::Config(e.to_string()))?;
    Dataset::new(x, labels).map_err(|e| DataGenError::Config(e.to_string()))
}

/// Fused optical+SAR per-pixel features — the multimodal ablation arm.
/// Both scenes must share the grid of `truth`.
pub fn multimodal_pixels(
    optical: &Scene,
    sar: &Scene,
    truth: &Raster<u8>,
    max_samples: usize,
    seed: u64,
) -> Result<Dataset, DataGenError> {
    let (cols, rows) = truth.shape();
    let obands: Vec<(Band, &Raster<f32>)> = optical.bands().collect();
    let vv = sar.band(Band::VV)?;
    let vh = sar.band(Band::VH)?;
    let mut rng = Rng::seed_from(seed);
    let take = rng.sample_indices(cols * rows, max_samples.min(cols * rows));
    let nb = obands.len() + 2;
    let mut data = Vec::with_capacity(take.len() * nb);
    let mut labels = Vec::with_capacity(take.len());
    for &i in &take {
        let (c, r) = (i % cols, i / cols);
        for (_, raster) in &obands {
            data.push(raster.at(c, r));
        }
        // Normalise dB into a comparable range.
        data.push((vv.at(c, r) + 25.0) / 25.0);
        data.push((vh.at(c, r) + 32.0) / 25.0);
        labels.push(truth.at(c, r) as usize);
    }
    let x = Tensor::from_vec(&[take.len(), nb], data)
        .map_err(|e| DataGenError::Config(e.to_string()))?;
    Dataset::new(x, labels).map_err(|e| DataGenError::Config(e.to_string()))
}

/// Labels derived from a cartographic product instead of ground survey:
/// parcels keep their mapped class, but a `noise` fraction of parcels are
/// mislabelled (annotation error) and a `stale` fraction carry *last
/// year's* class (map staleness — crop rotation has moved on). Background
/// keeps the true class (cartography maps water/forest/urban well).
pub fn weak_label_raster(
    world: &Landscape,
    noise: f64,
    stale: f64,
    seed: u64,
) -> Raster<u8> {
    let mut rng = Rng::seed_from(seed);
    // Decide each parcel's fate once.
    let rotation = |class: LandClass, rng: &mut Rng| -> LandClass {
        // Staleness = previous crop in a simple rotation.
        match class {
            LandClass::Wheat => LandClass::Rapeseed,
            LandClass::Maize => LandClass::Wheat,
            LandClass::Rapeseed => LandClass::SugarBeet,
            LandClass::SugarBeet => LandClass::Maize,
            _ => *rng.choose(&LandClass::CROPS),
        }
    };
    let mapped: Vec<u8> = world
        .parcels
        .iter()
        .map(|p| {
            let label = if rng.chance(noise) {
                *rng.choose(&LandClass::CROPS)
            } else if rng.chance(stale) {
                rotation(p.class, &mut rng)
            } else {
                p.class
            };
            label.as_index() as u8
        })
        .collect();
    world.truth.zip_map(&world.parcel_map, |t, pid| {
        if pid == 0 {
            t
        } else {
            mapped[pid as usize - 1]
        }
    })
    .expect("same shape by construction")
}

/// Pixel agreement between a weak-label raster and the ground truth.
pub fn label_agreement(world: &Landscape, weak: &Raster<u8>) -> f64 {
    let same = world
        .truth
        .data()
        .iter()
        .zip(weak.data())
        .filter(|(a, b)| a == b)
        .count();
    same as f64 / world.truth.data().len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::LandscapeConfig;
    use crate::optics::{simulate_s2, OpticsConfig};
    use crate::sar::{simulate_s1, SarConfig};
    use ee_util::timeline::Date;

    fn world() -> Landscape {
        Landscape::generate(LandscapeConfig {
            size: 64,
            parcels_per_side: 6,
            ..LandscapeConfig::default()
        })
        .unwrap()
    }

    fn clear() -> OpticsConfig {
        OpticsConfig {
            cloud_fraction: 0.0,
            noise_std: 0.005,
        }
    }

    #[test]
    fn patch_dataset_shape_and_labels() {
        let w = world();
        let s = simulate_s2(&w, Date::new(2017, 6, 15).unwrap(), clear(), 1).unwrap();
        let d = patches_from_scene(&s, &w.truth, 8).unwrap();
        assert_eq!(d.len(), 64); // (64/8)^2
        assert_eq!(d.x.shape(), &[64, 13, 8, 8]);
        assert!(d.labels.iter().all(|&l| l < 10));
        // Labels reflect the world's class mix.
        let distinct: std::collections::HashSet<usize> = d.labels.iter().copied().collect();
        assert!(distinct.len() >= 3);
    }

    #[test]
    fn pixel_dataset_samples_without_replacement() {
        let w = world();
        let s = simulate_s2(&w, Date::new(2017, 6, 15).unwrap(), clear(), 1).unwrap();
        let d = pixels_from_scene(&s, &w.truth, 500, 7).unwrap();
        assert_eq!(d.len(), 500);
        assert_eq!(d.x.shape(), &[500, 13]);
        // Asking for more than exists caps at the total.
        let all = pixels_from_scene(&s, &w.truth, 10_000, 7).unwrap();
        assert_eq!(all.len(), 64 * 64);
    }

    #[test]
    fn sar_and_multimodal_features() {
        let w = world();
        let d = Date::new(2017, 6, 15).unwrap();
        let opt = simulate_s2(&w, d, clear(), 1).unwrap();
        let sar = simulate_s1(&w, d, SarConfig::default(), 2).unwrap();
        let ds = sar_pixels(&sar, &w.truth, 300, 3).unwrap();
        assert_eq!(ds.x.shape(), &[300, 3]);
        let dm = multimodal_pixels(&opt, &sar, &w.truth, 300, 3).unwrap();
        assert_eq!(dm.x.shape(), &[300, 15]);
        // Same sampling seed → same labels (paired ablation arms).
        assert_eq!(ds.labels, dm.labels);
    }

    #[test]
    fn weak_labels_degrade_with_noise_and_staleness() {
        let w = world();
        let perfect = weak_label_raster(&w, 0.0, 0.0, 5);
        assert_eq!(label_agreement(&w, &perfect), 1.0, "clean cartography is exact");
        let noisy = weak_label_raster(&w, 0.3, 0.0, 5);
        let a_noisy = label_agreement(&w, &noisy);
        assert!(a_noisy < 1.0);
        let stale = weak_label_raster(&w, 0.0, 0.5, 5);
        let a_stale = label_agreement(&w, &stale);
        assert!(a_stale < 1.0);
        let both = weak_label_raster(&w, 0.3, 0.5, 5);
        assert!(label_agreement(&w, &both) <= a_noisy.min(a_stale) + 0.05);
    }

    #[test]
    fn weak_labels_touch_only_parcels() {
        let w = world();
        let weak = weak_label_raster(&w, 1.0, 0.0, 9);
        for (c, r, v) in w.truth.iter() {
            if w.parcel_at(c, r).is_none() {
                assert_eq!(weak.at(c, r), v, "background untouched at ({c},{r})");
            }
        }
    }

    #[test]
    fn patch_errors() {
        let w = world();
        let s = simulate_s2(&w, Date::new(2017, 6, 15).unwrap(), clear(), 1).unwrap();
        assert!(patches_from_scene(&s, &w.truth, 0).is_err());
        let other = Landscape::generate(LandscapeConfig {
            size: 32,
            parcels_per_side: 4,
            ..LandscapeConfig::default()
        })
        .unwrap();
        assert!(patches_from_scene(&s, &other.truth, 8).is_err());
    }
}
