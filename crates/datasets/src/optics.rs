//! The Sentinel-2 optical simulator.
//!
//! For a landscape, a date and a seed, produce a 13-band scene — or any
//! subset of its bands, each bit-identical to the full scene's:
//!
//! * per-pixel reflectance = canopy-weighted mix of the class's developed
//!   spectrum and bare soil (phenology drives the seasonal signal);
//! * multiplicative terrain illumination from the DEM gradient;
//! * additive Gaussian sensor noise per band;
//! * a fractal cloud field (bright, spectrally flat) with a per-scene
//!   cloud fraction — the reason median composites exist.

use crate::landclass::LandClass;
use crate::landscape::Landscape;
use crate::DataGenError;
use ee_raster::{Band, Mission, Raster, Scene};
use ee_util::noise::Fbm;
use ee_util::timeline::Date;
use ee_util::Rng;

/// Optical simulation knobs.
#[derive(Debug, Clone, Copy)]
pub struct OpticsConfig {
    /// Fraction of the scene hidden by cloud (0..1).
    pub cloud_fraction: f64,
    /// Per-band additive noise standard deviation.
    pub noise_std: f32,
}

impl Default for OpticsConfig {
    fn default() -> Self {
        Self {
            cloud_fraction: 0.15,
            noise_std: 0.012,
        }
    }
}

/// Simulate one Sentinel-2 scene over the landscape: all 13 bands of
/// [`simulate_s2_bands`].
pub fn simulate_s2(
    world: &Landscape,
    date: Date,
    config: OpticsConfig,
    seed: u64,
) -> Result<Scene, DataGenError> {
    simulate_s2_bands(world, date, config, seed, &Band::S2_ALL)
}

/// Simulate only `bands` of one Sentinel-2 scene; each comes out
/// bit-identical to the same band of [`simulate_s2`]. The noise stream
/// runs through the bands in [`Band::S2_ALL`] order, one normal draw per
/// pixel, so a band before the last wanted one is skipped by advancing
/// the generator past its draws ([`Rng::skip_gaussians`]) and the bands
/// after it are never visited. The scene holds the wanted bands in
/// instrument order; a band outside `S2_ALL` is a config error.
pub fn simulate_s2_bands(
    world: &Landscape,
    date: Date,
    config: OpticsConfig,
    seed: u64,
    bands: &[Band],
) -> Result<Scene, DataGenError> {
    if let Some(b) = bands.iter().find(|b| !Band::S2_ALL.contains(b)) {
        return Err(DataGenError::Config(format!(
            "{} is not a Sentinel-2 band",
            b.name()
        )));
    }
    let n = world.config.size;
    let transform = world.truth.transform();
    let mut rng = Rng::seed_from(seed ^ (date.ordinal() as u64) << 32 ^ date.year() as u64);
    let doy = date.ordinal();

    // Cloud mask: thresholded fBm so clouds are spatially coherent.
    let cloud_field = Fbm::new(seed ^ 0xc10d ^ date.ordinal() as u64, 0.03).with_octaves(4);
    let threshold = 1.0 - config.cloud_fraction;

    // Terrain illumination: brighter on "south-east" slopes.
    let illum = |c: usize, r: usize| -> f32 {
        let e = world.dem.at(c, r);
        let ex = world.dem.at((c + 1).min(n - 1), r);
        let ey = world.dem.at(c, (r + 1).min(n - 1));
        let dx = (ex - e) / world.config.pixel_m as f32;
        let dy = (ey - e) / world.config.pixel_m as f32;
        (1.0 + 0.35 * (dx - dy)).clamp(0.75, 1.25)
    };

    // Everything but the spectra is band-independent: decide it once per
    // pixel (row-major, the order the band loop visits pixels in).
    let pixels: Vec<Pixel> = (0..n)
        .flat_map(|r| (0..n).map(move |c| (c, r)))
        .map(|(c, r)| {
            if cloud_field.sample01(c as f64, r as f64) > threshold {
                return Pixel::Cloud;
            }
            let class = world.class_at(c, r);
            // Crops, forest and wetland mix their developed spectrum with
            // bare soil by canopy cover at the phenology-shifted day;
            // water and urban (for which canopy 0 would wrongly yield bare
            // soil) use their own spectrum directly.
            let canopy =
                (class.is_crop() || class == LandClass::Forest || class == LandClass::Wetland)
                    .then(|| class.canopy(world.effective_doy(c, r, doy)));
            Pixel::Ground {
                class,
                canopy,
                illum: illum(c, r),
            }
        })
        .collect();

    let soil = LandClass::BareSoil;
    let mut scene = Scene::new(
        format!("S2_SYN_{}_{:03}", date.year(), date.ordinal()),
        Mission::Sentinel2,
        date,
    );
    let last = Band::S2_ALL.iter().rposition(|b| bands.contains(b));
    for (i, band) in Band::S2_ALL.into_iter().enumerate() {
        if Some(i) > last {
            break;
        }
        if !bands.contains(&band) {
            rng.skip_gaussians(pixels.len() as u64);
            continue;
        }
        let bare = soil.reflectance(band);
        let mut raster = Raster::zeros(n, n, transform);
        for (out, pixel) in raster.data_mut().iter_mut().zip(&pixels) {
            let value = match *pixel {
                // Clouds: bright, flat, slightly noisy.
                Pixel::Cloud => 0.65 + rng.normal(0.0, 0.03) as f32,
                Pixel::Ground {
                    class,
                    canopy,
                    illum,
                } => {
                    let developed = class.reflectance(band);
                    let base = match canopy {
                        Some(k) => k * developed + (1.0 - k) * bare,
                        None => developed,
                    };
                    base * illum + rng.normal(0.0, config.noise_std as f64) as f32
                }
            };
            *out = value.clamp(0.0, 1.0);
        }
        scene.add_band(band, raster)?;
    }
    Ok(scene)
}

/// The band-independent part of one pixel's simulation.
#[derive(Clone, Copy)]
enum Pixel {
    Cloud,
    Ground {
        class: LandClass,
        /// Canopy cover mixing the class spectrum with bare soil; `None`
        /// for classes seen through their own spectrum alone.
        canopy: Option<f32>,
        /// Multiplicative terrain illumination.
        illum: f32,
    },
}

/// Simulate a full season of scenes at the given dates.
pub fn simulate_season(
    world: &Landscape,
    dates: &[Date],
    config: OpticsConfig,
    seed: u64,
) -> Result<ee_raster::stack::TimeStack, DataGenError> {
    let mut stack = ee_raster::stack::TimeStack::new();
    for (i, &date) in dates.iter().enumerate() {
        let scene = simulate_s2(world, date, config, seed ^ (i as u64 * 0x9e37))?;
        stack.push(scene)?;
    }
    Ok(stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landscape::LandscapeConfig;
    use ee_raster::indices;

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

    /// FNV-1a over every band's `f32` bits, bands in `S2_ALL` order.
    fn scene_hash(s: &Scene) -> u64 {
        let mut bytes = Vec::new();
        for band in Band::S2_ALL {
            for v in s.band(band).unwrap().data() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        ee_util::ring::fnv1a(&bytes)
    }

    #[test]
    fn cloudy_scene_is_bit_identical_to_the_recorded_golden() {
        // Default config (clouds on), so every branch of the per-pixel
        // model and the RNG draw order are pinned. The hashes were
        // recorded before the per-pixel terms were hoisted out of the
        // band loop; any change to what is drawn, or in which order,
        // moves them.
        let w = world();
        let cases = [
            (Date::new(2018, 3, 20).unwrap(), 2, 0x9130d9e77a6da9dc),
            (Date::new(2018, 9, 14).unwrap(), 11, 0x0e7b49120d01e324),
        ];
        for (date, seed, want) in cases {
            let s = simulate_s2(&w, date, OpticsConfig::default(), seed).unwrap();
            let blue = s.band(Band::B02).unwrap();
            assert!(blue.data().iter().any(|&v| v > 0.5), "the scene has clouds");
            let got = scene_hash(&s);
            assert_eq!(got, want, "{date:?} seed {seed}: {got:#x}");
        }
    }

    #[test]
    fn single_bands_are_bit_identical_to_the_full_scene() {
        // 65² pixels is odd, so a cached spare deviate crosses every
        // other band boundary; 96² is even, so none does.
        for size in [96, 65] {
            let w = Landscape::generate(LandscapeConfig {
                size,
                parcels_per_side: 6,
                ..LandscapeConfig::default()
            })
            .unwrap();
            let date = Date::new(2017, 7, 1).unwrap();
            let full = simulate_s2(&w, date, OpticsConfig::default(), 13).unwrap();
            for band in Band::S2_ALL {
                let one =
                    simulate_s2_bands(&w, date, OpticsConfig::default(), 13, &[band]).unwrap();
                assert_eq!(one.bands().count(), 1);
                let bits = |s: &Scene| -> Vec<u32> {
                    s.band(band)
                        .unwrap()
                        .data()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert!(bits(&one) == bits(&full), "size {size}, {}", band.name());
            }
        }
    }

    #[test]
    fn band_subsets_come_in_instrument_order() {
        let w = world();
        let date = Date::new(2017, 7, 1).unwrap();
        let s = simulate_s2_bands(&w, date, clear(), 3, &[Band::B08, Band::B02]).unwrap();
        let got: Vec<Band> = s.bands().map(|(b, _)| b).collect();
        assert_eq!(got, [Band::B02, Band::B08]);
        assert_eq!(
            simulate_s2_bands(&w, date, clear(), 3, &[])
                .unwrap()
                .bands()
                .count(),
            0
        );
        assert!(simulate_s2_bands(&w, date, clear(), 3, &[Band::VV]).is_err());
    }

    #[test]
    fn scene_has_13_bands_and_matches_grid() {
        let w = world();
        let s = simulate_s2(&w, Date::new(2017, 6, 15).unwrap(), clear(), 1).unwrap();
        assert_eq!(s.bands().count(), 13);
        assert_eq!(s.shape(), (64, 64));
        assert_eq!(s.footprint(), w.truth.envelope());
        assert_eq!(s.mission, Mission::Sentinel2);
    }

    #[test]
    fn simulation_is_deterministic() {
        let w = world();
        let d = Date::new(2017, 6, 15).unwrap();
        let a = simulate_s2(&w, d, clear(), 7).unwrap();
        let b = simulate_s2(&w, d, clear(), 7).unwrap();
        assert_eq!(a.band(Band::B04).unwrap(), b.band(Band::B04).unwrap());
    }

    #[test]
    fn summer_wheat_is_green_winter_is_not() {
        let w = world();
        // Find a wheat pixel.
        let mut wheat = None;
        'o: for r in 0..64 {
            for c in 0..64 {
                if w.class_at(c, r) == LandClass::Wheat {
                    wheat = Some((c, r));
                    break 'o;
                }
            }
        }
        let Some((c, r)) = wheat else {
            return; // this seed grew no wheat on a small world; fine
        };
        let summer = simulate_s2(&w, Date::new(2017, 5, 30).unwrap(), clear(), 3).unwrap();
        let winter = simulate_s2(&w, Date::new(2017, 1, 10).unwrap(), clear(), 3).unwrap();
        let ndvi_summer = indices::ndvi(&summer).unwrap().at(c, r);
        let ndvi_winter = indices::ndvi(&winter).unwrap().at(c, r);
        assert!(
            ndvi_summer > ndvi_winter + 0.15,
            "seasonal NDVI: summer {ndvi_summer} vs winter {ndvi_winter}"
        );
    }

    #[test]
    fn water_is_dark_in_nir() {
        let w = world();
        let s = simulate_s2(&w, Date::new(2017, 7, 1).unwrap(), clear(), 5).unwrap();
        let nir = s.band(Band::B08).unwrap();
        let mut water_vals = Vec::new();
        let mut veg_vals = Vec::new();
        for r in 0..64 {
            for c in 0..64 {
                match w.class_at(c, r) {
                    LandClass::Water => water_vals.push(nir.at(c, r)),
                    LandClass::Forest => veg_vals.push(nir.at(c, r)),
                    _ => {}
                }
            }
        }
        if water_vals.is_empty() || veg_vals.is_empty() {
            return;
        }
        let wm = water_vals.iter().sum::<f32>() / water_vals.len() as f32;
        let vm = veg_vals.iter().sum::<f32>() / veg_vals.len() as f32;
        assert!(vm > wm * 3.0, "forest NIR {vm} vs water {wm}");
    }

    #[test]
    fn clouds_brighten_pixels() {
        let w = world();
        let d = Date::new(2017, 6, 1).unwrap();
        let clear_scene = simulate_s2(&w, d, clear(), 11).unwrap();
        let cloudy_scene = simulate_s2(
            &w,
            d,
            OpticsConfig {
                cloud_fraction: 0.5,
                noise_std: 0.005,
            },
            11,
        )
        .unwrap();
        let clear_mean = clear_scene.band(Band::B02).unwrap().mean();
        let cloudy_mean = cloudy_scene.band(Band::B02).unwrap().mean();
        assert!(
            cloudy_mean > clear_mean + 0.1,
            "clouds raise blue-band mean: {clear_mean} → {cloudy_mean}"
        );
    }

    #[test]
    fn season_stack_orders_dates() {
        let w = world();
        let dates: Vec<Date> = (0..4)
            .map(|i| Date::from_ordinal(2017, 1 + 30 * i).unwrap())
            .collect();
        let stack = simulate_season(&w, &dates, clear(), 2).unwrap();
        assert_eq!(stack.len(), 4);
        let ds = stack.dates();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn reflectances_stay_in_unit_range() {
        let w = world();
        let s = simulate_s2(
            &w,
            Date::new(2017, 8, 1).unwrap(),
            OpticsConfig {
                cloud_fraction: 0.3,
                noise_std: 0.05,
            },
            13,
        )
        .unwrap();
        for (_, raster) in s.bands() {
            let (lo, hi) = raster.min_max();
            assert!(lo >= 0.0 && hi <= 1.0, "band out of range [{lo}, {hi}]");
        }
    }
}
