//! Time series of scenes and their per-pixel NDVI profiles.
//!
//! "The temporal dimension plays a very important role for the
//! characterization of the information content of the image (e.g., land
//! cover or sea ice) and its dynamics" (Challenge C1). The crop classifier
//! consumes per-pixel NDVI *profiles* across a season, which [`TimeStack`]
//! provides.

use crate::scene::{Band, Scene};
use crate::RasterError;
use ee_util::timeline::Date;

/// A date-ordered sequence of co-registered scenes.
#[derive(Debug, Clone, Default)]
pub struct TimeStack {
    scenes: Vec<Scene>,
}

impl TimeStack {
    /// Empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a scene; the stack stays sorted by sensing date. Scenes must
    /// share the grid of the first inserted scene.
    pub fn push(&mut self, scene: Scene) -> Result<(), RasterError> {
        if let Some(first) = self.scenes.first() {
            if first.shape() != scene.shape() {
                return Err(RasterError::ShapeMismatch {
                    expected: first.shape(),
                    actual: scene.shape(),
                });
            }
        }
        let pos = self
            .scenes
            .partition_point(|s| s.sensing <= scene.sensing);
        self.scenes.insert(pos, scene);
        Ok(())
    }

    /// Number of scenes.
    pub fn len(&self) -> usize {
        self.scenes.len()
    }

    /// True when no scenes are loaded.
    pub fn is_empty(&self) -> bool {
        self.scenes.is_empty()
    }

    /// The scenes in date order.
    pub fn scenes(&self) -> &[Scene] {
        &self.scenes
    }

    /// Sensing dates in order.
    pub fn dates(&self) -> Vec<Date> {
        self.scenes.iter().map(|s| s.sensing).collect()
    }

    /// Restrict to scenes within `[from, to]` (inclusive).
    pub fn between(&self, from: Date, to: Date) -> TimeStack {
        TimeStack {
            scenes: self
                .scenes
                .iter()
                .filter(|s| s.sensing >= from && s.sensing <= to)
                .cloned()
                .collect(),
        }
    }

    /// Per-pixel NDVI profile across time (optical scenes).
    pub fn ndvi_series(&self, col: usize, row: usize) -> Result<Vec<f32>, RasterError> {
        self.scenes
            .iter()
            .map(|s| {
                let nir = s.band(Band::B08)?.get(col, row)?;
                let red = s.band(Band::B04)?.get(col, row)?;
                let denom = nir + red;
                Ok(if denom.abs() < f32::EPSILON {
                    0.0
                } else {
                    ((nir - red) / denom).clamp(-1.0, 1.0)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::{GeoTransform, Raster};
    use crate::scene::Mission;

    fn gt() -> GeoTransform {
        GeoTransform::new(0.0, 20.0, 10.0)
    }

    fn optical(id: &str, date: Date, nir: f32, red: f32) -> Scene {
        let mut s = Scene::new(id, Mission::Sentinel2, date);
        s.add_band(Band::B08, Raster::filled(2, 2, gt(), nir)).unwrap();
        s.add_band(Band::B04, Raster::filled(2, 2, gt(), red)).unwrap();
        s
    }

    fn d(m: u32, day: u32) -> Date {
        Date::new(2017, m, day).unwrap()
    }

    #[test]
    fn push_keeps_date_order() {
        let mut ts = TimeStack::new();
        assert!(ts.is_empty());
        ts.push(optical("b", d(6, 1), 0.5, 0.1)).unwrap();
        ts.push(optical("a", d(4, 1), 0.2, 0.1)).unwrap();
        ts.push(optical("c", d(8, 1), 0.4, 0.1)).unwrap();
        let dates = ts.dates();
        assert_eq!(dates, vec![d(4, 1), d(6, 1), d(8, 1)]);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn push_rejects_shape_mismatch() {
        let mut ts = TimeStack::new();
        ts.push(optical("a", d(4, 1), 0.2, 0.1)).unwrap();
        let mut bad = Scene::new("bad", Mission::Sentinel2, d(5, 1));
        bad.add_band(Band::B08, Raster::filled(3, 3, gt(), 0.5)).unwrap();
        assert!(ts.push(bad).is_err());
    }

    #[test]
    fn between_filters_inclusive() {
        let mut ts = TimeStack::new();
        for (i, m) in [4u32, 5, 6, 7].iter().enumerate() {
            ts.push(optical(&format!("s{i}"), d(*m, 1), 0.3, 0.1)).unwrap();
        }
        let sub = ts.between(d(5, 1), d(6, 30));
        assert_eq!(sub.len(), 2);
    }

    #[test]
    fn pixel_series_follows_time() {
        let mut ts = TimeStack::new();
        ts.push(optical("a", d(4, 1), 0.1, 0.1)).unwrap();
        ts.push(optical("b", d(6, 1), 0.6, 0.1)).unwrap();
        let ndvi = ts.ndvi_series(1, 1).unwrap();
        assert!(ndvi[0] < ndvi[1], "greener later in season");
    }
}
