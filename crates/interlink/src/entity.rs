//! Entities and link rules.

use ee_geo::{algorithms, Geometry};

/// A closed time interval in epoch days (matching `ee-rdf` date values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start day (inclusive).
    pub start: i64,
    /// End day (inclusive, >= start).
    pub end: i64,
}

impl Interval {
    /// Construct; panics if end < start.
    pub fn new(start: i64, end: i64) -> Self {
        assert!(end >= start, "interval end before start");
        Self { start, end }
    }

    /// Allen-ish relations used by the rules.
    pub fn before(&self, other: &Interval) -> bool {
        self.end < other.start
    }

    /// Is `self` fully inside `other`?
    pub fn during(&self, other: &Interval) -> bool {
        self.start >= other.start && self.end <= other.end
    }

    /// Do the intervals share at least one day?
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

/// An entity participating in link discovery.
#[derive(Debug, Clone)]
pub struct SpatialEntity {
    /// Caller-chosen identifier (e.g. a dictionary id or product index).
    pub id: u64,
    /// The geometry.
    pub geometry: Geometry,
    /// Optional validity interval (for spatio-temporal rules).
    pub interval: Option<Interval>,
}

impl SpatialEntity {
    /// An entity without temporal extent.
    pub fn new(id: u64, geometry: Geometry) -> Self {
        Self {
            id,
            geometry,
            interval: None,
        }
    }

    /// Attach a validity interval.
    #[cfg(test)]
    pub fn with_interval(mut self, interval: Interval) -> Self {
        self.interval = Some(interval);
        self
    }
}

/// Spatial component of a link rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialRelation {
    /// Geometries share a point.
    Intersects,
    /// Source within target.
    Within,
    /// Source contains target.
    Contains,
    /// Distance below a threshold.
    NearWithin(f64),
}

/// Temporal component of a link rule (source relative to target).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalRelation {
    /// Source interval entirely before target's.
    Before,
    /// Source interval inside target's.
    During,
    /// Intervals overlap.
    Overlaps,
}

/// A complete link rule: spatial relation plus optional temporal one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRule {
    /// Spatial predicate.
    pub spatial: SpatialRelation,
    /// Optional temporal predicate (entities without intervals fail it).
    pub temporal: Option<TemporalRelation>,
}

impl LinkRule {
    /// Spatial-only rule.
    pub fn spatial(rel: SpatialRelation) -> Self {
        Self {
            spatial: rel,
            temporal: None,
        }
    }

    /// Exact (expensive) verification of the rule on a pair.
    pub fn verify(&self, source: &SpatialEntity, target: &SpatialEntity) -> bool {
        let spatial_ok = match self.spatial {
            SpatialRelation::Intersects => {
                algorithms::intersects(&source.geometry, &target.geometry)
            }
            SpatialRelation::Within => algorithms::within(&source.geometry, &target.geometry),
            SpatialRelation::Contains => {
                algorithms::contains(&source.geometry, &target.geometry)
            }
            SpatialRelation::NearWithin(d) => {
                algorithms::distance(&source.geometry, &target.geometry) <= d
            }
        };
        if !spatial_ok {
            return false;
        }
        match self.temporal {
            None => true,
            Some(rel) => match (source.interval, target.interval) {
                (Some(a), Some(b)) => match rel {
                    TemporalRelation::Before => a.before(&b),
                    TemporalRelation::During => a.during(&b),
                    TemporalRelation::Overlaps => a.overlaps(&b),
                },
                _ => false,
            },
        }
    }

    /// The envelope expansion needed so blocking never misses a true
    /// link: `NearWithin(d)` must look `d` beyond the envelope.
    pub fn blocking_slack(&self) -> f64 {
        match self.spatial {
            SpatialRelation::NearWithin(d) => d,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_geo::{Point, Polygon};

    fn poly(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Polygon::rectangle(x0, y0, x1, y1).into()
    }

    #[test]
    fn interval_relations() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        let c = Interval::new(20, 30);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.before(&c));
        assert!(!a.before(&b));
        assert!(Interval::new(6, 9).during(&a));
        assert!(!b.during(&a));
        // Touching intervals overlap (closed intervals).
        assert!(Interval::new(10, 12).overlaps(&a));
    }

    #[test]
    #[should_panic(expected = "end before start")]
    fn inverted_interval_panics() {
        Interval::new(5, 1);
    }

    #[test]
    fn spatial_rules_verify() {
        let src = SpatialEntity::new(1, poly(0.0, 0.0, 2.0, 2.0));
        let inside = SpatialEntity::new(2, poly(0.5, 0.5, 1.0, 1.0));
        let apart = SpatialEntity::new(3, poly(10.0, 10.0, 11.0, 11.0));
        assert!(LinkRule::spatial(SpatialRelation::Intersects).verify(&src, &inside));
        assert!(LinkRule::spatial(SpatialRelation::Contains).verify(&src, &inside));
        assert!(LinkRule::spatial(SpatialRelation::Within).verify(&inside, &src));
        assert!(!LinkRule::spatial(SpatialRelation::Intersects).verify(&src, &apart));
        assert!(LinkRule::spatial(SpatialRelation::NearWithin(15.0)).verify(&src, &apart));
        assert!(!LinkRule::spatial(SpatialRelation::NearWithin(5.0)).verify(&src, &apart));
    }

    #[test]
    fn temporal_rules_verify() {
        let rule = LinkRule {
            spatial: SpatialRelation::Intersects,
            temporal: Some(TemporalRelation::During),
        };
        let a = SpatialEntity::new(1, Point::new(0.0, 0.0).into())
            .with_interval(Interval::new(5, 8));
        let b = SpatialEntity::new(2, Point::new(0.0, 0.0).into())
            .with_interval(Interval::new(0, 10));
        assert!(rule.verify(&a, &b));
        assert!(!rule.verify(&b, &a), "during is directional");
        // Missing interval fails a temporal rule.
        let no_time = SpatialEntity::new(3, Point::new(0.0, 0.0).into());
        assert!(!rule.verify(&no_time, &b));
    }

    #[test]
    fn blocking_slack() {
        assert_eq!(LinkRule::spatial(SpatialRelation::Intersects).blocking_slack(), 0.0);
        assert_eq!(
            LinkRule::spatial(SpatialRelation::NearWithin(3.5)).blocking_slack(),
            3.5
        );
    }
}
