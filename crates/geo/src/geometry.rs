//! Core geometry types.
//!
//! Coordinates are `f64` pairs in an arbitrary planar CRS; the workspace
//! uses WGS84 longitude/latitude degrees for catalogue footprints and local
//! metric coordinates for the synthetic worlds. All types are immutable
//! value types; operations live in [`crate::algorithms`].

use crate::GeoError;

/// A 2-D point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate (longitude or easting).
    pub x: f64,
    /// Y coordinate (latitude or northing).
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// The degenerate envelope containing only this point.
    pub fn envelope(&self) -> Envelope {
        Envelope::new(self.x, self.y, self.x, self.y)
    }
}

/// An axis-aligned bounding rectangle. Always non-degenerate in the sense
/// `min_x <= max_x && min_y <= max_y` (enforced at construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// Minimum X.
    pub min_x: f64,
    /// Minimum Y.
    pub min_y: f64,
    /// Maximum X.
    pub max_x: f64,
    /// Maximum Y.
    pub max_y: f64,
}

impl Envelope {
    /// Construct from corner coordinates; coordinates are re-ordered so the
    /// invariant holds regardless of argument order.
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Self {
            min_x: x1.min(x2),
            min_y: y1.min(y2),
            max_x: x1.max(x2),
            max_y: y1.max(y2),
        }
    }

    /// The "impossible" envelope used as a fold identity: expanding it by
    /// any point yields that point's envelope.
    pub fn empty() -> Self {
        Self {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// True if this is the fold identity (no points accumulated).
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x
    }

    /// Width (`0` for empty envelopes).
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height (`0` for empty envelopes).
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)
    }

    /// Does this envelope intersect `other` (boundaries touching counts)?
    #[inline]
    pub fn intersects(&self, other: &Envelope) -> bool {
        self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// Does this envelope fully contain `other`?
    #[inline]
    pub fn contains_envelope(&self, other: &Envelope) -> bool {
        self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    /// Does this envelope contain the point (boundary inclusive)?
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Smallest envelope covering both.
    pub fn union(&self, other: &Envelope) -> Envelope {
        Envelope {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Grow to include a point.
    pub fn expand(&mut self, p: &Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Area increase needed to include `other` (R-tree insertion cost).
    pub fn enlargement(&self, other: &Envelope) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Minimum distance between the envelopes (0 if they intersect).
    pub fn distance(&self, other: &Envelope) -> f64 {
        let dx = (other.min_x - self.max_x).max(self.min_x - other.max_x).max(0.0);
        let dy = (other.min_y - self.max_y).max(self.min_y - other.max_y).max(0.0);
        dx.hypot(dy)
    }

    /// The envelope as a closed counter-clockwise polygon.
    pub fn to_polygon(&self) -> Polygon {
        Polygon::new(
            LineString::closed(vec![
                Point::new(self.min_x, self.min_y),
                Point::new(self.max_x, self.min_y),
                Point::new(self.max_x, self.max_y),
                Point::new(self.min_x, self.max_y),
            ]),
            Vec::new(),
        )
        .expect("rectangle ring is valid")
    }
}

/// An ordered sequence of at least two points.
#[derive(Debug, Clone, PartialEq)]
pub struct LineString {
    /// The vertices, in order.
    pub points: Vec<Point>,
}

impl LineString {
    /// Construct; requires at least two points.
    pub fn new(points: Vec<Point>) -> Result<Self, GeoError> {
        if points.len() < 2 {
            return Err(GeoError::InvalidGeometry(format!(
                "linestring needs >= 2 points, got {}",
                points.len()
            )));
        }
        Ok(Self { points })
    }

    /// Construct a ring, appending the first point at the end if the input
    /// is not already closed. Requires at least three distinct positions.
    pub fn closed(mut points: Vec<Point>) -> Self {
        if points.first() != points.last() {
            if let Some(&first) = points.first() {
                points.push(first);
            }
        }
        Self { points }
    }

    /// Is this a closed ring (first == last, length >= 4)?
    pub fn is_ring(&self) -> bool {
        self.points.len() >= 4 && self.points.first() == self.points.last()
    }

    /// Total length of the segments.
    pub fn length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].distance(&w[1]))
            .sum()
    }

    /// Bounding envelope.
    pub fn envelope(&self) -> Envelope {
        let mut env = Envelope::empty();
        for p in &self.points {
            env.expand(p);
        }
        env
    }

    /// Iterate over the segments as point pairs.
    pub fn segments(&self) -> impl Iterator<Item = (&Point, &Point)> {
        self.points.windows(2).map(|w| (&w[0], &w[1]))
    }
}

/// A polygon: one exterior ring plus zero or more interior rings (holes).
///
/// Invariant: every ring is closed with at least four points. Ring
/// orientation is not enforced; algorithms use absolute areas.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    /// The outer boundary.
    pub exterior: LineString,
    /// Holes.
    pub interiors: Vec<LineString>,
}

impl Polygon {
    /// Construct, validating ring structure.
    pub fn new(exterior: LineString, interiors: Vec<LineString>) -> Result<Self, GeoError> {
        if !exterior.is_ring() {
            return Err(GeoError::InvalidGeometry(
                "polygon exterior must be a closed ring with >= 4 points".into(),
            ));
        }
        for (i, ring) in interiors.iter().enumerate() {
            if !ring.is_ring() {
                return Err(GeoError::InvalidGeometry(format!(
                    "polygon interior ring {i} is not a closed ring"
                )));
            }
        }
        Ok(Self { exterior, interiors })
    }

    /// Convenience: a polygon from exterior coordinates with no holes;
    /// the ring is closed automatically.
    pub fn from_exterior(points: Vec<Point>) -> Result<Self, GeoError> {
        Self::new(LineString::closed(points), Vec::new())
    }

    /// Axis-aligned rectangle polygon.
    pub fn rectangle(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Envelope::new(min_x, min_y, max_x, max_y).to_polygon()
    }

    /// Bounding envelope (exterior only; holes cannot extend it).
    pub fn envelope(&self) -> Envelope {
        self.exterior.envelope()
    }

    /// The envelope, when this polygon fills it exactly: an axis-aligned
    /// rectangle of positive width and height with no holes, its ring the
    /// four distinct envelope corners joined by axis-parallel edges. Any
    /// other polygon (a triangle, an L-shape, a holed or degenerate
    /// rectangle) answers `None`.
    pub fn as_rectangle(&self) -> Option<Envelope> {
        let pts = &self.exterior.points;
        let env = self.envelope();
        if !self.interiors.is_empty() || pts.len() != 5 || env.width() <= 0.0 || env.height() <= 0.0
        {
            return None;
        }
        let corner = |p: &Point| {
            (p.x == env.min_x || p.x == env.max_x) && (p.y == env.min_y || p.y == env.max_y)
        };
        let distinct = (0..4).all(|i| (i + 1..4).all(|j| pts[i] != pts[j]));
        let axis_parallel = pts.windows(2).all(|w| w[0].x == w[1].x || w[0].y == w[1].y);
        (distinct && axis_parallel && pts.iter().all(corner)).then_some(env)
    }

    /// Number of vertices across all rings (counting ring closure points).
    pub fn num_vertices(&self) -> usize {
        self.exterior.points.len() + self.interiors.iter().map(|r| r.points.len()).sum::<usize>()
    }
}

/// A collection of polygons.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPolygon {
    /// Member polygons. May be empty (the OGC empty multipolygon).
    pub polygons: Vec<Polygon>,
}

impl MultiPolygon {
    /// Construct from members.
    pub fn new(polygons: Vec<Polygon>) -> Self {
        Self { polygons }
    }

    /// Bounding envelope of all members.
    pub fn envelope(&self) -> Envelope {
        self.polygons
            .iter()
            .fold(Envelope::empty(), |acc, p| acc.union(&p.envelope()))
    }

    /// Total vertex count.
    pub fn num_vertices(&self) -> usize {
        self.polygons.iter().map(Polygon::num_vertices).sum()
    }
}

/// Any geometry this crate understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    /// A point.
    Point(Point),
    /// A polyline.
    LineString(LineString),
    /// A polygon with optional holes.
    Polygon(Polygon),
    /// A set of polygons.
    MultiPolygon(MultiPolygon),
}

impl Geometry {
    /// Bounding envelope.
    pub fn envelope(&self) -> Envelope {
        match self {
            Geometry::Point(p) => p.envelope(),
            Geometry::LineString(l) => l.envelope(),
            Geometry::Polygon(p) => p.envelope(),
            Geometry::MultiPolygon(m) => m.envelope(),
        }
    }

    /// Number of coordinate pairs in the geometry.
    pub fn num_vertices(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::LineString(l) => l.points.len(),
            Geometry::Polygon(p) => p.num_vertices(),
            Geometry::MultiPolygon(m) => m.num_vertices(),
        }
    }

    /// The OGC geometry-type name (upper case, as WKT uses).
    pub fn type_name(&self) -> &'static str {
        match self {
            Geometry::Point(_) => "POINT",
            Geometry::LineString(_) => "LINESTRING",
            Geometry::Polygon(_) => "POLYGON",
            Geometry::MultiPolygon(_) => "MULTIPOLYGON",
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

impl From<MultiPolygon> for Geometry {
    fn from(m: MultiPolygon) -> Self {
        Geometry::MultiPolygon(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_normalises_corner_order() {
        let e = Envelope::new(5.0, 7.0, 1.0, 2.0);
        assert_eq!(e.min_x, 1.0);
        assert_eq!(e.max_y, 7.0);
        assert_eq!(e.width(), 4.0);
        assert_eq!(e.height(), 5.0);
        assert_eq!(e.area(), 20.0);
    }

    #[test]
    fn as_rectangle_accepts_only_filled_axis_aligned_rectangles() {
        let ring = |pts: &[(f64, f64)]| {
            Polygon::from_exterior(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
        };
        let want = Some(Envelope::new(0.0, 0.0, 4.0, 2.0));
        assert_eq!(Polygon::rectangle(0.0, 0.0, 4.0, 2.0).as_rectangle(), want);
        // Either orientation, any starting corner.
        assert_eq!(ring(&[(4.0, 2.0), (4.0, 0.0), (0.0, 0.0), (0.0, 2.0)]).as_rectangle(), want);
        // Corners visited out of order: a bow-tie, not a rectangle.
        assert_eq!(ring(&[(0.0, 0.0), (4.0, 2.0), (4.0, 0.0), (0.0, 2.0)]).as_rectangle(), None);
        // A triangle, an L-shape, a repeated corner, a degenerate box.
        assert_eq!(ring(&[(0.0, 0.0), (4.0, 0.0), (0.0, 2.0)]).as_rectangle(), None);
        let l_shape = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)];
        assert_eq!(ring(&l_shape).as_rectangle(), None);
        assert_eq!(ring(&[(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (0.0, 2.0)]).as_rectangle(), None);
        assert_eq!(ring(&[(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (0.0, 0.0)]).as_rectangle(), None);
        // A hole makes it not fill its envelope.
        let hole = LineString::closed(vec![
            Point::new(1.0, 0.5),
            Point::new(2.0, 0.5),
            Point::new(2.0, 1.5),
        ]);
        let holed = Polygon::new(Polygon::rectangle(0.0, 0.0, 4.0, 2.0).exterior, vec![hole]);
        assert_eq!(holed.unwrap().as_rectangle(), None);
    }

    #[test]
    fn envelope_empty_identity() {
        let mut e = Envelope::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        e.expand(&Point::new(3.0, 4.0));
        assert!(!e.is_empty());
        assert_eq!(e, Envelope::new(3.0, 4.0, 3.0, 4.0));
    }

    #[test]
    fn envelope_predicates() {
        let a = Envelope::new(0.0, 0.0, 10.0, 10.0);
        let b = Envelope::new(5.0, 5.0, 15.0, 15.0);
        let c = Envelope::new(11.0, 11.0, 12.0, 12.0);
        let inner = Envelope::new(2.0, 2.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.contains_envelope(&inner));
        assert!(!a.contains_envelope(&b));
        assert!(a.contains_point(&Point::new(10.0, 10.0)), "boundary inclusive");
        assert!(!a.contains_point(&Point::new(10.1, 10.0)));
        // Touching boundaries intersect.
        let d = Envelope::new(10.0, 0.0, 20.0, 10.0);
        assert!(a.intersects(&d));
    }

    #[test]
    fn envelope_distance() {
        let a = Envelope::new(0.0, 0.0, 1.0, 1.0);
        let b = Envelope::new(4.0, 5.0, 6.0, 7.0);
        assert_eq!(a.distance(&b), 5.0, "3-4-5 triangle");
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn linestring_validation_and_length() {
        assert!(LineString::new(vec![Point::new(0.0, 0.0)]).is_err());
        let l = LineString::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 4.0),
            Point::new(3.0, 0.0),
        ])
        .unwrap();
        assert_eq!(l.length(), 9.0);
        assert!(!l.is_ring());
    }

    #[test]
    fn closed_ring_auto_closure() {
        let ring = LineString::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
        ]);
        assert!(ring.is_ring());
        assert_eq!(ring.points.len(), 4);
        // Already-closed input is left alone.
        let ring2 = LineString::closed(ring.points.clone());
        assert_eq!(ring2.points.len(), 4);
    }

    #[test]
    fn polygon_validation() {
        assert!(Polygon::from_exterior(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]).is_err());
        let p = Polygon::rectangle(0.0, 0.0, 2.0, 3.0);
        assert_eq!(p.envelope(), Envelope::new(0.0, 0.0, 2.0, 3.0));
        assert_eq!(p.num_vertices(), 5);
    }

    #[test]
    fn multipolygon_envelope_spans_members() {
        let m = MultiPolygon::new(vec![
            Polygon::rectangle(0.0, 0.0, 1.0, 1.0),
            Polygon::rectangle(5.0, 5.0, 6.0, 7.0),
        ]);
        assert_eq!(m.envelope(), Envelope::new(0.0, 0.0, 6.0, 7.0));
        assert_eq!(m.num_vertices(), 10);
        assert!(MultiPolygon::new(vec![]).envelope().is_empty());
    }

    #[test]
    fn geometry_enum_dispatch() {
        let g: Geometry = Point::new(1.0, 2.0).into();
        assert_eq!(g.type_name(), "POINT");
        assert_eq!(g.num_vertices(), 1);
        let g: Geometry = Polygon::rectangle(0.0, 0.0, 1.0, 1.0).into();
        assert_eq!(g.type_name(), "POLYGON");
    }
}
