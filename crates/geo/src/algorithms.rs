//! Computational-geometry algorithms over the types in [`crate::geometry`].
//!
//! These are the kernels behind the GeoSPARQL functions of `ee-rdf`
//! (`sfIntersects`, `sfContains`, `sfWithin`, `geof:distance`) and the
//! rasterisation / field-boundary code in the applications.

use crate::geometry::{Geometry, LineString, Point, Polygon};

/// Twice the signed area of the triangle (a, b, c); positive when the turn
/// a→b→c is counter-clockwise.
#[inline]
pub fn cross(a: &Point, b: &Point, c: &Point) -> f64 {
    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
}

/// Signed area of a ring by the shoelace formula (positive if CCW).
pub fn ring_signed_area(ring: &LineString) -> f64 {
    let pts = &ring.points;
    let mut acc = 0.0;
    for w in pts.windows(2) {
        acc += w[0].x * w[1].y - w[1].x * w[0].y;
    }
    acc / 2.0
}

/// Area of a polygon: |exterior| minus the sum of |holes|.
pub fn polygon_area(poly: &Polygon) -> f64 {
    let ext = ring_signed_area(&poly.exterior).abs();
    let holes: f64 = poly
        .interiors
        .iter()
        .map(|r| ring_signed_area(r).abs())
        .sum();
    (ext - holes).max(0.0)
}

/// Area of any geometry (0 for points and linestrings).
pub fn area(geom: &Geometry) -> f64 {
    match geom {
        Geometry::Point(_) | Geometry::LineString(_) => 0.0,
        Geometry::Polygon(p) => polygon_area(p),
        Geometry::MultiPolygon(m) => m.polygons.iter().map(polygon_area).sum(),
    }
}

/// Centroid of a polygon's exterior ring (area-weighted; holes ignored,
/// which is adequate for the blocking/labelling uses in this workspace).
pub fn polygon_centroid(poly: &Polygon) -> Point {
    let pts = &poly.exterior.points;
    let a = ring_signed_area(&poly.exterior);
    if a.abs() < f64::EPSILON {
        // Degenerate ring: average the vertices.
        let n = (pts.len() - 1).max(1) as f64;
        let (sx, sy) = pts[..pts.len() - 1]
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        return Point::new(sx / n, sy / n);
    }
    let mut cx = 0.0;
    let mut cy = 0.0;
    for w in pts.windows(2) {
        let f = w[0].x * w[1].y - w[1].x * w[0].y;
        cx += (w[0].x + w[1].x) * f;
        cy += (w[0].y + w[1].y) * f;
    }
    Point::new(cx / (6.0 * a), cy / (6.0 * a))
}

/// Is `p` inside the ring (boundary counts as inside)? Ray-casting with
/// careful handling of vertices on the ray.
pub fn point_in_ring(p: &Point, ring: &LineString) -> bool {
    let pts = &ring.points;
    // Boundary check first: on-segment counts as inside.
    for w in pts.windows(2) {
        if point_on_segment(p, &w[0], &w[1]) {
            return true;
        }
    }
    let mut inside = false;
    for w in pts.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let intersects_ray = (a.y > p.y) != (b.y > p.y);
        if intersects_ray {
            let x_at = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if p.x < x_at {
                inside = !inside;
            }
        }
    }
    inside
}

/// Is `p` within distance `1e-12`-ish of the closed segment (a, b)?
#[inline]
pub fn point_on_segment(p: &Point, a: &Point, b: &Point) -> bool {
    let d = cross(a, b, p).abs();
    let len = a.distance(b);
    if len < f64::EPSILON {
        return p.distance(a) < 1e-12;
    }
    if d / len > 1e-9 {
        return false;
    }
    let t = ((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / (len * len);
    (-1e-12..=1.0 + 1e-12).contains(&t)
}

/// Is `p` inside the polygon (in the exterior, outside every hole)?
/// Points on any boundary count as inside (OGC "covers" semantics, which is
/// what the GeoSPARQL filters in this workspace use).
pub fn point_in_polygon(p: &Point, poly: &Polygon) -> bool {
    if !point_in_ring(p, &poly.exterior) {
        return false;
    }
    for hole in &poly.interiors {
        // On the hole boundary still counts as inside the polygon.
        let on_boundary = hole
            .points
            .windows(2)
            .any(|w| point_on_segment(p, &w[0], &w[1]));
        if !on_boundary && point_in_ring(p, hole) {
            return false;
        }
    }
    true
}

/// Do the closed segments (p1, p2) and (p3, p4) intersect (touching counts)?
pub fn segments_intersect(p1: &Point, p2: &Point, p3: &Point, p4: &Point) -> bool {
    let d1 = cross(p3, p4, p1);
    let d2 = cross(p3, p4, p2);
    let d3 = cross(p1, p2, p3);
    let d4 = cross(p1, p2, p4);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && point_on_segment(p1, p3, p4))
        || (d2 == 0.0 && point_on_segment(p2, p3, p4))
        || (d3 == 0.0 && point_on_segment(p3, p1, p2))
        || (d4 == 0.0 && point_on_segment(p4, p1, p2))
}

/// Distance from a point to the closed segment (a, b).
pub fn point_segment_distance(p: &Point, a: &Point, b: &Point) -> f64 {
    let len2 = (b.x - a.x).powi(2) + (b.y - a.y).powi(2);
    if len2 < f64::EPSILON {
        return p.distance(a);
    }
    let t = (((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / len2).clamp(0.0, 1.0);
    let proj = Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
    p.distance(&proj)
}

fn rings_of(geom: &Geometry) -> Vec<&LineString> {
    match geom {
        Geometry::Point(_) => Vec::new(),
        Geometry::LineString(l) => vec![l],
        Geometry::Polygon(p) => {
            let mut v = vec![&p.exterior];
            v.extend(p.interiors.iter());
            v
        }
        Geometry::MultiPolygon(m) => {
            let mut v = Vec::new();
            for p in &m.polygons {
                v.push(&p.exterior);
                v.extend(p.interiors.iter());
            }
            v
        }
    }
}

fn boundaries_cross(a: &Geometry, b: &Geometry) -> bool {
    let ra = rings_of(a);
    let rb = rings_of(b);
    for la in &ra {
        for lb in &rb {
            // Envelope prefilter per ring pair keeps this sub-quadratic in
            // practice for multipolygons spread over space.
            if !la.envelope().intersects(&lb.envelope()) {
                continue;
            }
            for (a1, a2) in la.segments() {
                for (b1, b2) in lb.segments() {
                    if segments_intersect(a1, a2, b1, b2) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

fn any_point_of(geom: &Geometry) -> Point {
    match geom {
        Geometry::Point(p) => *p,
        Geometry::LineString(l) => l.points[0],
        Geometry::Polygon(p) => interior_probe(p),
        Geometry::MultiPolygon(m) => m
            .polygons
            .first()
            .map(interior_probe)
            .unwrap_or_default(),
    }
}

/// A point guaranteed to lie inside the polygon (centroid if it is inside,
/// otherwise a scanline probe).
fn interior_probe(poly: &Polygon) -> Point {
    let c = polygon_centroid(poly);
    if point_in_polygon(&c, poly) {
        return c;
    }
    // Scan a horizontal line through the envelope middle.
    let env = poly.envelope();
    let y = (env.min_y + env.max_y) / 2.0;
    let steps = 64;
    for i in 0..steps {
        let x = env.min_x + env.width() * (i as f64 + 0.5) / steps as f64;
        let p = Point::new(x, y);
        if point_in_polygon(&p, poly) {
            return p;
        }
    }
    poly.exterior.points[0]
}

/// Does `geom` contain the point (boundary counts)?
pub fn geometry_contains_point(geom: &Geometry, p: &Point) -> bool {
    match geom {
        Geometry::Point(q) => q.distance(p) < 1e-12,
        Geometry::LineString(l) => l
            .points
            .windows(2)
            .any(|w| point_on_segment(p, &w[0], &w[1])),
        Geometry::Polygon(poly) => point_in_polygon(p, poly),
        Geometry::MultiPolygon(m) => m.polygons.iter().any(|poly| point_in_polygon(p, poly)),
    }
}

/// OGC `sfIntersects`: do the geometries share at least one point?
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    if !a.envelope().intersects(&b.envelope()) {
        return false;
    }
    match (a, b) {
        (Geometry::Point(p), _) => geometry_contains_point(b, p),
        (_, Geometry::Point(q)) => geometry_contains_point(a, q),
        _ => {
            if boundaries_cross(a, b) {
                return true;
            }
            // No boundary crossing: either disjoint or one inside the other.
            geometry_contains_point(a, &any_point_of(b))
                || geometry_contains_point(b, &any_point_of(a))
        }
    }
}

/// OGC `sfContains` (approximate): every point of `b` is in `a`.
///
/// For areal `a`: true iff the boundaries do not cross (touching allowed)
/// and a representative point of every component of `b` lies inside `a`,
/// with all of `b`'s vertices inside too. This matches the OGC relation on
/// the non-pathological geometries the workspace generates.
pub fn contains(a: &Geometry, b: &Geometry) -> bool {
    if !a.envelope().contains_envelope(&b.envelope()) {
        return false;
    }
    match b {
        Geometry::Point(p) => geometry_contains_point(a, p),
        Geometry::LineString(l) => l.points.iter().all(|p| geometry_contains_point(a, p)),
        Geometry::Polygon(_) | Geometry::MultiPolygon(_) => {
            let vertices_inside = rings_of(b)
                .iter()
                .flat_map(|r| r.points.iter())
                .all(|p| geometry_contains_point(a, p));
            if !vertices_inside {
                return false;
            }
            // Guard against a hole of `a` being strictly inside `b`: a hole
            // boundary must not cross or be contained by b's interior.
            if let Geometry::Polygon(pa) = a {
                for hole in &pa.interiors {
                    let hp = &hole.points[0];
                    if geometry_contains_point(b, hp) {
                        return false;
                    }
                }
            }
            true
        }
    }
}

/// OGC `sfWithin`: `a` within `b` ⇔ `b` contains `a`.
pub fn within(a: &Geometry, b: &Geometry) -> bool {
    contains(b, a)
}

/// Minimum Euclidean distance between two geometries (0 if they intersect).
pub fn distance(a: &Geometry, b: &Geometry) -> f64 {
    if intersects(a, b) {
        return 0.0;
    }
    let pa = all_vertices(a);
    let pb = all_vertices(b);
    let mut best = f64::INFINITY;
    // Point-vs-segments in both directions dominates for disjoint shapes.
    for ring in rings_of(b) {
        for (s1, s2) in ring.segments() {
            for p in &pa {
                best = best.min(point_segment_distance(p, s1, s2));
            }
        }
    }
    for ring in rings_of(a) {
        for (s1, s2) in ring.segments() {
            for p in &pb {
                best = best.min(point_segment_distance(p, s1, s2));
            }
        }
    }
    if best.is_infinite() {
        // Both are points (no rings).
        for p in &pa {
            for q in &pb {
                best = best.min(p.distance(q));
            }
        }
    }
    best
}

fn all_vertices(geom: &Geometry) -> Vec<Point> {
    match geom {
        Geometry::Point(p) => vec![*p],
        _ => rings_of(geom)
            .iter()
            .flat_map(|r| r.points.iter().copied())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rectangle(0.0, 0.0, 1.0, 1.0)
    }

    fn square_with_hole() -> Polygon {
        Polygon::new(
            LineString::closed(vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(10.0, 10.0),
                Point::new(0.0, 10.0),
            ]),
            vec![LineString::closed(vec![
                Point::new(4.0, 4.0),
                Point::new(6.0, 4.0),
                Point::new(6.0, 6.0),
                Point::new(4.0, 6.0),
            ])],
        )
        .unwrap()
    }

    #[test]
    fn shoelace_area() {
        assert_eq!(polygon_area(&unit_square()), 1.0);
        assert_eq!(polygon_area(&square_with_hole()), 96.0);
        let tri = Polygon::from_exterior(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap();
        assert_eq!(polygon_area(&tri), 6.0);
    }

    #[test]
    fn centroid_of_square() {
        let c = polygon_centroid(&unit_square());
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn centroid_orientation_independent() {
        let mut rev = unit_square();
        rev.exterior.points.reverse();
        let c = polygon_centroid(&rev);
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn point_in_polygon_basics() {
        let sq = unit_square();
        assert!(point_in_polygon(&Point::new(0.5, 0.5), &sq));
        assert!(!point_in_polygon(&Point::new(1.5, 0.5), &sq));
        assert!(point_in_polygon(&Point::new(0.0, 0.5), &sq), "boundary");
        assert!(point_in_polygon(&Point::new(1.0, 1.0), &sq), "corner");
    }

    #[test]
    fn point_in_polygon_respects_holes() {
        let p = square_with_hole();
        assert!(point_in_polygon(&Point::new(1.0, 1.0), &p));
        assert!(!point_in_polygon(&Point::new(5.0, 5.0), &p), "inside hole");
        assert!(point_in_polygon(&Point::new(4.0, 5.0), &p), "hole boundary counts");
    }

    #[test]
    fn segment_intersection_cases() {
        let o = Point::new(0.0, 0.0);
        assert!(segments_intersect(
            &o,
            &Point::new(2.0, 2.0),
            &Point::new(0.0, 2.0),
            &Point::new(2.0, 0.0)
        ));
        assert!(!segments_intersect(
            &o,
            &Point::new(1.0, 0.0),
            &Point::new(0.0, 1.0),
            &Point::new(1.0, 1.0)
        ));
        // Touching at an endpoint counts.
        assert!(segments_intersect(
            &o,
            &Point::new(1.0, 0.0),
            &Point::new(1.0, 0.0),
            &Point::new(2.0, 5.0)
        ));
        // Collinear overlapping.
        assert!(segments_intersect(
            &o,
            &Point::new(2.0, 0.0),
            &Point::new(1.0, 0.0),
            &Point::new(3.0, 0.0)
        ));
        // Collinear disjoint.
        assert!(!segments_intersect(
            &o,
            &Point::new(1.0, 0.0),
            &Point::new(2.0, 0.0),
            &Point::new(3.0, 0.0)
        ));
    }

    #[test]
    fn intersects_polygons() {
        let a: Geometry = Polygon::rectangle(0.0, 0.0, 2.0, 2.0).into();
        let b: Geometry = Polygon::rectangle(1.0, 1.0, 3.0, 3.0).into();
        let c: Geometry = Polygon::rectangle(5.0, 5.0, 6.0, 6.0).into();
        assert!(intersects(&a, &b));
        assert!(!intersects(&a, &c));
        // Containment without boundary crossing still intersects.
        let inner: Geometry = Polygon::rectangle(0.5, 0.5, 0.7, 0.7).into();
        assert!(intersects(&a, &inner));
        assert!(intersects(&inner, &a));
    }

    #[test]
    fn intersects_point_cases() {
        let sq: Geometry = unit_square().into();
        assert!(intersects(&sq, &Point::new(0.5, 0.5).into()));
        assert!(!intersects(&sq, &Point::new(2.0, 2.0).into()));
        let p1: Geometry = Point::new(1.0, 1.0).into();
        let p2: Geometry = Point::new(1.0, 1.0).into();
        let p3: Geometry = Point::new(1.0, 1.1).into();
        assert!(intersects(&p1, &p2));
        assert!(!intersects(&p1, &p3));
    }

    #[test]
    fn intersects_hole_excludes() {
        // A small polygon entirely inside the hole does NOT intersect.
        let donut: Geometry = square_with_hole().into();
        let in_hole: Geometry = Polygon::rectangle(4.5, 4.5, 5.5, 5.5).into();
        assert!(!intersects(&donut, &in_hole));
        assert!(!intersects(&in_hole, &donut));
    }

    #[test]
    fn contains_and_within() {
        let big: Geometry = Polygon::rectangle(0.0, 0.0, 10.0, 10.0).into();
        let small: Geometry = Polygon::rectangle(2.0, 2.0, 3.0, 3.0).into();
        let straddle: Geometry = Polygon::rectangle(8.0, 8.0, 12.0, 12.0).into();
        assert!(contains(&big, &small));
        assert!(within(&small, &big));
        assert!(!contains(&big, &straddle));
        assert!(!contains(&small, &big));
        assert!(contains(&big, &Point::new(5.0, 5.0).into()));
        assert!(!contains(&big, &Point::new(50.0, 5.0).into()));
    }

    #[test]
    fn contains_respects_holes() {
        let donut: Geometry = square_with_hole().into();
        // A polygon that covers the hole is not contained.
        let over_hole: Geometry = Polygon::rectangle(3.0, 3.0, 7.0, 7.0).into();
        assert!(!contains(&donut, &over_hole));
        // A polygon in solid area is contained.
        let solid: Geometry = Polygon::rectangle(1.0, 1.0, 3.0, 3.0).into();
        assert!(contains(&donut, &solid));
    }

    #[test]
    fn distance_between_geometries() {
        let a: Geometry = Polygon::rectangle(0.0, 0.0, 1.0, 1.0).into();
        let b: Geometry = Polygon::rectangle(4.0, 0.0, 5.0, 1.0).into();
        assert!((distance(&a, &b) - 3.0).abs() < 1e-12);
        assert_eq!(distance(&a, &a), 0.0);
        let p: Geometry = Point::new(1.0, 5.0).into();
        assert!((distance(&a, &p) - 4.0).abs() < 1e-12);
        let q: Geometry = Point::new(4.0, 5.0).into();
        assert!((distance(&p, &q) - 3.0).abs() < 1e-12);
    }
}
