//! Property-based tests over the geometry kernels.
//!
//! Each property is exercised over 128 deterministic random cases drawn
//! from a seeded [`ee_util::Rng`] (no external property-test framework,
//! so the workspace builds offline). Failures print the case index so a
//! failing draw can be replayed exactly.

use ee_geo::{algorithms, wkt, Envelope, Geometry, Point, Polygon};
use ee_util::Rng;

const CASES: usize = 128;

fn random_point(rng: &mut Rng) -> Point {
    Point::new(rng.range_f64(-100.0, 100.0), rng.range_f64(-100.0, 100.0))
}

/// A random simple polygon: a star-shaped ring around a centre.
fn random_star_polygon(rng: &mut Rng) -> Polygon {
    let cx = rng.range_f64(-50.0, 50.0);
    let cy = rng.range_f64(-50.0, 50.0);
    let vertices = rng.range(3, 24);
    let radii: Vec<f64> = (0..24).map(|_| rng.range_f64(0.5, 5.0)).collect();
    let pts: Vec<Point> = (0..vertices)
        .map(|k| {
            let theta = k as f64 / vertices as f64 * std::f64::consts::TAU;
            let r = radii[k % radii.len()];
            Point::new(cx + r * theta.cos(), cy + r * theta.sin())
        })
        .collect();
    Polygon::from_exterior(pts).expect("star ring is valid")
}

#[test]
fn rect_point_containment_matches_envelope() {
    let mut rng = Rng::seed_from(0xEE01);
    for case in 0..CASES {
        let p = random_point(&mut rng);
        let x0 = rng.range_f64(-80.0, 80.0);
        let y0 = rng.range_f64(-80.0, 80.0);
        let w = rng.range_f64(0.1, 40.0);
        let h = rng.range_f64(0.1, 40.0);
        let rect = Polygon::rectangle(x0, y0, x0 + w, y0 + h);
        let env = Envelope::new(x0, y0, x0 + w, y0 + h);
        assert_eq!(
            algorithms::point_in_polygon(&p, &rect),
            env.contains_point(&p),
            "case {case}: point {p:?} rect ({x0},{y0})+({w},{h})"
        );
    }
}

#[test]
fn intersects_is_symmetric() {
    let mut rng = Rng::seed_from(0xEE02);
    for case in 0..CASES {
        let ga: Geometry = random_star_polygon(&mut rng).into();
        let gb: Geometry = random_star_polygon(&mut rng).into();
        assert_eq!(
            algorithms::intersects(&ga, &gb),
            algorithms::intersects(&gb, &ga),
            "case {case}"
        );
    }
}

#[test]
fn distance_is_symmetric_and_zero_iff_intersecting() {
    let mut rng = Rng::seed_from(0xEE03);
    for case in 0..CASES {
        let ga: Geometry = random_star_polygon(&mut rng).into();
        let gb: Geometry = random_star_polygon(&mut rng).into();
        let dab = algorithms::distance(&ga, &gb);
        let dba = algorithms::distance(&gb, &ga);
        assert!((dab - dba).abs() < 1e-9, "case {case}: {dab} vs {dba}");
        assert_eq!(dab == 0.0, algorithms::intersects(&ga, &gb), "case {case}");
        assert!(dab >= 0.0, "case {case}");
    }
}

#[test]
fn contains_implies_intersects_and_envelope_containment() {
    let mut rng = Rng::seed_from(0xEE04);
    for case in 0..CASES {
        let a = random_star_polygon(&mut rng);
        let b = random_star_polygon(&mut rng);
        let ga: Geometry = a.clone().into();
        let gb: Geometry = b.clone().into();
        if algorithms::contains(&ga, &gb) {
            assert!(algorithms::intersects(&ga, &gb), "case {case}");
            assert!(
                a.envelope().contains_envelope(&b.envelope()),
                "case {case}"
            );
            assert!(
                algorithms::area(&ga) >= algorithms::area(&gb) - 1e-9,
                "case {case}"
            );
        }
    }
}

#[test]
fn wkt_roundtrip_star_polygons() {
    let mut rng = Rng::seed_from(0xEE07);
    for case in 0..CASES {
        let g: Geometry = random_star_polygon(&mut rng).into();
        let text = wkt::to_wkt(&g);
        let back = wkt::parse_wkt(&text).expect("roundtrip");
        assert_eq!(back, g, "case {case}: {text}");
    }
}

#[test]
fn polygon_area_is_translation_invariant() {
    let mut rng = Rng::seed_from(0xEE08);
    for case in 0..CASES {
        let poly = random_star_polygon(&mut rng);
        let dx = rng.range_f64(-30.0, 30.0);
        let dy = rng.range_f64(-30.0, 30.0);
        let moved = Polygon::from_exterior(
            poly.exterior.points[..poly.exterior.points.len() - 1]
                .iter()
                .map(|p| Point::new(p.x + dx, p.y + dy))
                .collect(),
        )
        .expect("ring still valid");
        assert!(
            (algorithms::polygon_area(&poly) - algorithms::polygon_area(&moved)).abs() < 1e-6,
            "case {case}"
        );
    }
}
