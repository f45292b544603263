//! Property-based tests over cross-crate invariants: WKT round trips,
//! R-tree equivalence with brute force, raster-codec round trips, the
//! SPARQL engine's agreement with the naive evaluator, and dataset
//! splits.
//!
//! Each property runs over 64 deterministic random cases drawn from a
//! seeded [`extremeearth::util::Rng`] (no external property-test
//! framework, so the workspace builds offline). Failures print the case
//! index so a failing draw can be replayed exactly.

use extremeearth::geo::{algorithms, wkt, Envelope, Geometry, Point, Polygon, RTree};
use extremeearth::raster::raster::GeoTransform;
use extremeearth::raster::{codec, Raster};
use extremeearth::rdf::exec::{query, Solutions};
use extremeearth::rdf::naive;
use extremeearth::rdf::term::Term;
use extremeearth::rdf::TripleStore;
use extremeearth::util::Rng;

const CASES: usize = 64;

fn random_point(rng: &mut Rng) -> Point {
    Point::new(rng.range_f64(-1000.0, 1000.0), rng.range_f64(-1000.0, 1000.0))
}

fn random_rect_polygon(rng: &mut Rng) -> Polygon {
    let x = rng.range_f64(-500.0, 500.0);
    let y = rng.range_f64(-500.0, 500.0);
    let w = rng.range_f64(0.1, 50.0);
    let h = rng.range_f64(0.1, 50.0);
    Polygon::rectangle(x, y, x + w, y + h)
}

#[test]
fn wkt_roundtrips_points() {
    let mut rng = Rng::seed_from(0xCC01);
    for case in 0..CASES {
        let g: Geometry = random_point(&mut rng).into();
        let text = wkt::to_wkt(&g);
        let back = wkt::parse_wkt(&text).expect("roundtrip parse");
        assert_eq!(back, g, "case {case}: {text}");
    }
}

#[test]
fn wkt_roundtrips_polygons() {
    let mut rng = Rng::seed_from(0xCC02);
    for case in 0..CASES {
        let g: Geometry = random_rect_polygon(&mut rng).into();
        let text = wkt::to_wkt(&g);
        let back = wkt::parse_wkt(&text).expect("roundtrip parse");
        assert_eq!(back, g, "case {case}: {text}");
    }
}

#[test]
fn rectangle_intersection_matches_envelope_logic() {
    let mut rng = Rng::seed_from(0xCC03);
    for case in 0..CASES {
        // For axis-aligned rectangles, exact intersection == envelope
        // intersection; the geometry kernels must agree.
        let a = random_rect_polygon(&mut rng);
        let b = random_rect_polygon(&mut rng);
        let ga: Geometry = a.clone().into();
        let gb: Geometry = b.clone().into();
        let exact = algorithms::intersects(&ga, &gb);
        let bbox = a.envelope().intersects(&b.envelope());
        assert_eq!(exact, bbox, "case {case}");
    }
}

#[test]
fn rtree_matches_brute_force() {
    let mut rng = Rng::seed_from(0xCC04);
    for case in 0..CASES {
        let n = rng.range(1, 200);
        let envs: Vec<(Envelope, usize)> = (0..n)
            .map(|i| {
                let x = rng.range_f64(-500.0, 500.0);
                let y = rng.range_f64(-500.0, 500.0);
                let w = rng.range_f64(0.1, 20.0);
                let h = rng.range_f64(0.1, 20.0);
                (Envelope::new(x, y, x + w, y + h), i)
            })
            .collect();
        let tree = RTree::bulk_load(envs.clone());
        let qx = rng.range_f64(-600.0, 600.0);
        let qy = rng.range_f64(-600.0, 600.0);
        let qw = rng.range_f64(1.0, 300.0);
        let qh = rng.range_f64(1.0, 300.0);
        let q = Envelope::new(qx, qy, qx + qw, qy + qh);
        let mut got: Vec<usize> = tree.search(&q).into_iter().copied().collect();
        got.sort_unstable();
        let mut expect: Vec<usize> = envs
            .iter()
            .filter(|(e, _)| e.intersects(&q))
            .map(|(_, i)| *i)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "case {case}");
    }
}

#[test]
fn raster_codec_roundtrips() {
    let mut rng = Rng::seed_from(0xCC05);
    for case in 0..CASES {
        let cols = rng.range(1, 40);
        let rows = rng.range(1, 40);
        let mut pix = Rng::seed_from(rng.next_u64());
        let t = GeoTransform::new(0.0, rows as f64, 1.0);
        let r: Raster<f32> = Raster::from_fn(cols, rows, t, |_, _| pix.f32());
        let back: Raster<f32> = codec::decode(&codec::encode(&r)).expect("decode");
        assert_eq!(back, r, "case {case}");
        // And a label raster (exercises RLE).
        let l: Raster<u8> = Raster::from_fn(cols, rows, t, |c, _| (c / 7) as u8);
        let back: Raster<u8> = codec::decode(&codec::encode(&l)).expect("decode");
        assert_eq!(back, l, "case {case}");
    }
}

#[test]
fn sparql_indexed_and_scan_agree() {
    let mut rng = Rng::seed_from(0xCC06);
    for case in 0..CASES {
        let n = rng.range(1, 120);
        let triples: Vec<(u8, u8, u8)> = (0..n)
            .map(|_| {
                (
                    rng.range(0, 12) as u8,
                    rng.range(0, 4) as u8,
                    rng.range(0, 12) as u8,
                )
            })
            .collect();
        let filter_min = rng.range(0, 12) as u8;
        // A graph is a set: the naive evaluator gets each triple once.
        let graph: std::collections::BTreeSet<(Term, Term, Term)> = triples
            .iter()
            .map(|&(s, p, o)| {
                (
                    Term::iri(format!("http://e/s{s}")),
                    Term::iri(format!("http://e/p{p}")),
                    Term::integer(o as i64),
                )
            })
            .collect();
        let graph: Vec<(Term, Term, Term)> = graph.into_iter().collect();
        let mut st = TripleStore::new();
        for (s, p, o) in &graph {
            st.insert(s, p, o);
        }
        let q = format!(
            "PREFIX e: <http://e/> SELECT ?s ?o WHERE {{ ?s e:p1 ?o . FILTER(?o >= {filter_min}) }} ORDER BY ?o"
        );
        let normalize = |sol: Solutions| {
            let mut rows: Vec<String> = sol.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        assert_eq!(
            normalize(query(&st, &q).expect("query")),
            normalize(naive::query(&graph, &q).expect("naive query")),
            "case {case}"
        );
    }
}

#[test]
fn stratified_split_partitions_everything() {
    let mut rng = Rng::seed_from(0xCC07);
    for case in 0..CASES {
        let n = rng.range(20, 300);
        let frac = rng.range_f64(0.1, 0.9);
        let seed = rng.next_u64();
        let mut lab = Rng::seed_from(seed);
        let labels: Vec<usize> = (0..n).map(|_| lab.range(0, 4)).collect();
        let x = extremeearth::tensor::Tensor::full(&[n, 2], 1.0);
        let data = extremeearth::dl::Dataset::new(x, labels).expect("dataset");
        let (train, test) = data.split(frac, seed).expect("split");
        assert_eq!(train.len() + test.len(), n, "case {case}");
        // Per-class counts preserved.
        for class in 0..4 {
            let total = data.labels.iter().filter(|&&y| y == class).count();
            let tr = train.labels.iter().filter(|&&y| y == class).count();
            let te = test.labels.iter().filter(|&&y| y == class).count();
            assert_eq!(tr + te, total, "case {case} class {class}");
        }
    }
}
