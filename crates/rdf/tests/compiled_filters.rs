//! Oracle for compiled spatial filters and the envelope decision.
//!
//! Every `?s e:geom ?g . FILTER(geof:op(…))` selection over a seeded
//! store of points, polygons, linestrings and non-geometry objects must
//! select exactly the subjects a brute force over every stored geometry
//! selects with `ee_geo::algorithms` — planned with and without R-tree
//! pushdown, at one and several threads, and by the naive evaluator over
//! the same triples — on the head store and on an `AS OF` view whose
//! overlay adds geometries the spatial index has never seen. The
//! constants cover random rectangles, rectangles whose edges and corners
//! sit on stored points, non-rectangular and holed polygons, and a
//! malformed WKT literal, under both argument orders of all three
//! predicates.

use ee_geo::{algorithms, wkt, Geometry};
use ee_rdf::exec::execute_plan_view;
use ee_rdf::plan::{plan_view, plan_without_pushdown};
use ee_rdf::store::{IdTriple, Novelty, StoreView, TripleStore};
use ee_rdf::Term;
use ee_util::rng::Rng;
use std::collections::HashSet;
use std::sync::Arc;

const GEOM: &str = "http://e/geom";
const OPS: [&str; 3] = ["sfIntersects", "sfContains", "sfWithin"];

fn subject(i: usize) -> Term {
    Term::iri(format!("http://e/f{i}"))
}

/// A coordinate on the half-unit grid of `[0, 40]`, so rectangles built
/// from stored coordinates put points exactly on their edges and corners.
fn coord(rng: &mut Rng) -> f64 {
    rng.below(81) as f64 / 2.0
}

/// The object of feature `i`: mostly points, then small rectangles,
/// triangles and linestrings straddling the query windows, then
/// non-geometry objects (an integer, an IRI, a string that looks like
/// WKT) and a malformed WKT literal.
fn object(rng: &mut Rng) -> Term {
    let (x, y) = (coord(rng), coord(rng));
    let (w, h) = (
        1.0 + rng.below(12) as f64 / 2.0,
        1.0 + rng.below(12) as f64 / 2.0,
    );
    match rng.below(20) {
        0..=10 => Term::wkt(format!("POINT ({x} {y})")),
        11 | 12 => Term::wkt(format!(
            "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))",
            x + w,
            x + w,
            y + h,
            y + h
        )),
        13 => Term::wkt(format!(
            "POLYGON (({x} {y}, {} {y}, {x} {}, {x} {y}))",
            x + w,
            y + h
        )),
        14 => Term::wkt(format!("LINESTRING ({x} {y}, {} {})", x + w, y + h)),
        15 => Term::integer(x as i64),
        16 => Term::iri(format!("http://e/place{x}")),
        17 => Term::string(format!("POINT ({x} {y})")),
        18 => Term::wkt(format!("POINT ({x} {y}")),
        _ => Term::wkt(format!("POINT ({x} {y})")),
    }
}

fn store(triples: &[(Term, Term)]) -> TripleStore {
    let mut st = TripleStore::new();
    let geom = Term::iri(GEOM);
    for (s, o) in triples {
        st.insert(s, &geom, o);
    }
    st.pack();
    st
}

fn rectangle(x0: f64, y0: f64, x1: f64, y1: f64) -> String {
    format!("POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))")
}

/// The WKT constants one seed queries with.
fn constants(rng: &mut Rng, points: &[(f64, f64)]) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..4 {
        let (x, y) = (rng.below(160) as f64 / 4.0, rng.below(160) as f64 / 4.0);
        let (w, h) = (
            0.25 + rng.below(60) as f64 / 4.0,
            0.25 + rng.below(60) as f64 / 4.0,
        );
        out.push(rectangle(x, y, x + w, y + h));
    }
    // Edges and corners on stored points: two stored points as corners.
    for _ in 0..4 {
        let a = points[rng.below(points.len() as u64) as usize];
        let b = points[rng.below(points.len() as u64) as usize];
        if a.0 != b.0 && a.1 != b.1 {
            out.push(rectangle(
                a.0.min(b.0),
                a.1.min(b.1),
                a.0.max(b.0),
                a.1.max(b.1),
            ));
        }
    }
    // Not rectangles: their envelopes hold points the shapes do not.
    let (x, y) = (coord(rng) / 2.0, coord(rng) / 2.0);
    out.push(format!(
        "POLYGON (({x} {y}, {} {y}, {x} {}, {x} {y}))",
        x + 15.0,
        y + 15.0
    ));
    out.push(format!(
        "POLYGON (({x} {y}, {a} {y}, {a} {b}, {c} {b}, {c} {d}, {x} {d}, {x} {y}))",
        a = x + 16.0,
        b = y + 4.0,
        c = x + 4.0,
        d = y + 16.0
    ));
    out.push(format!(
        "POLYGON (({x} {y}, {a} {y}, {a} {a2}, {x} {a2}, {x} {y}), ({h0} {k0}, {h1} {k0}, {h1} {k1}, {h0} {k1}, {h0} {k0}))",
        a = x + 16.0,
        a2 = y + 16.0,
        h0 = x + 4.0,
        h1 = x + 12.0,
        k0 = y + 4.0,
        k1 = y + 12.0
    ));
    out.push("POLYGON ((0 0, 10 0, 10".to_string());
    out
}

/// What `geof:op(a, b)` with `?g` on the `column_first` side says about a
/// stored object, by brute force: a non-geometry (or malformed) object
/// or constant is SPARQL's type error, which drops the row.
fn oracle(op: &str, column_first: bool, obj: &Term, constant: Option<&Geometry>) -> bool {
    let (Some(c), Term::Literal { lexical, datatype }) = (constant, obj) else {
        return false;
    };
    if datatype != ee_rdf::term::GEO_WKT {
        return false;
    }
    let Ok(g) = wkt::parse_wkt(lexical) else {
        return false;
    };
    let (a, b) = if column_first { (&g, c) } else { (c, &g) };
    match op {
        "sfIntersects" => algorithms::intersects(a, b),
        "sfContains" => algorithms::contains(a, b),
        _ => algorithms::within(a, b),
    }
}

/// Run every (constant, predicate, argument order) over `view`, with and
/// without pushdown, and over `visible` (the view's `e:geom` triples)
/// with the naive evaluator, and check each against the brute force.
/// Returns how many candidates the spatial index decided.
fn check_view(
    view: StoreView<'_>,
    visible: &[(Term, Term)],
    consts: &[String],
    label: &str,
) -> usize {
    let mut decided = 0;
    let geom = Term::iri(GEOM);
    let triples: Vec<(Term, Term, Term)> =
        visible.iter().map(|(s, o)| (s.clone(), geom.clone(), o.clone())).collect();
    let sorted = |rows: Vec<Vec<Option<Term>>>| {
        let mut got: Vec<Term> = rows.into_iter().map(|r| r[0].clone().unwrap()).collect();
        got.sort();
        got
    };
    for constant in consts {
        let parsed = wkt::parse_wkt(constant).ok();
        for op in OPS {
            for column_first in [true, false] {
                let lit = format!("\"{constant}\"^^geo:wktLiteral");
                let args = if column_first {
                    format!("?g, {lit}")
                } else {
                    format!("{lit}, ?g")
                };
                let q_text = format!(
                    "PREFIX e: <http://e/> SELECT ?s WHERE {{ ?s e:geom ?g . FILTER(geof:{op}({args})) }}"
                );
                let mut want: Vec<Term> = visible
                    .iter()
                    .filter(|(_, o)| oracle(op, column_first, o, parsed.as_ref()))
                    .map(|(s, _)| s.clone())
                    .collect();
                want.sort();
                let q = ee_rdf::parser::parse_query(&q_text).unwrap();
                let pushed = Arc::new(plan_view(view, &q).unwrap());
                let post = Arc::new(plan_without_pushdown(view, &q).unwrap());
                decided += pushed.filters[0].filter.decided().len();
                assert!(post.filters[0].filter.decided().is_empty(), "only the R-tree decides");
                for (arm, plan) in [("pushdown", &pushed), ("post-filter", &post)] {
                    for threads in [1, 3] {
                        let sols = execute_plan_view(view, Arc::clone(plan), threads).unwrap();
                        assert_eq!(sorted(sols.rows), want, "{label} {arm} t={threads}: {q_text}");
                    }
                }
                let naive = ee_rdf::naive::evaluate(&triples, &q).unwrap();
                assert_eq!(sorted(naive.rows), want, "{label} naive: {q_text}");
            }
        }
    }
    decided
}

fn features(rng: &mut Rng, n: usize) -> Vec<(Term, Term)> {
    (0..n).map(|i| (subject(i), object(rng))).collect()
}

fn grid_points(triples: &[(Term, Term)]) -> Vec<(f64, f64)> {
    triples
        .iter()
        .filter_map(|(_, o)| match o {
            Term::Literal { lexical, .. } => match wkt::parse_wkt(lexical) {
                Ok(Geometry::Point(p)) => Some((p.x, p.y)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

#[test]
fn compiled_spatial_filters_match_brute_force() {
    let mut decided = 0;
    for seed in 0..3u64 {
        let mut rng = Rng::seed_from(0xf17e + seed);
        let triples = features(&mut rng, 240);
        let consts = constants(&mut rng, &grid_points(&triples));
        let st = store(&triples);
        decided += check_view(StoreView::from(&st), &triples, &consts, &format!("seed {seed}"));
    }
    assert!(decided > 0, "no candidate was decided from its envelope");
}

#[test]
fn compiled_spatial_filters_match_brute_force_as_of() {
    let mut decided = 0;
    for seed in 0..2u64 {
        let mut rng = Rng::seed_from(0xa50f + seed);
        let base = features(&mut rng, 200);
        // Novelty adds: geometries interned only, never indexed, so the
        // view's overlay is the only path that surfaces them.
        let added: Vec<(Term, Term)> = (200..260).map(|i| (subject(i), object(&mut rng))).collect();
        let mut consts = constants(&mut rng, &grid_points(&base));
        consts.extend(constants(&mut rng, &grid_points(&added)));
        let mut st = store(&base);
        let geom = st.dict.intern(&Term::iri(GEOM));
        let add: Vec<IdTriple> = added
            .iter()
            .map(|(s, o)| (st.dict.intern(s), geom, st.dict.intern(o)))
            .collect();
        let hide: HashSet<IdTriple> = st.id_triples().step_by(4).collect();
        let visible: Vec<(Term, Term)> = st
            .id_triples()
            .filter(|t| !hide.contains(t))
            .chain(add.iter().copied())
            .map(|(s, _, o)| (st.dict.term(s).to_term(), st.dict.term(o).to_term()))
            .collect();
        let nov = Novelty::new(hide, add);
        let view = StoreView::with_novelty(&st, &nov);
        decided += check_view(view, &visible, &consts, &format!("as-of seed {seed}"));
    }
    assert!(decided > 0, "no candidate was decided from its envelope");
}
