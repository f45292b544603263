//! E2 — rectangular spatial selections over point data.
//!
//! Paper (§1): Strabon "can only handle up to 100 GBs of point data and
//! still be able to answer simple geospatial queries (selections over a
//! rectangular area) efficiently (in a few seconds)". We measure the
//! selection latency of the indexed (Strabon-style) store against a
//! naive nested-loop scan of the triple list ([`ee_rdf::naive`]) as the
//! point count grows — the shape that decides whether "a few seconds"
//! survives scale.

use crate::table::{fmt_secs, Table};
use crate::Scale;
use ee_rdf::exec::{execute_plan_view, Solutions};
use ee_rdf::term::Term;
use ee_rdf::{naive, parser, plan, TripleStore};
use ee_util::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Region side (degrees-like units).
const REGION: f64 = 100.0;

/// The triples of `n` point features: a type and a `POINT` geometry each.
pub fn point_triples(n: usize, seed: u64) -> Vec<(Term, Term, Term)> {
    let mut rng = Rng::seed_from(seed);
    let geom = Term::iri("http://e/hasGeometry");
    let kind = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    let feature = Term::iri("http://e/Feature");
    let mut triples = Vec::with_capacity(2 * n);
    for i in 0..n {
        let s = Term::iri(format!("http://e/f{i}"));
        let x = rng.range_f64(0.0, REGION);
        let y = rng.range_f64(0.0, REGION);
        triples.push((s.clone(), kind.clone(), feature.clone()));
        triples.push((s, geom.clone(), Term::wkt(format!("POINT ({x} {y})"))));
    }
    triples
}

/// An indexed store holding `triples`, spatial index built: the terms
/// are interned in triple order, then the id triples load as sorted runs
/// in one batch.
pub fn indexed_store(triples: &[(Term, Term, Term)]) -> TripleStore {
    let mut store = TripleStore::new();
    let dict = &mut store.dict;
    let ids = triples
        .iter()
        .map(|(s, p, o)| (dict.intern(s), dict.intern(p), dict.intern(o)))
        .collect();
    store.load_ids(ids);
    store.pack();
    store
}

/// The 1%-area rectangular selection query.
pub fn selection_query(x0: f64, y0: f64) -> String {
    let side = REGION / 10.0;
    let (x1, y1) = (x0 + side, y0 + side);
    format!(
        "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE {{ \
         ?s e:hasGeometry ?g . \
         FILTER(geof:sfWithin(?g, \"POLYGON (({x0} {y0}, {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))\"^^geo:wktLiteral)) }}"
    )
}

/// One arm of the comparison: how it answers a query.
pub enum Arm<'a> {
    /// Triple indexes with R-tree pushdown (Strabon-style).
    Pushdown(&'a TripleStore),
    /// The same indexes, spatial filters as plain post-filters (the
    /// ablation: [`plan::plan_without_pushdown`]).
    PostFilter(&'a TripleStore),
    /// The naive nested-loop evaluator over the triple list.
    Naive(&'a [(Term, Term, Term)]),
}

impl Arm<'_> {
    /// Answer `sparql`.
    pub fn query(&self, sparql: &str) -> Solutions {
        match self {
            Arm::Pushdown(store) => ee_rdf::exec::query(store, sparql).expect("selection query"),
            Arm::PostFilter(store) => {
                let q = parser::parse_query(sparql).expect("selection query parses");
                let plan = plan::plan_without_pushdown(*store, &q).expect("selection query plans");
                execute_plan_view(*store, Arc::new(plan), ee_util::par::available_threads())
                    .expect("selection query")
            }
            Arm::Naive(triples) => naive::query(triples, sparql).expect("selection query"),
        }
    }
}

/// Median selection latency (seconds) of `arm` over `reps` random
/// windows, plus each window's hit count.
pub fn measure(arm: &Arm<'_>, reps: usize, seed: u64) -> (f64, Vec<u64>) {
    let mut rng = Rng::seed_from(seed);
    let mut times = Vec::with_capacity(reps);
    let mut hits = Vec::with_capacity(reps);
    for _ in 0..reps {
        let x0 = rng.range_f64(0.0, REGION * 0.9);
        let y0 = rng.range_f64(0.0, REGION * 0.9);
        let q = selection_query(x0, y0);
        let t0 = Instant::now();
        let sol = arm.query(&q);
        times.push(t0.elapsed().as_secs_f64());
        hits.push(match sol.scalar() {
            Some(Term::Literal { lexical, .. }) => lexical.parse().expect("COUNT is an integer"),
            _ => 0, // no rows: nothing matched
        });
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (times[times.len() / 2], hits)
}

/// Mean of per-window hit counts.
pub fn mean(hits: &[u64]) -> f64 {
    hits.iter().sum::<u64>() as f64 / hits.len().max(1) as f64
}

/// Run E2. **Panics** if the three arms disagree on any window's hit
/// count at any size: the latency comparison is only meaningful between
/// arms that give the same answers.
pub fn run(scale: Scale) -> Vec<Table> {
    let (sizes, reps) = match scale {
        Scale::Quick => (vec![5_000usize, 20_000], 5usize),
        Scale::Full => (vec![10_000, 50_000, 200_000, 500_000], 9),
    };
    let mut table = Table::new(
        "E2 — rectangular selection latency vs point count",
        "Paper claim: a Strabon-class store answers rectangular selections over point data \
         'in a few seconds' up to ~100 GB; a naive store cannot. Three arms: triple \
         indexes with R-tree pushdown (Strabon-style), triple indexes with spatial \
         post-filtering only (the ablation), and a nested-loop scan of the triple list \
         (the naive baseline). All three must agree on every window's hit count.",
        &[
            "points",
            "indexed + pushdown",
            "indexed, post-filter",
            "naive scan",
            "pushdown speedup",
            "mean hits",
        ],
    );
    for &n in &sizes {
        let triples = point_triples(n, 7);
        let store = indexed_store(&triples);
        let (t_idx, hits) = measure(&Arm::Pushdown(&store), reps, 99);
        let (t_post, hits_post) = measure(&Arm::PostFilter(&store), reps, 99);
        let (t_scan, hits_scan) = measure(&Arm::Naive(&triples), reps, 99);
        assert_eq!(hits, hits_post, "E2 at {n} points: post-filter arm disagrees with pushdown");
        assert_eq!(hits, hits_scan, "E2 at {n} points: naive arm disagrees with pushdown");
        table.row(vec![
            n.to_string(),
            fmt_secs(t_idx),
            fmt_secs(t_post),
            fmt_secs(t_scan),
            format!("{:.1}x", t_scan / t_idx.max(1e-12)),
            format!("{:.0}", mean(&hits)),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_beats_scan() {
        let triples = point_triples(20_000, 1);
        let store = indexed_store(&triples);
        let (ti, hits_i) = measure(&Arm::Pushdown(&store), 3, 5);
        let (_, hits_p) = measure(&Arm::PostFilter(&store), 3, 5);
        let (ts, hits_s) = measure(&Arm::Naive(&triples), 3, 5);
        assert_eq!(hits_i, hits_s, "same answers");
        assert_eq!(hits_i, hits_p, "same answers");
        assert!(mean(&hits_i) > 0.0, "selections hit something");
        assert!(ts > ti, "index must win: {ts} vs {ti}");
    }

    #[test]
    fn quick_table_renders() {
        let tables = run(Scale::Quick);
        assert_eq!(tables[0].rows.len(), 2);
    }
}
