//! E3 — selection latency vs geometry complexity, and BGP join latency
//! vs thread count.
//!
//! Paper (§1): "If the complexity of geometries in the dataset increases
//! (i.e., we have multi-polygons), not even the aforementioned
//! performance can be achieved for both Strabon and GraphDB." We grow the
//! per-feature vertex count from points to heavy multipolygons and watch
//! the refinement cost eat the index advantage.
//!
//! The second table sweeps the executor's thread count over a join-heavy
//! query on the same corpus: every run is asserted **bit-identical** to
//! the serial (t=1) answer — the parallel-joins contract — and the
//! speedup curve is written to `BENCH_PR3.json` by the harness.

use crate::e2_selection::{indexed_store, measure, Arm};
use crate::table::{fmt_secs, Table};
use crate::Scale;
use ee_rdf::term::Term;
use ee_rdf::TripleStore;
use ee_util::json::Json;
use ee_util::Rng;
use std::time::Instant;

const REGION: f64 = 100.0;

/// The geometry classes of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeomClass {
    /// Plain points.
    Point,
    /// Single polygons with `usize` vertices.
    Polygon(usize),
    /// Multipolygons: 4 parts × `usize` vertices each.
    MultiPolygon(usize),
}

impl GeomClass {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            GeomClass::Point => "POINT".into(),
            GeomClass::Polygon(v) => format!("POLYGON ({v} vtx)"),
            GeomClass::MultiPolygon(v) => format!("MULTIPOLYGON (4 × {v} vtx)"),
        }
    }

    /// Vertex count per feature.
    pub fn vertices(&self) -> usize {
        match self {
            GeomClass::Point => 1,
            GeomClass::Polygon(v) => v + 1,
            GeomClass::MultiPolygon(v) => 4 * (v + 1),
        }
    }
}

fn regular_ring(cx: f64, cy: f64, radius: f64, vertices: usize) -> String {
    let pts: Vec<String> = (0..=vertices)
        .map(|i| {
            let theta = i as f64 / vertices as f64 * std::f64::consts::TAU;
            format!("{} {}", cx + radius * theta.cos(), cy + radius * theta.sin())
        })
        .collect();
    format!("({})", pts.join(", "))
}

/// The triples of `n` features of the given geometry class, one
/// geometry each.
pub fn geometry_triples(n: usize, class: GeomClass, seed: u64) -> Vec<(Term, Term, Term)> {
    let mut rng = Rng::seed_from(seed);
    let geom = Term::iri("http://e/hasGeometry");
    let mut triples = Vec::with_capacity(n);
    for i in 0..n {
        let s = Term::iri(format!("http://e/f{i}"));
        let cx = rng.range_f64(2.0, REGION - 2.0);
        let cy = rng.range_f64(2.0, REGION - 2.0);
        let wkt = match class {
            GeomClass::Point => format!("POINT ({cx} {cy})"),
            GeomClass::Polygon(v) => format!("POLYGON {}", {
                let ring = regular_ring(cx, cy, rng.range_f64(0.3, 1.2), v);
                format!("({ring})")
            }),
            GeomClass::MultiPolygon(v) => {
                let parts: Vec<String> = (0..4)
                    .map(|k| {
                        let dx = (k % 2) as f64 * 2.5;
                        let dy = (k / 2) as f64 * 2.5;
                        let ring =
                            regular_ring(cx + dx, cy + dy, rng.range_f64(0.3, 1.0), v);
                        format!("(({}))", &ring[1..ring.len() - 1])
                    })
                    .collect();
                format!("MULTIPOLYGON ({})", parts.join(", "))
            }
        };
        triples.push((s, geom.clone(), Term::wkt(wkt)));
    }
    triples
}

/// Build the join-heavy corpus for the threads sweep: each feature gets
/// a type, a class (1-in-8 is "crop" — the selective seed pattern), a
/// name, and a heavy multipolygon geometry (4 × 33 vertices), so the
/// query below joins four patterns and then pays real per-row spatial
/// refinement — the E3 regime where the paper's engines fall over.
pub fn join_store(n: usize, seed: u64) -> TripleStore {
    let mut store = TripleStore::new();
    let mut rng = Rng::seed_from(seed);
    let geom = Term::iri("http://e/hasGeometry");
    let kind = Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
    let feature = Term::iri("http://e/Feature");
    let class = Term::iri("http://e/class");
    let name = Term::iri("http://e/name");
    let classes = [
        "crop", "forest", "water", "urban", "bare", "snow", "wetland", "shrub",
    ];
    for i in 0..n {
        let s = Term::iri(format!("http://e/f{i}"));
        let cx = rng.range_f64(2.0, REGION - 2.0);
        let cy = rng.range_f64(2.0, REGION - 2.0);
        let parts: Vec<String> = (0..4)
            .map(|k| {
                let dx = (k % 2) as f64 * 2.5;
                let dy = (k / 2) as f64 * 2.5;
                let ring = regular_ring(cx + dx, cy + dy, rng.range_f64(0.3, 1.0), 32);
                format!("(({}))", &ring[1..ring.len() - 1])
            })
            .collect();
        store.insert(&s, &kind, &feature);
        store.insert(&s, &class, &Term::string(classes[i % classes.len()]));
        store.insert(&s, &name, &Term::string(format!("feature {i}")));
        store.insert(
            &s,
            &geom,
            &Term::wkt(format!("MULTIPOLYGON ({})", parts.join(", "))),
        );
    }
    store.pack();
    store
}

/// The threads-sweep query: seed on the selective class pattern, join
/// three more patterns per feature, then refine every candidate
/// multipolygon against a region covering a quarter of the extent.
pub fn join_query() -> String {
    let half = REGION / 2.0;
    format!(
        "PREFIX e: <http://e/> \
         SELECT ?s ?n WHERE {{ \
         ?s e:class \"crop\" . \
         ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> e:Feature . \
         ?s e:name ?n . \
         ?s e:hasGeometry ?g . \
         FILTER(geof:sfIntersects(?g, \"POLYGON ((0 0, {half} 0, {half} {half}, 0 {half}, 0 0))\"^^geo:wktLiteral)) }} \
         ORDER BY ?s"
    )
}

/// Thread counts to sweep: powers of two up to `max`, plus `max` itself.
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut out: Vec<usize> = (0..)
        .map(|i| 1usize << i)
        .take_while(|t| *t <= max)
        .collect();
    if *out.last().expect("non-empty") != max {
        out.push(max);
    }
    out
}

/// Median latency (seconds) of the join query at `threads`, plus the
/// solutions of the last run (for identity checks).
pub fn measure_join(
    store: &TripleStore,
    threads: usize,
    reps: usize,
) -> (f64, ee_rdf::exec::Solutions) {
    let q = join_query();
    let mut times = Vec::with_capacity(reps);
    let mut sol = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let parsed = ee_rdf::parser::parse_query(&q).expect("join query parses");
        let plan = ee_rdf::plan::plan(store, &parsed).expect("join query plans");
        let s = ee_rdf::exec::execute_plan_view(store, std::sync::Arc::new(plan), threads)
            .expect("join query");
        times.push(t0.elapsed().as_secs_f64());
        sol = Some(s);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (times[times.len() / 2], sol.expect("reps >= 1"))
}

/// Run E3 with the join-speedup sweep, returning the printed tables and
/// the `BENCH_PR3.json` artifact. **Aborts** (panics) if any parallel
/// run diverges from the serial answer — the harness exit code is the
/// divergence check `verify.sh` relies on.
pub fn report(scale: Scale, max_threads: usize) -> (Vec<Table>, Json) {
    let mut tables = complexity_tables(scale);

    let (n, reps) = match scale {
        Scale::Quick => (6_000usize, 3usize),
        Scale::Full => (40_000, 7),
    };
    let store = join_store(n, 17);
    let mut table = Table::new(
        "E3b — BGP join latency vs executor threads",
        "A 4-pattern join + spatial refinement over the E3 corpus, executed by the \
         plan/batch/join pipeline at rising thread counts. Every row's answer is \
         asserted bit-identical to the serial run; speedup is t(serial) / t(threads) \
         and is bounded by the host's core count (recorded in BENCH_PR3.json).",
        &["threads", "median", "speedup vs serial", "rows"],
    );
    let sweep = thread_sweep(max_threads);
    let mut serial_time = 0.0f64;
    let mut serial_sol: Option<ee_rdf::exec::Solutions> = None;
    let mut curve = Vec::new();
    for &t in &sweep {
        let (secs, sol) = measure_join(&store, t, reps);
        match &serial_sol {
            None => {
                serial_time = secs;
                serial_sol = Some(sol.clone());
            }
            Some(base) => assert_eq!(
                *base, sol,
                "parallel executor diverged from serial at t={t}"
            ),
        }
        let speedup = serial_time / secs.max(1e-12);
        table.row(vec![
            t.to_string(),
            fmt_secs(secs),
            format!("{speedup:.2}x"),
            sol.len().to_string(),
        ]);
        curve.push(Json::obj(vec![
            ("threads", Json::Num(t as f64)),
            ("secs", Json::Num(secs)),
            ("speedup_vs_serial", Json::Num(speedup)),
            ("rows", Json::Num(sol.len() as f64)),
        ]));
    }
    tables.push(table);

    let json = Json::obj(vec![
        ("bench", Json::Str("pr3-parallel-joins".to_string())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.to_string()),
        ),
        (
            "host_threads",
            Json::Num(ee_util::par::available_threads() as f64),
        ),
        ("corpus_features", Json::Num(n as f64)),
        ("query", Json::Str(join_query())),
        ("serial_identical", Json::Bool(true)),
        ("join_speedup_curve", Json::Arr(curve)),
    ]);
    (tables, json)
}

/// Run E3 (complexity sweep only — the harness calls [`report`] to get
/// the threads table and JSON artifact as well).
pub fn run(scale: Scale) -> Vec<Table> {
    complexity_tables(scale)
}

/// The complexity sweep. **Panics** if the pushdown, post-filter and
/// naive arms disagree on any window's hit count for any geometry class
/// (the post-filter arm is checked, not tabulated).
fn complexity_tables(scale: Scale) -> Vec<Table> {
    let (n, reps) = match scale {
        Scale::Quick => (3_000usize, 3usize),
        Scale::Full => (20_000, 7),
    };
    let classes = [
        GeomClass::Point,
        GeomClass::Polygon(8),
        GeomClass::Polygon(64),
        GeomClass::MultiPolygon(16),
        GeomClass::MultiPolygon(64),
    ];
    let mut table = Table::new(
        "E3 — selection latency vs geometry complexity",
        "Paper claim: performance degrades once geometries become multi-polygons. \
         Same rectangular selection as E2 over equal feature counts of rising complexity; \
         the naive arm is E2's nested-loop scan, and every arm (E2's post-filter one too) \
         must agree on every hit count.",
        &[
            "geometry class",
            "vertices/feature",
            "indexed median",
            "naive scan median",
            "indexed slowdown vs points",
        ],
    );
    let mut point_base: Option<f64> = None;
    for class in classes {
        let triples = geometry_triples(n, class, 11);
        let indexed = indexed_store(&triples);
        let (ti, hits) = measure(&Arm::Pushdown(&indexed), reps, 31);
        let (_, hits_post) = measure(&Arm::PostFilter(&indexed), reps, 31);
        let (ts, hits_scan) = measure(&Arm::Naive(&triples), reps, 31);
        assert_eq!(hits, hits_post, "E3 {}: post-filter arm disagrees with pushdown", class.label());
        assert_eq!(hits, hits_scan, "E3 {}: naive arm disagrees with pushdown", class.label());
        let base = *point_base.get_or_insert(ti);
        table.row(vec![
            class.label(),
            class.vertices().to_string(),
            fmt_secs(ti),
            fmt_secs(ts),
            format!("{:.1}x", ti / base.max(1e-12)),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vertices the refinement step tests over E2's seeded selection
    /// windows: the vertex count of every R-tree candidate. Selection
    /// latency follows this count, which, unlike a debug-build wall time
    /// under parallel test load, repeats exactly.
    fn vertices_refined(store: &TripleStore, reps: usize, seed: u64) -> usize {
        let mut rng = Rng::seed_from(seed);
        let side = REGION / 10.0; // E2's 1%-area window
        (0..reps)
            .map(|_| {
                let x0 = rng.range_f64(0.0, REGION * 0.9);
                let y0 = rng.range_f64(0.0, REGION * 0.9);
                let window = ee_geo::Envelope::new(x0, y0, x0 + side, y0 + side);
                store
                    .spatial_candidates(&window)
                    .iter()
                    .map(|&id| {
                        let g = store
                            .dict
                            .geometry_of(id)
                            .expect("candidates are geometries");
                        g.num_vertices()
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    #[test]
    fn complexity_increases_latency() {
        let n = 2_000;
        let pts = indexed_store(&geometry_triples(n, GeomClass::Point, 1));
        let heavy = indexed_store(&geometry_triples(n, GeomClass::MultiPolygon(64), 1));
        let (vp, vh) = (vertices_refined(&pts, 3, 5), vertices_refined(&heavy, 3, 5));
        assert!(vp > 0, "the windows hit some points");
        assert!(
            vh > vp,
            "multipolygon refinement must cost more: {vh} vs {vp} vertices"
        );
    }

    #[test]
    fn stores_hold_valid_geometries() {
        let st = indexed_store(&geometry_triples(50, GeomClass::MultiPolygon(16), 2));
        assert_eq!(st.dict.num_geometries(), 50, "all WKT parsed");
        let st2 = indexed_store(&geometry_triples(50, GeomClass::Polygon(8), 2));
        assert_eq!(st2.dict.num_geometries(), 50);
    }

    #[test]
    fn quick_table_has_all_classes() {
        let t = run(Scale::Quick);
        assert_eq!(t[0].rows.len(), 5);
    }

    #[test]
    fn thread_sweep_covers_powers_of_two_and_max() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(4), vec![1, 2, 4]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(0), vec![1], "clamped to serial");
    }

    #[test]
    fn join_sweep_is_bit_identical_across_threads() {
        let store = join_store(1_500, 3);
        let (_, serial) = measure_join(&store, 1, 1);
        assert!(!serial.is_empty(), "join query matches something");
        for t in [2, 4, 8] {
            let (_, par) = measure_join(&store, t, 1);
            assert_eq!(serial, par, "t={t} must match serial");
        }
    }

    #[test]
    fn report_emits_threads_table_and_curve() {
        let (tables, json) = report(Scale::Quick, 2);
        let threads_table = tables.last().expect("threads table");
        assert_eq!(threads_table.rows.len(), 2, "t=1 and t=2");
        let curve = json.get("join_speedup_curve").expect("curve in artifact");
        match curve {
            Json::Arr(points) => assert_eq!(points.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
    }
}
