//! E-k6 — top-k fast paths and BM25-ranked catalogue search.
//!
//! Two sweeps, both with machine-checked identity:
//!
//! * **Top-k**: `ORDER BY ?v LIMIT k` over a value corpus of `n` rows,
//!   executed through the bounded-heap fast path
//!   ([`ee_rdf::exec::stream_plan_shared`] running the plan's `TopK`
//!   step) versus the forced full-sort oracle
//!   ([`ee_rdf::exec::stream_plan_baseline`], `Sort` + `Slice`). Every (n, k) point
//!   asserts the two row sets **bit-identical** — and identical to a
//!   third run through the collect API
//!   ([`ee_rdf::exec::execute_plan_view`]) — then records median
//!   latency and the executor's peak-resident-row high-water mark. The
//!   fast path should win on both axes once k ≪ n: O(n log k)
//!   comparisons against O(n log n), and O(k) resident rows against
//!   O(n).
//! * **BM25**: ranked catalogue search through the inverted index
//!   ([`ee_catalogue::Bm25Index`]) versus the exhaustive scan scorer
//!   ([`ee_catalogue::ScanSearcher`]) over the same synthetic archive,
//!   asserting identical hit lists (scores are accumulated in the same
//!   term order, so equality is exact, not approximate) and recording
//!   per-query median latency for both.
//!
//! The harness writes the whole thing to `BENCH_PR6.json`;
//! `scripts/verify.sh` greps for `"topk_identical": true`.

use crate::table::{fmt_secs, Table};
use crate::Scale;
use ee_catalogue::{Bm25Index, ProductGenerator, ScanSearcher};
use ee_geo::Envelope;
use ee_rdf::exec::{execute_plan_view, stream_plan_baseline, stream_plan_shared, Solutions};
use ee_rdf::plan::Plan;
use ee_rdf::term::Term;
use ee_rdf::TripleStore;
use ee_util::json::Json;
use ee_util::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Build the order-by corpus: `n` subjects each carrying one integer
/// `e:value` drawn from a range wide enough that duplicates are rare but
/// present (ties exercise the seq tie-break in the heap comparator).
pub fn value_store(n: usize, seed: u64) -> TripleStore {
    let mut store = TripleStore::new();
    let mut rng = Rng::seed_from(seed);
    let value = Term::iri("http://e/value");
    for i in 0..n {
        let s = Term::iri(format!("http://e/r{i}"));
        store.insert(&s, &value, &Term::integer(rng.range(0, (n / 2).max(2)) as i64));
    }
    store.pack();
    store
}

/// The sweep query: project subject + value, order by value, keep `k`.
pub fn topk_query(k: usize) -> String {
    format!(
        "PREFIX e: <http://e/> SELECT ?s ?v WHERE {{ ?s e:value ?v }} ORDER BY ?v LIMIT {k}"
    )
}

/// Execute `plan` with fast paths on (`fast = true`) or through the
/// oracle, returning the rows, the executor's peak resident rows, and
/// the wall-clock seconds of this single run.
fn run_once(
    store: &TripleStore,
    plan: &Arc<Plan>,
    threads: usize,
    fast: bool,
) -> (Solutions, u64, f64) {
    let t0 = Instant::now();
    let plan = Arc::clone(plan);
    let mut core = if fast {
        stream_plan_shared(store, plan, threads)
    } else {
        stream_plan_baseline(store, plan, threads)
    }
    .expect("plan executes");
    let sol = core.collect(store);
    let secs = t0.elapsed().as_secs_f64();
    (sol, core.peak_resident_rows(), secs)
}

/// Median of ≥1 raw timings.
fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// One sweep point: median latency and peak resident rows for the fast
/// path and the full-sort baseline, with the identity checks inside.
/// **Panics** on any divergence — the harness exit code is the contract.
pub fn measure_topk(
    store: &TripleStore,
    k: usize,
    threads: usize,
    reps: usize,
) -> TopKPoint {
    let q = ee_rdf::parser::parse_query(&topk_query(k)).expect("query parses");
    let plan = Arc::new(ee_rdf::plan::plan(store, &q).expect("query plans"));
    assert_eq!(plan.route(), "topk", "the sweep query must route through the bounded heap");
    let mut fast_times = Vec::with_capacity(reps);
    let mut sort_times = Vec::with_capacity(reps);
    let mut fast_peak = 0u64;
    let mut sort_peak = 0u64;
    let mut fast_rows = None;
    for _ in 0..reps.max(1) {
        let (sol, peak, secs) = run_once(store, &plan, threads, true);
        fast_times.push(secs);
        fast_peak = peak;
        fast_rows = Some(sol);
        let (sol, peak, secs) = run_once(store, &plan, threads, false);
        sort_times.push(secs);
        sort_peak = peak;
        let fast = fast_rows.as_ref().expect("just set");
        assert_eq!(
            *fast, sol,
            "top-k heap diverged from full sort at k={k}"
        );
    }
    // Cross-check against the collect API too: the entry point the
    // serving tier calls must agree with the streams drained above.
    let via_collect = execute_plan_view(store, Arc::clone(&plan), threads).expect("collect");
    let fast = fast_rows.expect("reps >= 1");
    assert_eq!(via_collect, fast, "execute_plan_view diverged from drained stream");
    TopKPoint {
        k,
        rows: fast.len(),
        topk_secs: median(fast_times),
        full_sort_secs: median(sort_times),
        topk_peak_rows: fast_peak,
        full_sort_peak_rows: sort_peak,
    }
}

/// One measured (n, k) point of the top-k sweep.
#[derive(Debug, Clone)]
pub struct TopKPoint {
    /// The LIMIT.
    pub k: usize,
    /// Rows actually returned (`min(k, n)`).
    pub rows: usize,
    /// Median seconds through the bounded heap.
    pub topk_secs: f64,
    /// Median seconds through the forced full sort.
    pub full_sort_secs: f64,
    /// Executor peak resident rows, heap path.
    pub topk_peak_rows: u64,
    /// Executor peak resident rows, full-sort path.
    pub full_sort_peak_rows: u64,
}

/// The BM25 stage: build both searchers over `n_products`, run the query
/// set through each, assert identical hits, and report median per-query
/// latency. **Panics** on divergence.
pub fn measure_bm25(n_products: usize, reps: usize) -> Bm25Point {
    let region = Envelope::new(0.0, 0.0, 40.0, 40.0);
    let products = ProductGenerator::new(region, 2017, 0xb25).take(n_products);
    let t0 = Instant::now();
    let index = Bm25Index::build_products(&products);
    let index_build_secs = t0.elapsed().as_secs_f64();
    let scan = ScanSearcher::build(products.iter().map(|p| p.search_text()));
    let queries = [
        "sentinel-2 surface reflectance clear sky",
        "radar ground range detected winter",
        "ocean colour full resolution",
        "single look complex january",
        "level-1c scattered clouds summer",
        "sentinel-1 c-band autumn",
    ];
    let k = 10;
    let mut index_times = Vec::new();
    let mut scan_times = Vec::new();
    for _ in 0..reps.max(1) {
        for q in queries {
            let t0 = Instant::now();
            let via_index = index.search(q, k);
            index_times.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let via_scan = scan.search(q, k);
            scan_times.push(t0.elapsed().as_secs_f64());
            assert_eq!(
                via_index, via_scan,
                "BM25 index diverged from the scan scorer on {q:?}"
            );
            assert!(!via_index.is_empty(), "query {q:?} must match something");
        }
    }
    Bm25Point {
        products: n_products,
        queries: queries.len(),
        index_build_secs,
        index_p50_secs: median(index_times),
        scan_p50_secs: median(scan_times),
    }
}

/// One measured corpus size of the BM25 stage.
#[derive(Debug, Clone)]
pub struct Bm25Point {
    /// Products indexed.
    pub products: usize,
    /// Distinct queries in the set.
    pub queries: usize,
    /// Seconds to build the inverted index.
    pub index_build_secs: f64,
    /// Median per-query seconds through the index.
    pub index_p50_secs: f64,
    /// Median per-query seconds through the exhaustive scan.
    pub scan_p50_secs: f64,
}

/// Run E-k6, returning the printed tables and the `BENCH_PR6.json`
/// artifact. Identity failures panic, so a bad heap or scorer makes the
/// harness exit non-zero.
pub fn report(scale: Scale) -> (Vec<Table>, Json) {
    let threads = ee_util::par::available_threads();
    let (n, ks, reps, bm25_sizes) = match scale {
        Scale::Quick => (
            20_000usize,
            vec![1usize, 10, 100, 1_000],
            3usize,
            vec![2_000usize, 10_000],
        ),
        Scale::Full => (
            200_000,
            vec![1, 10, 100, 1_000, 10_000],
            5,
            vec![10_000, 50_000],
        ),
    };

    let store = value_store(n, 0x6e6);
    let mut topk_table = Table::new(
        "E-k6a — ORDER BY ?v LIMIT k: bounded heap vs full sort",
        "The same prepared plan executed through the top-k fast path (per-chunk \
         bounded heaps merged in fixed order) and through the forced global sort. \
         Rows are asserted bit-identical every repetition; peak-resident rows is \
         the executor's high-water mark, the memory side of the win.",
        &[
            "rows n",
            "k",
            "top-k median",
            "full-sort median",
            "speedup",
            "top-k peak rows",
            "full-sort peak rows",
        ],
    );
    let mut sweep_json = Vec::new();
    for &k in &ks {
        let p = measure_topk(&store, k, threads, reps);
        let speedup = p.full_sort_secs / p.topk_secs.max(1e-12);
        topk_table.row(vec![
            n.to_string(),
            k.to_string(),
            fmt_secs(p.topk_secs),
            fmt_secs(p.full_sort_secs),
            format!("{speedup:.2}x"),
            p.topk_peak_rows.to_string(),
            p.full_sort_peak_rows.to_string(),
        ]);
        sweep_json.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("k", Json::Num(k as f64)),
            ("rows", Json::Num(p.rows as f64)),
            ("topk_secs", Json::Num(p.topk_secs)),
            ("full_sort_secs", Json::Num(p.full_sort_secs)),
            ("speedup", Json::Num(speedup)),
            ("topk_peak_rows", Json::Num(p.topk_peak_rows as f64)),
            (
                "full_sort_peak_rows",
                Json::Num(p.full_sort_peak_rows as f64),
            ),
        ]));
    }

    let mut bm25_table = Table::new(
        "E-k6b — ranked catalogue search: BM25 index vs exhaustive scan",
        "Top-10 ranked retrieval over the synthetic product archive through the \
         inverted index and through the full-scan scorer. Hit lists (doc ids \
         *and* scores) are asserted identical — both accumulate f64 partial \
         scores in the same deduplicated query-term order.",
        &[
            "products",
            "index build",
            "index p50/query",
            "scan p50/query",
            "speedup",
        ],
    );
    let mut bm25_json = Vec::new();
    for &size in &bm25_sizes {
        let p = measure_bm25(size, reps);
        let speedup = p.scan_p50_secs / p.index_p50_secs.max(1e-12);
        bm25_table.row(vec![
            size.to_string(),
            fmt_secs(p.index_build_secs),
            fmt_secs(p.index_p50_secs),
            fmt_secs(p.scan_p50_secs),
            format!("{speedup:.2}x"),
        ]);
        bm25_json.push(Json::obj(vec![
            ("products", Json::Num(p.products as f64)),
            ("queries", Json::Num(p.queries as f64)),
            ("index_build_secs", Json::Num(p.index_build_secs)),
            ("index_p50_secs", Json::Num(p.index_p50_secs)),
            ("scan_p50_secs", Json::Num(p.scan_p50_secs)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    let json = Json::obj(vec![
        ("bench", Json::Str("pr6-topk-ranked".to_string())),
        (
            "scale",
            Json::Str(if scale == Scale::Full { "full" } else { "quick" }.to_string()),
        ),
        (
            "host_threads",
            Json::Num(ee_util::par::available_threads() as f64),
        ),
        // Both flags are load-bearing: reaching this point means every
        // per-point assert above passed.
        ("topk_identical", Json::Bool(true)),
        ("bm25_identical", Json::Bool(true)),
        ("topk_sweep", Json::Arr(sweep_json)),
        ("bm25_ranked", Json::Arr(bm25_json)),
    ]);
    (vec![topk_table, bm25_table], json)
}

/// Run E-k6 (tables only; the harness calls [`report`] for the artifact).
pub fn run(scale: Scale) -> Vec<Table> {
    report(scale).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_point_is_identical_and_bounded() {
        // n must exceed the executor's per-pull row budget or the first
        // pull drains the whole corpus and the peaks tie.
        let store = value_store(10_000, 9);
        let p = measure_topk(&store, 25, 2, 1);
        assert_eq!(p.rows, 25);
        assert!(
            p.topk_peak_rows < p.full_sort_peak_rows,
            "heap must hold fewer rows: {} vs {}",
            p.topk_peak_rows,
            p.full_sort_peak_rows
        );
        assert_eq!(p.full_sort_peak_rows, 10_000, "sort drains everything");
    }

    #[test]
    fn k_past_n_still_agrees() {
        let store = value_store(200, 3);
        let p = measure_topk(&store, 5_000, 1, 1);
        assert_eq!(p.rows, 200, "LIMIT past n returns everything");
    }

    #[test]
    fn bm25_point_measures_both_searchers() {
        let p = measure_bm25(400, 1);
        assert_eq!(p.products, 400);
        assert!(p.index_p50_secs > 0.0 && p.scan_p50_secs > 0.0);
    }

    #[test]
    fn report_emits_tables_and_artifact() {
        let (tables, json) = report(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 4, "four k points at quick scale");
        assert_eq!(json.get("topk_identical"), Some(&Json::Bool(true)));
        assert_eq!(json.get("bm25_identical"), Some(&Json::Bool(true)));
    }
}
