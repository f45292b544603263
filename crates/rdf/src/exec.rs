//! The query executor: a thin driver over the staged engine.
//!
//! Pipeline: [`crate::plan::plan`] (constant resolution, static greedy
//! join order, filter placement, spatial pushdown) → [`crate::join`]
//! pull-based physical operators over columnar [`crate::batch::Batch`]es
//! (parallel, bit-identical to serial) → OPTIONAL left-joins → residual
//! filters → grouping / aggregation → DISTINCT / ORDER / LIMIT → term
//! materialisation.
//!
//! The non-aggregate, non-ORDER-BY path is fully pipelined: nothing runs
//! until [`StreamCore::next_batch`] pulls, and producing a batch touches
//! O(batch) probe rows. Grouping/aggregation and ORDER BY are inherently
//! blocking (every input row feeds the result), so those paths drain the
//! pipeline eagerly up front and stream only the drained rows.
//!
//! Within the blocking family, [`crate::plan::FastPath`] routes the
//! common shapes onto cheaper physical forms — all bit-identical to the
//! generic routes they replace:
//!
//! * **Top-k** (`ORDER BY ?v LIMIT k`, ± OFFSET, no DISTINCT): a bounded
//!   max-heap of size `k + offset` fed by the pipeline — O(n log k)
//!   comparisons, O(batch + k) resident rows, no global sort.
//! * **Fast count** (`COUNT(*)` / `COUNT(?v)`, no GROUP BY): rows are
//!   counted column-wise off the pipeline, never materialised as terms.
//! * **Group count** (GROUP BY whose aggregates are all COUNTs): a
//!   single-pass id-keyed counter table replaces materialise-then-group.
//!
//! One way to run a plan, over a head `&TripleStore` and an `AS OF`
//! [`StoreView`] alike:
//!
//! * [`stream_plan_shared`] builds a [`StreamCore`] for a prepared
//!   [`Plan`], and [`StreamCore::drain_batch`] hands its result rows, a
//!   batch at a time, to a callback as terms borrowed from the same store
//!   or view — the one drain; [`StreamCore::next_batch`] and
//!   [`StreamCore::collect`] are its owned wrappers;
//! * [`execute_plan_view`] collects every batch into [`Solutions`]
//!   through [`StreamCore::collect`];
//! * [`query`] parses, plans and collects at the ambient thread count;
//! * [`stream_plan_baseline`] is the oracle: the same builder with every
//!   fast path demoted to the generic route it replaces, for the
//!   equivalence tests and the E-k6 harness.

use crate::batch::{Batch, UNBOUND};
use crate::parser::{AggFunc, SelectItem};
use crate::plan::{FastPath, Plan};
use crate::store::{StoreView, TripleStore};
use crate::term::{decode_non_geometry, Term, Value};
use crate::{join, RdfError};
use ee_util::par;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Query solutions: a header of variable names and rows of optional terms
/// (unbound OPTIONAL variables are `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Solutions {
    /// Projected variable names, in order.
    pub vars: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a one-row one-column result (aggregates).
    pub fn scalar(&self) -> Option<&Term> {
        match (self.rows.len(), self.vars.len()) {
            (1, 1) => self.rows[0][0].as_ref(),
            _ => None,
        }
    }

    /// Column index of a variable. Resolve once and index rows directly;
    /// plans resolve their own columns at plan time.
    pub fn column(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }
}

/// Parse, plan and execute a query against a store at the ambient thread
/// count.
pub fn query(store: &TripleStore, sparql: &str) -> Result<Solutions, RdfError> {
    let q = crate::parser::parse_query(sparql)?;
    let plan = crate::plan::plan(store, &q)?;
    execute_plan_view(store, Arc::new(plan), par::available_threads())
}

/// Execute a prepared [`Plan`] and collect every row. `store` is a head
/// `&TripleStore` or a versioned [`StoreView`]; the plan must have been
/// built against the same one ([`crate::plan::plan`] /
/// [`crate::plan::plan_view`]). `threads = 1` is fully serial; any other
/// count produces bit-identical results. The plan may be reused across
/// calls and shared between threads while that store is unchanged.
/// Collecting under one borrow of the store answers the whole query
/// against one snapshot; the rows are the concatenation of the
/// [`stream_plan_shared`] batches by construction.
pub fn execute_plan_view<'s>(
    store: impl Into<StoreView<'s>>,
    plan: Arc<Plan>,
    threads: usize,
) -> Result<Solutions, RdfError> {
    let view = store.into();
    Ok(stream_plan_shared(view, plan, threads)?.collect(view))
}

/// Rows per batch yielded by [`StreamCore::drain_batch`]. Small enough
/// that a `/query` consumer sees the first bytes before the last row is
/// materialised; big enough to amortise the per-batch bookkeeping.
pub const STREAM_BATCH_ROWS: usize = 256;

/// Where a [`StreamCore`] is in its life: pulling id rows straight off
/// the live join pipeline (the fully-streamed path), draining id rows
/// that had to be sorted up front (ORDER BY), or draining term rows that
/// had to be computed eagerly (grouping needs every input row).
enum Phase {
    /// Non-aggregate, non-ORDER path: the pull-based pipeline, with the
    /// columnar batch of its last pull and the next row to read there.
    /// Nothing has run yet when a `StreamCore` is built in this phase;
    /// each [`StreamCore::drain_batch`] does O(batch) join work.
    Stream {
        pipe: join::Pipeline,
        buf: Batch,
        pos: usize,
    },
    /// ORDER BY path: id rows globally sorted up front (sorting is
    /// blocking), materialised [`STREAM_BATCH_ROWS`] at a time.
    Ids(std::vec::IntoIter<Vec<Option<u64>>>),
    /// Aggregate/grouped path: fully processed term rows and the next one
    /// to hand out, drained in batches (groups are few — the expensive
    /// part was the join).
    Rows { rows: Vec<Vec<Option<Term>>>, pos: usize },
}

impl Phase {
    /// Read the next id row's `cols` into `key` (unbound as `None`);
    /// `false` once the id rows run dry. Id phases only.
    fn next_ids(&mut self, store: StoreView<'_>, cols: &[usize], key: &mut Vec<Option<u64>>) -> bool {
        key.clear();
        match self {
            Phase::Ids(it) => match it.next() {
                Some(row) => key.extend(cols.iter().map(|&c| row[c])),
                None => return false,
            },
            Phase::Stream { pipe, buf, pos } => {
                if *pos == buf.len() {
                    *buf = pipe.next_rows(store, STREAM_BATCH_ROWS);
                    *pos = 0;
                    if buf.is_empty() {
                        return false;
                    }
                }
                key.extend(cols.iter().map(|&c| Some(buf.get(*pos, c)).filter(|&id| id != UNBOUND)));
                *pos += 1;
            }
            Phase::Rows { .. } => unreachable!("term rows are not id rows"),
        }
        true
    }
}

/// Incremental query results. On the non-aggregate, non-ORDER-BY path
/// the join pipeline itself is pull-based: each
/// [`next_batch`](StreamCore::next_batch) call runs only enough probe
/// work to fill one batch, so memory stays O(batch) and a slow consumer
/// pauses the joins instead of buffering them. Grouping and ORDER BY are
/// blocking and run eagerly at build time (documented on
/// [`stream_plan_shared`]).
///
/// Owns no borrows — the store is passed to each `next_batch` call — so
/// a serving tier can park a `StreamCore` inside a response object next
/// to an `Arc` of the store without self-referential lifetimes.
pub struct StreamCore {
    vars: Vec<String>,
    /// Projected columns of the id phases.
    projection: Vec<usize>,
    phase: Phase,
    /// DISTINCT dedup keys seen so far — projected dictionary ids, not
    /// stringified terms (ids and terms are bijective through the
    /// dictionary, so the semantics are identical and no per-row string
    /// allocation happens). Persistent across batches.
    seen: Option<HashSet<Vec<Option<u64>>>>,
    /// OFFSET rows still to skip (counted after DISTINCT).
    to_skip: usize,
    /// LIMIT rows still to emit (`None` = unlimited).
    remaining: Option<usize>,
    /// Probe rows touched by an eager (aggregate/ORDER) build; the
    /// streamed phase reads its pipeline's live counter instead.
    touched_eager: u64,
    /// Peak resident rows of an eager build (the whole drained set).
    peak_eager: u64,
}

impl StreamCore {
    /// Projected variable names, in order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Probe rows touched so far: raw seed matches scanned plus rows
    /// consumed by every pipeline stage. On the streamed path this grows
    /// with each pulled batch — the acceptance metric for "first batch
    /// touches O(batch) rows". Eager paths report the full drain.
    pub fn rows_touched(&self) -> u64 {
        match &self.phase {
            Phase::Stream { pipe, .. } => pipe.rows_touched(),
            _ => self.touched_eager,
        }
    }

    /// High-water mark of rows resident in the executor at once: stage
    /// buffers for the streamed path, the whole materialised row set for
    /// the eager (aggregate/ORDER) paths.
    pub fn peak_resident_rows(&self) -> u64 {
        match &self.phase {
            Phase::Stream { pipe, .. } => pipe.peak_resident_rows(),
            _ => self.peak_eager,
        }
    }

    /// Hand the next batch of up to [`STREAM_BATCH_ROWS`] result rows to
    /// `row`, one call per row, as terms borrowed from `store` (or from
    /// this stream's own aggregate rows): no term is cloned and no row
    /// allocated. Returns how many rows were handed over; `0` means the
    /// stream is exhausted (or LIMIT was reached). `store` must be the
    /// store or view the stream was built from (same base store, same
    /// novelty overlay).
    pub fn drain_batch<'s>(
        &mut self,
        store: impl Into<StoreView<'s>>,
        mut row: impl FnMut(&[Option<&Term>]),
    ) -> usize {
        let store = store.into();
        let mut n = 0;
        if let Phase::Rows { rows, pos } = &mut self.phase {
            // Aggregate rows are already terms.
            let mut cells = Vec::new();
            while n < STREAM_BATCH_ROWS && self.remaining != Some(0) {
                let Some(r) = rows.get(*pos) else { break };
                *pos += 1;
                if self.to_skip > 0 {
                    self.to_skip -= 1;
                    continue;
                }
                cells.clear();
                cells.extend(r.iter().map(Option::as_ref));
                row(&cells);
                n += 1;
                if let Some(rem) = &mut self.remaining {
                    *rem -= 1;
                }
            }
            return n;
        }
        // The id phases project, dedup and skip on dictionary ids and
        // resolve terms last. DISTINCT and OFFSET may eat whole input
        // chunks, so pull until a batch fills or input runs dry.
        let dict = store.dict();
        let (mut key, mut cells) = (Vec::new(), Vec::new());
        while n < STREAM_BATCH_ROWS && self.remaining != Some(0) {
            if !self.phase.next_ids(store, &self.projection, &mut key) {
                break;
            }
            if let Some(seen) = &mut self.seen {
                if !seen.insert(key.clone()) {
                    continue;
                }
            }
            if self.to_skip > 0 {
                self.to_skip -= 1;
                continue;
            }
            cells.clear();
            cells.extend(key.iter().map(|id| id.map(|id| dict.term(id))));
            row(&cells);
            n += 1;
            if let Some(rem) = &mut self.remaining {
                *rem -= 1;
            }
        }
        n
    }

    /// [`drain_batch`](StreamCore::drain_batch) into owned rows: the next
    /// batch, or `None` when the stream is exhausted (or LIMIT was
    /// reached).
    pub fn next_batch<'s>(
        &mut self,
        store: impl Into<StoreView<'s>>,
    ) -> Option<Vec<Vec<Option<Term>>>> {
        let mut out = Vec::new();
        let n = self.drain_batch(store, |row| out.push(row.iter().map(|t| t.cloned()).collect()));
        (n > 0).then_some(out)
    }

    /// Drain every remaining batch into [`Solutions`], behind
    /// [`execute_plan_view`]. `store` is the store or view the stream was
    /// built from. Leaves the stream exhausted, with its instrumentation
    /// ([`rows_touched`](StreamCore::rows_touched),
    /// [`peak_resident_rows`](StreamCore::peak_resident_rows)) readable.
    pub fn collect<'s>(&mut self, store: impl Into<StoreView<'s>>) -> Solutions {
        let store = store.into();
        let mut rows = Vec::new();
        while let Some(batch) = self.next_batch(store) {
            rows.extend(batch);
        }
        Solutions {
            vars: std::mem::take(&mut self.vars),
            rows,
        }
    }
}

/// Build a [`StreamCore`] for a shared prepared [`Plan`] over `store`: a
/// head `&TripleStore` or a versioned [`StoreView`], which must be the one
/// the plan was built against ([`crate::plan::plan`] /
/// [`crate::plan::plan_view`] — a view plan's spatial candidate sets
/// encode its overlay). Pull the batches with [`StreamCore::next_batch`]
/// from the same store or view.
///
/// Non-aggregate, non-ORDER-BY queries are fully pipelined: **no join
/// work happens here** — each [`StreamCore::next_batch`] pulls just
/// enough probe rows through the operator chain to fill one batch.
/// Grouping/aggregation and ORDER BY are blocking by nature (every input
/// row feeds the output), so those paths drain the pipeline eagerly here
/// and stream only the post-processed rows; this is the documented eager
/// exception. The route comes from [`Plan::fast_path`], so the executor
/// and the serving tier's per-fast-path counter can never disagree about
/// which route ran.
pub fn stream_plan_shared<'s>(
    store: impl Into<StoreView<'s>>,
    plan: Arc<Plan>,
    threads: usize,
) -> Result<StreamCore, RdfError> {
    let route = plan.fast_path();
    build(store.into(), plan, threads, route)
}

/// The oracle: [`stream_plan_shared`] with every fast path demoted to the
/// generic route it replaces — top-k to the global sort, the count
/// shortcuts to the materialise-then-group aggregate. Results are
/// bit-identical; only the work differs. The fast-path equivalence tests
/// and the E-k6 harness compare against it.
pub fn stream_plan_baseline<'s>(
    store: impl Into<StoreView<'s>>,
    plan: Arc<Plan>,
    threads: usize,
) -> Result<StreamCore, RdfError> {
    let route = match plan.fast_path() {
        FastPath::TopK => FastPath::FullSort,
        FastPath::FastCount | FastPath::GroupCount => FastPath::Aggregate,
        other => other,
    };
    build(store.into(), plan, threads, route)
}

fn build(
    store: StoreView<'_>,
    plan: Arc<Plan>,
    threads: usize,
    route: FastPath,
) -> Result<StreamCore, RdfError> {
    // Aggregate routes yield finished term rows under their own header;
    // the id routes project, dedup and skip as they stream.
    let mut header = None;
    let (phase, touched, peak) = match route {
        FastPath::FastCount | FastPath::GroupCount | FastPath::Aggregate => {
            let (h, rows, touched, peak) = aggregate_rows(store, &plan, threads, route)?;
            header = Some(h);
            (Phase::Rows { rows, pos: 0 }, touched, peak)
        }
        FastPath::TopK => {
            // Bounded-heap ORDER BY + LIMIT: only the k + offset best id
            // rows survive the drain; everything downstream streams.
            let (oi, asc) = plan.order_by.expect("topk implies ORDER BY");
            let n_keep = plan
                .limit
                .expect("topk implies LIMIT")
                .saturating_add(plan.offset.unwrap_or(0));
            let (rows, touched, peak) = topk_rows(store, &plan, threads, oi, asc, n_keep);
            (Phase::Ids(rows.into_iter()), touched, peak)
        }
        FastPath::FullSort => {
            // ORDER BY is global: drain and sort the id rows now, with
            // keys computed once per row (decorate–sort–undecorate);
            // everything downstream streams.
            let (oi, asc) = plan.order_by.expect("full sort implies ORDER BY");
            let (raw, touched, peak) = drain_pipeline(store, &plan, threads);
            let rows = full_sort_rows(store, raw, threads, oi, asc);
            (Phase::Ids(rows.into_iter()), touched, peak)
        }
        _ => {
            // The fully-streamed path: park the un-started pipeline; every
            // next_batch call does O(batch) probe work.
            let pipe = join::Pipeline::new(store, Arc::clone(&plan), threads);
            let buf = Batch::new(plan.vars.len());
            (Phase::Stream { pipe, buf, pos: 0 }, 0, 0)
        }
    };
    let (vars, projection, seen) = match header {
        // DISTINCT was already applied to the aggregate rows.
        Some(header) => (header, Vec::new(), None),
        None => (
            plan.projection.iter().map(|(n, _)| n.clone()).collect(),
            plan.projection.iter().map(|&(_, i)| i).collect(),
            plan.distinct.then(HashSet::new),
        ),
    };
    Ok(StreamCore {
        vars,
        projection,
        phase,
        seen,
        to_skip: plan.offset.unwrap_or(0),
        remaining: plan.limit,
        touched_eager: touched,
        peak_eager: peak,
    })
}

/// The blocking aggregate routes: run the pipeline to exhaustion
/// (counting in place on the fast routes), aggregate, then DISTINCT, then
/// alias ORDER BY — the op order of the generic route. OFFSET and LIMIT
/// stay streaming, in [`StreamCore::next_batch`].
fn aggregate_rows(
    store: StoreView<'_>,
    plan: &Arc<Plan>,
    threads: usize,
    route: FastPath,
) -> Result<AggOut, RdfError> {
    let (header, mut rows, touched, peak) = match route {
        FastPath::FastCount => fast_count(store, plan, threads)?,
        FastPath::GroupCount => group_count(store, plan, threads)?,
        _ => {
            let (raw, touched, peak) = drain_pipeline(store, plan, threads);
            let (header, rows) = aggregate(store, plan, raw)?;
            (header, rows, touched, peak)
        }
    };
    if plan.distinct {
        let mut seen: HashSet<Vec<Option<Term>>> = HashSet::new();
        rows.retain(|row| seen.insert(row.clone()));
    }
    if let Some((ov, asc)) = plan.order_by_name() {
        if let Some(ci) = header.iter().position(|h| h == ov) {
            rows.sort_by(|a, b| {
                let key = |t: &Option<Term>| t.as_ref().map(term_order_key);
                let ord = key(&a[ci]).cmp(&key(&b[ci]));
                if asc {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
    }
    Ok((header, rows, touched, peak))
}

/// Run a plan's pipeline to exhaustion (the blocking aggregate/ORDER
/// paths). Returns the raw id rows plus the probe-rows-touched and
/// peak-resident instrumentation (here the peak is the whole row set).
fn drain_pipeline(
    store: StoreView<'_>,
    plan: &Arc<Plan>,
    threads: usize,
) -> (Vec<Vec<Option<u64>>>, u64, u64) {
    let mut pipe = join::Pipeline::new(store, Arc::clone(plan), threads);
    let mut rows = Vec::new();
    loop {
        let b = pipe.next_rows(store, STREAM_BATCH_ROWS);
        if b.is_empty() {
            break;
        }
        rows.extend(b.into_rows());
    }
    let touched = pipe.rows_touched();
    let peak = rows.len() as u64;
    (rows, touched, peak)
}

fn numeric_of(store: StoreView<'_>, id: u64) -> Option<f64> {
    match store.dict().value(id) {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Sort key for ORDER BY and MIN/MAX: numbers before dates before strings
/// before everything else, each ordered internally.
///
/// The `Ord` impl is a **total** order (`f64::total_cmp` on the numeric
/// component). The historical `partial_cmp().unwrap_or(Equal)` comparator
/// is non-transitive once a NaN key appears (a NaN row compares "equal"
/// to everything, so `a < b`, `b ~ anything`, `c < a` cycles are
/// constructible), and both `sort_by` and `BinaryHeap` are only specified
/// under total orders. Under `total_cmp`, NaN sorts above +∞ (and -NaN
/// below -∞) — the one observable change, documented in DESIGN.md, and
/// shared by every ordering path so they stay mutually bit-identical.
#[derive(Debug, Clone, PartialEq)]
struct OrderKey {
    rank: u8,
    num: f64,
    text: String,
}

impl Eq for OrderKey {}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank
            .cmp(&other.rank)
            .then_with(|| self.num.total_cmp(&other.num))
            .then_with(|| self.text.cmp(&other.text))
    }
}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn order_key(store: StoreView<'_>, id: u64) -> OrderKey {
    key_of(store.dict().value(id), store.dict().term(id))
}

/// [`order_key`] of a term outside the dictionary: the aggregate route's
/// output rows, which ORDER BY sorts in the same order as id rows.
fn term_order_key(t: &Term) -> OrderKey {
    // A WKT literal decodes to `None`, and geometries rank with the rest.
    key_of(&decode_non_geometry(t).unwrap_or(Value::Malformed), t)
}

fn key_of(value: &Value, term: &Term) -> OrderKey {
    let (rank, num, text) = match value {
        Value::Int(i) => (0, *i as f64, String::new()),
        Value::Float(f) => (0, *f, String::new()),
        Value::Date(d) => (1, *d as f64, String::new()),
        Value::Str => (2, 0.0, term.lexical().to_string()),
        _ => (3, 0.0, term.ntriples()),
    };
    OrderKey { rank, num, text }
}

/// The one ordering shared by the full-sort and top-k paths: the
/// (possibly reversed) key, then the original input position. Unbound
/// (`None`) sorts first ascending, as ever; `seq` is globally unique, so
/// this is a **strict** total order — ties cannot exist, the top-`n` set
/// and its sorted order are partition-independent, and per-chunk heaps
/// merged in any order reproduce the serial answer bit-for-bit.
fn cmp_keyed(
    ka: &Option<OrderKey>,
    sa: u64,
    kb: &Option<OrderKey>,
    sb: u64,
    asc: bool,
) -> std::cmp::Ordering {
    let ord = ka.cmp(kb);
    let ord = if asc { ord } else { ord.reverse() };
    ord.then_with(|| sa.cmp(&sb))
}

/// The retained global-sort path, decorated: keys are computed **once
/// per row** (in parallel, fixed-order concat via `par::map`) instead of
/// twice per comparison inside `sort_by` — the historical comparator
/// recomputed (and re-allocated) `order_key` O(n log n) times.
fn full_sort_rows(
    store: StoreView<'_>,
    rows: Vec<Vec<Option<u64>>>,
    threads: usize,
    oi: usize,
    asc: bool,
) -> Vec<Vec<Option<u64>>> {
    let keys: Vec<Option<OrderKey>> =
        par::map(&rows, threads, |_, r| r[oi].map(|id| order_key(store, id)));
    let mut decorated: Vec<(Option<OrderKey>, u64, Vec<Option<u64>>)> = keys
        .into_iter()
        .zip(rows)
        .enumerate()
        .map(|(i, (k, r))| (k, i as u64, r))
        .collect();
    // Unstable is fine: the seq component makes the order strict, which
    // is exactly what stability used to provide.
    decorated.sort_unstable_by(|a, b| cmp_keyed(&a.0, a.1, &b.0, b.1, asc));
    decorated.into_iter().map(|(_, _, r)| r).collect()
}

/// Rows pulled per pipeline batch on the top-k path: larger than
/// [`STREAM_BATCH_ROWS`] so the per-batch parallel decorate amortises
/// its fan-out, small enough that resident memory stays O(batch + k).
const TOPK_PULL_ROWS: usize = 4096;

/// A heap entry on the top-k path. `BinaryHeap` is a max-heap, so the
/// root is the **worst** retained row (greatest under [`cmp_keyed`]) and
/// a bounded heap holds exactly the `n_keep` smallest seen so far. The
/// sort direction rides in each entry because `Ord` has no side channel;
/// all entries in one heap share it.
struct TopKEntry {
    key: Option<OrderKey>,
    seq: u64,
    row: Vec<Option<u64>>,
    asc: bool,
}

impl PartialEq for TopKEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for TopKEntry {}

impl Ord for TopKEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_keyed(&self.key, self.seq, &other.key, other.seq, self.asc)
    }
}

impl PartialOrd for TopKEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Keep the `n_keep` smallest entries: below capacity push outright, at
/// capacity a candidate only enters by evicting the current worst.
/// `n_keep == 0` (LIMIT 0 with no OFFSET) keeps nothing.
fn push_bounded(heap: &mut BinaryHeap<TopKEntry>, e: TopKEntry, n_keep: usize) {
    if heap.len() < n_keep {
        heap.push(e);
    } else if let Some(worst) = heap.peek() {
        if e.cmp(worst) == std::cmp::Ordering::Less {
            heap.pop();
            heap.push(e);
        }
    }
}

/// The bounded-heap ORDER BY + LIMIT path: O(n log k) comparisons, O(k)
/// retained rows, no global sort. Each pulled batch is decorated and
/// pre-pruned in parallel per chunk — a row outside its chunk's local
/// top-`n_keep` cannot be in the global top-`n_keep` — then the chunk
/// survivors merge into one global heap in fixed chunk order. Because
/// [`cmp_keyed`] is strict over unique `seq`s, the retained set and
/// `into_sorted_vec`'s order equal the first `n_keep` rows of the full
/// sort for any thread count and any batch size.
fn topk_rows(
    store: StoreView<'_>,
    plan: &Arc<Plan>,
    threads: usize,
    oi: usize,
    asc: bool,
    n_keep: usize,
) -> (Vec<Vec<Option<u64>>>, u64, u64) {
    let mut pipe = join::Pipeline::new(store, Arc::clone(plan), threads);
    let mut heap: BinaryHeap<TopKEntry> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut peak_exec = 0u64;
    loop {
        let b = pipe.next_rows(store, TOPK_PULL_ROWS);
        if b.is_empty() {
            break;
        }
        let rows = b.into_rows();
        peak_exec = peak_exec.max((heap.len() + rows.len()) as u64);
        let locals: Vec<Vec<TopKEntry>> = par::map_chunks(&rows, threads, |start, chunk| {
            let mut local: BinaryHeap<TopKEntry> = BinaryHeap::new();
            for (i, row) in chunk.iter().enumerate() {
                let key = row[oi].map(|id| order_key(store, id));
                let s = seq + (start + i) as u64;
                // Clone the row only when it can actually enter the heap.
                if local.len() == n_keep {
                    match local.peek() {
                        Some(worst)
                            if cmp_keyed(&key, s, &worst.key, worst.seq, asc)
                                == std::cmp::Ordering::Less => {}
                        _ => continue,
                    }
                }
                let e = TopKEntry { key, seq: s, row: row.clone(), asc };
                push_bounded(&mut local, e, n_keep);
            }
            local.into_vec()
        });
        seq += rows.len() as u64;
        for local in locals {
            for e in local {
                push_bounded(&mut heap, e, n_keep);
            }
        }
    }
    let rows: Vec<Vec<Option<u64>>> = heap.into_sorted_vec().into_iter().map(|e| e.row).collect();
    let touched = pipe.rows_touched();
    let peak = pipe.peak_resident_rows().max(peak_exec).max(rows.len() as u64);
    (rows, touched, peak)
}

/// Shared return shape of the blocking aggregate routes: header, term
/// rows, probe rows touched, peak resident rows.
type AggOut = (Vec<String>, Vec<Vec<Option<Term>>>, u64, u64);

/// `COUNT(*)` / `COUNT(?v)` without GROUP BY: count rows (or bound
/// values, column-wise) batch-by-batch straight off the columnar
/// pipeline — no `into_rows`, no term materialisation, O(batch) resident.
/// Zero input rows produce an **empty** result set, exactly like the
/// generic path (grouping an empty input yields no groups).
fn fast_count(store: StoreView<'_>, plan: &Arc<Plan>, threads: usize) -> Result<AggOut, RdfError> {
    let (alias, var) = match plan.select.as_slice() {
        [SelectItem::Agg { func: AggFunc::Count, var, alias }] => (alias.clone(), var.clone()),
        _ => unreachable!("fast_path gates on a single COUNT item"),
    };
    let vi = var
        .map(|v| {
            plan.vars
                .iter()
                .position(|x| x == &v)
                .ok_or_else(|| RdfError::Eval(format!("unknown ?{v}")))
        })
        .transpose()?;
    let mut pipe = join::Pipeline::new(store, Arc::clone(plan), threads);
    let mut input_rows = 0u64;
    let mut n = 0u64;
    loop {
        let b = pipe.next_rows(store, STREAM_BATCH_ROWS);
        if b.is_empty() {
            break;
        }
        input_rows += b.len() as u64;
        n += match vi {
            None => b.len() as u64,
            Some(i) => b.count_bound(i) as u64,
        };
    }
    let rows = if input_rows == 0 {
        Vec::new()
    } else {
        vec![vec![Some(Term::integer(n as i64))]]
    };
    Ok((vec![alias], rows, pipe.rows_touched(), pipe.peak_resident_rows()))
}

/// GROUP BY where every aggregate is a COUNT: a single pass over the
/// pipeline updates an id-keyed counter table (group key → one counter
/// per COUNT item) instead of materialising every input row into
/// per-group vectors and re-walking them per aggregate. Header layout,
/// error cases and the sorted deterministic group order match
/// [`aggregate`] exactly.
fn group_count(store: StoreView<'_>, plan: &Arc<Plan>, threads: usize) -> Result<AggOut, RdfError> {
    let group_names: Vec<&str> = plan.group_by.iter().map(|&i| plan.vars[i].as_str()).collect();
    let mut header = Vec::new();
    for item in &plan.select {
        match item {
            SelectItem::Var(v) => {
                if !group_names.contains(&v.as_str()) {
                    return Err(RdfError::Eval(format!(
                        "?{v} selected but not in GROUP BY"
                    )));
                }
                header.push(v.clone());
            }
            SelectItem::Agg { alias, .. } => header.push(alias.clone()),
        }
    }
    // Count column per aggregate item (`None` = COUNT(*)). Resolvability
    // is part of the fast-path gate; the error arm is defensive.
    let mut agg_cols: Vec<Option<usize>> = Vec::new();
    for item in &plan.select {
        if let SelectItem::Agg { var, .. } = item {
            agg_cols.push(
                var.as_ref()
                    .map(|v| {
                        plan.vars
                            .iter()
                            .position(|x| x == v)
                            .ok_or_else(|| RdfError::Eval(format!("unknown ?{v}")))
                    })
                    .transpose()?,
            );
        }
    }
    let mut counters: HashMap<Vec<Option<u64>>, Vec<u64>> = HashMap::new();
    let mut pipe = join::Pipeline::new(store, Arc::clone(plan), threads);
    loop {
        let b = pipe.next_rows(store, STREAM_BATCH_ROWS);
        if b.is_empty() {
            break;
        }
        for row in b.into_rows() {
            let key: Vec<Option<u64>> = plan.group_by.iter().map(|&i| row[i]).collect();
            let slots = counters
                .entry(key)
                .or_insert_with(|| vec![0u64; agg_cols.len()]);
            for (slot, vi) in slots.iter_mut().zip(&agg_cols) {
                match vi {
                    None => *slot += 1,
                    Some(i) if row[*i].is_some() => *slot += 1,
                    _ => {}
                }
            }
        }
    }
    // Deterministic group order, same as the generic path.
    let mut keys: Vec<Vec<Option<u64>>> = counters.keys().cloned().collect();
    keys.sort();
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        let slots = &counters[&key];
        let mut next_agg = 0usize;
        let mut row: Vec<Option<Term>> = Vec::with_capacity(plan.select.len());
        for item in &plan.select {
            match item {
                SelectItem::Var(v) => {
                    let gi = group_names.iter().position(|x| x == v).expect("checked");
                    row.push(key[gi].map(|id| store.dict().term(id).clone()));
                }
                SelectItem::Agg { .. } => {
                    row.push(Some(Term::integer(slots[next_agg] as i64)));
                    next_agg += 1;
                }
            }
        }
        out.push(row);
    }
    let peak = pipe.peak_resident_rows().max(out.len() as u64);
    Ok((header, out, pipe.rows_touched(), peak))
}

type Grouped = (Vec<String>, Vec<Vec<Option<Term>>>);

fn aggregate(
    store: StoreView<'_>,
    plan: &Plan,
    rows: Vec<Vec<Option<u64>>>,
) -> Result<Grouped, RdfError> {
    let group_names: Vec<&str> = plan.group_by.iter().map(|&i| plan.vars[i].as_str()).collect();
    let mut groups: HashMap<Vec<Option<u64>>, Vec<Vec<Option<u64>>>> = HashMap::new();
    for row in rows {
        let key: Vec<Option<u64>> = plan.group_by.iter().map(|&i| row[i]).collect();
        groups.entry(key).or_default().push(row);
    }
    // Deterministic group order.
    let mut keys: Vec<Vec<Option<u64>>> = groups.keys().cloned().collect();
    keys.sort();
    let mut header = Vec::new();
    for item in &plan.select {
        match item {
            SelectItem::Var(v) => {
                if !group_names.contains(&v.as_str()) {
                    return Err(RdfError::Eval(format!(
                        "?{v} selected but not in GROUP BY"
                    )));
                }
                header.push(v.clone());
            }
            SelectItem::Agg { alias, .. } => header.push(alias.clone()),
        }
    }
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        let members = &groups[&key];
        let mut row: Vec<Option<Term>> = Vec::with_capacity(plan.select.len());
        for item in &plan.select {
            match item {
                SelectItem::Var(v) => {
                    let gi = group_names.iter().position(|x| x == v).expect("checked");
                    row.push(key[gi].map(|id| store.dict().term(id).clone()));
                }
                SelectItem::Agg { func, var, .. } => {
                    let vi = var
                        .as_ref()
                        .map(|v| {
                            plan.vars
                                .iter()
                                .position(|x| x == v)
                                .ok_or_else(|| RdfError::Eval(format!("unknown ?{v}")))
                        })
                        .transpose()?;
                    row.push(Some(agg_value(store, *func, vi, members)));
                }
            }
        }
        out.push(row);
    }
    Ok((header, out))
}

fn agg_value(
    store: StoreView<'_>,
    func: AggFunc,
    vi: Option<usize>,
    members: &[Vec<Option<u64>>],
) -> Term {
    match func {
        AggFunc::Count => {
            let n = match vi {
                None => members.len(),
                Some(i) => members.iter().filter(|r| r[i].is_some()).count(),
            };
            Term::integer(n as i64)
        }
        AggFunc::Sum | AggFunc::Avg => {
            let vals: Vec<f64> = members
                .iter()
                .filter_map(|r| vi.and_then(|i| r[i]).and_then(|id| numeric_of(store, id)))
                .collect();
            let sum: f64 = vals.iter().sum();
            match func {
                AggFunc::Sum => Term::double(sum),
                _ => Term::double(if vals.is_empty() { 0.0 } else { sum / vals.len() as f64 }),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            // MIN/MAX share the executor's total OrderKey ordering.
            let mut best: Option<(u64, OrderKey)> = None;
            for r in members {
                if let Some(id) = vi.and_then(|i| r[i]) {
                    let k = order_key(store, id);
                    let better = match &best {
                        None => true,
                        Some((_, bk)) => {
                            if func == AggFunc::Min {
                                k < *bk
                            } else {
                                k > *bk
                            }
                        }
                    };
                    if better {
                        best = Some((id, k));
                    }
                }
            }
            best.map(|(id, _)| store.dict().term(id).clone())
                .unwrap_or_else(|| Term::integer(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Novelty;

    fn e(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    /// Parse and plan `q_text` against `view`.
    fn plan_of<'s>(view: impl Into<StoreView<'s>>, q_text: &str) -> Arc<Plan> {
        let q = crate::parser::parse_query(q_text).unwrap();
        Arc::new(crate::plan::plan_view(view.into(), &q).unwrap())
    }

    /// Plan and collect `q_text` at an explicit thread count.
    fn run(st: &TripleStore, q_text: &str, threads: usize) -> Solutions {
        execute_plan_view(st, plan_of(st, q_text), threads).unwrap()
    }

    /// A versioned view's overlay over `st`, the shape `Store::as_of`
    /// builds: every fifth base triple hidden, and `extra` triples added
    /// back (removed from the base, so only the overlay holds them).
    fn overlay(st: &mut TripleStore, extra: &[(Term, Term, Term)]) -> Novelty {
        let mut add = Vec::new();
        for (s, p, o) in extra {
            st.insert(s, p, o);
            let id = |t: &Term| st.dict.id_of(t).unwrap();
            let ids = (id(s), id(p), id(o));
            assert!(st.remove_ids(ids.0, ids.1, ids.2));
            add.push(ids);
        }
        let hide = st.id_triples().step_by(5).collect();
        Novelty::new(hide, add)
    }

    fn sample_store() -> TripleStore {
        let mut st = TripleStore::new();
        let name = e("name");
        let age = e("age");
        let knows = e("knows");
        let geom = e("hasGeometry");
        for (who, nm, a) in [("alice", "Alice", 30), ("bob", "Bob", 25), ("carol", "Carol", 35)] {
            st.insert(&e(who), &name, &Term::string(nm));
            st.insert(&e(who), &age, &Term::integer(a));
        }
        st.insert(&e("alice"), &knows, &e("bob"));
        st.insert(&e("alice"), &knows, &e("carol"));
        st.insert(&e("bob"), &knows, &e("carol"));
        st.insert(&e("alice"), &geom, &Term::wkt("POINT (1 1)"));
        st.insert(&e("bob"), &geom, &Term::wkt("POINT (5 5)"));
        st.insert(&e("carol"), &geom, &Term::wkt("POINT (20 20)"));
        st.build_spatial_index();
        st
    }

    fn names_of(sol: &Solutions, col: usize) -> Vec<String> {
        let mut v: Vec<String> = sol
            .rows
            .iter()
            .filter_map(|r| r[col].as_ref())
            .map(|t| t.ntriples())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn basic_bgp_join() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:knows ?y . ?y e:name ?n }",
        )
        .unwrap();
        assert_eq!(sol.len(), 3);
        assert_eq!(names_of(&sol, 0), vec!["\"Bob\"", "\"Carol\"", "\"Carol\""]);
    }

    #[test]
    fn filters_apply() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:age ?a . ?x e:name ?n . FILTER(?a >= 30) }",
        )
        .unwrap();
        assert_eq!(names_of(&sol, 0), vec!["\"Alice\"", "\"Carol\""]);
    }

    /// ORDER BY over an aggregate's output column sorts like ORDER BY
    /// over rows: numbers, dates, strings, then other terms by N-Triples
    /// form (literals before IRIs).
    #[test]
    fn aggregate_order_by_sorts_like_row_order_by() {
        let mut st = TripleStore::new();
        let values = [
            e("iri"),
            Term::wkt("POINT (7 10)"),
            Term::string("zed"),
            Term::integer(12),
            Term::double(3.5),
            Term::Literal { lexical: "2017-03-01".into(), datatype: crate::term::XSD_DATE.into() },
        ];
        for (i, v) in values.iter().enumerate() {
            st.insert(&e(&format!("s{i}")), &e("val"), v);
        }
        for dir in ["", "DESC"] {
            let rows = query(&st, &format!("PREFIX e: <http://e/> SELECT ?v WHERE {{ ?s e:val ?v }} ORDER BY {dir}(?v)"))
                .unwrap()
                .rows;
            let aggregated = query(
                &st,
                &format!("PREFIX e: <http://e/> SELECT ?s (MAX(?v) AS ?m) WHERE {{ ?s e:val ?v }} GROUP BY ?s ORDER BY {dir}(?m)"),
            )
            .unwrap();
            let ordered: Vec<Option<Term>> = aggregated.rows.iter().map(|r| r[1].clone()).collect();
            assert_eq!(ordered, rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(), "{dir}");
        }
        let first = query(&st, "PREFIX e: <http://e/> SELECT ?v WHERE { ?s e:val ?v } ORDER BY ?v LIMIT 1").unwrap();
        assert_eq!(first.rows, vec![vec![Some(Term::double(3.5))]]);
    }

    /// The engine over its indexes and the naive evaluator over the same
    /// triples answer alike.
    #[test]
    fn scan_and_full_agree() {
        for q_text in [
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:knows ?y . ?y e:name ?n }",
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?x e:age ?a . ?x e:name ?n . FILTER(?a < 31) }",
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:hasGeometry ?g . FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\"^^geo:wktLiteral)) }",
        ] {
            let st = sample_store();
            let full = query(&st, q_text).unwrap();
            let triples: Vec<(Term, Term, Term)> =
                st.triples().map(|(s, p, o)| (s.clone(), p.clone(), o.clone())).collect();
            let scan = crate::naive::query(&triples, q_text).unwrap();
            let norm = |s: &Solutions| {
                let mut v: Vec<String> = s.rows.iter().map(|r| format!("{r:?}")).collect();
                v.sort();
                v
            };
            assert_eq!(norm(&full), norm(&scan), "{q_text}");
        }
    }

    #[test]
    fn spatial_selection_with_pushdown() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))\"^^geo:wktLiteral)) }",
        )
        .unwrap();
        assert_eq!(sol.len(), 2, "alice and bob inside, carol outside");
    }

    #[test]
    fn distance_filter() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:hasGeometry ?g . \
             FILTER(geof:distance(?g, \"POINT (0 0)\"^^geo:wktLiteral) < 3) }",
        )
        .unwrap();
        assert_eq!(sol.len(), 1, "only alice within distance 3");
    }

    #[test]
    fn optional_left_join() {
        let mut st = sample_store();
        st.insert(&e("dave"), &e("age"), &Term::integer(40));
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?x ?n WHERE { ?x e:age ?a . OPTIONAL { ?x e:name ?n } }",
        )
        .unwrap();
        assert_eq!(sol.len(), 4);
        let dave_row = sol
            .rows
            .iter()
            .find(|r| r[0] == Some(e("dave")))
            .expect("dave present");
        assert_eq!(dave_row[1], None, "dave has no name");
    }

    #[test]
    fn aggregates_with_grouping() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x e:knows ?y } GROUP BY ?x ORDER BY DESC(?n)",
        )
        .unwrap();
        assert_eq!(sol.vars, vec!["x", "n"]);
        assert_eq!(sol.rows[0][0], Some(e("alice")));
        assert_eq!(sol.rows[0][1], Some(Term::integer(2)));
        assert_eq!(sol.rows[1][1], Some(Term::integer(1)));
    }

    #[test]
    fn count_star_and_scalar() {
        let st = sample_store();
        let sol = query(&st, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }").unwrap();
        assert_eq!(sol.scalar(), Some(&Term::integer(12)));
    }

    #[test]
    fn sum_avg_min_max() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT (SUM(?a) AS ?s) (AVG(?a) AS ?m) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) WHERE { ?x e:age ?a }",
        )
        .unwrap();
        assert_eq!(sol.rows[0][0], Some(Term::double(90.0)));
        assert_eq!(sol.rows[0][1], Some(Term::double(30.0)));
        assert_eq!(sol.rows[0][2], Some(Term::integer(25)));
        assert_eq!(sol.rows[0][3], Some(Term::integer(35)));
    }

    #[test]
    fn distinct_order_limit_offset() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT DISTINCT ?a WHERE { ?x e:age ?a } ORDER BY ?a LIMIT 2 OFFSET 1",
        )
        .unwrap();
        assert_eq!(sol.rows.len(), 2);
        assert_eq!(sol.rows[0][0], Some(Term::integer(30)));
        assert_eq!(sol.rows[1][0], Some(Term::integer(35)));
    }

    #[test]
    fn unknown_constant_yields_empty() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:name \"Nobody\" }",
        )
        .unwrap();
        assert!(sol.is_empty());
    }

    #[test]
    fn select_star_projects_all_vars() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT * WHERE { ?x e:knows ?y }",
        )
        .unwrap();
        assert_eq!(sol.vars, vec!["x", "y"]);
        assert_eq!(sol.len(), 3);
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let mut st = TripleStore::new();
        st.insert(&e("a"), &e("p"), &e("a"));
        st.insert(&e("a"), &e("p"), &e("b"));
        let sol = query(&st, "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:p ?x }").unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(sol.rows[0][0], Some(e("a")));
    }

    #[test]
    fn empty_where_returns_single_empty_row() {
        let st = sample_store();
        let sol = query(&st, "SELECT (COUNT(*) AS ?n) WHERE { }").unwrap();
        assert_eq!(sol.scalar(), Some(&Term::integer(1)));
    }

    #[test]
    fn variable_variable_spatial_join() {
        // No constant geometry → no pushdown; the filter still evaluates
        // correctly over both bound variables.
        let mut st = TripleStore::new();
        st.insert(&e("a"), &e("zone"), &Term::wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"));
        st.insert(&e("b"), &e("poi"), &Term::wkt("POINT (5 5)"));
        st.insert(&e("c"), &e("poi"), &Term::wkt("POINT (50 50)"));
        st.build_spatial_index();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?p WHERE { ?z e:zone ?zg . ?p e:poi ?pg . \
             FILTER(geof:sfWithin(?pg, ?zg)) }",
        )
        .unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(sol.rows[0][0], Some(e("b")));
    }

    #[test]
    fn order_by_dates() {
        let mut st = TripleStore::new();
        for (who, iso) in [("a", "2017-06-01"), ("b", "2017-01-15"), ("c", "2017-12-30")] {
            st.insert(
                &e(who),
                &e("sensed"),
                &Term::Literal {
                    lexical: iso.into(),
                    datatype: crate::term::XSD_DATE.into(),
                },
            );
        }
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?s ?d WHERE { ?s e:sensed ?d } ORDER BY ?d",
        )
        .unwrap();
        let order: Vec<_> = sol.rows.iter().map(|r| r[0].clone().unwrap()).collect();
        assert_eq!(order, vec![e("b"), e("a"), e("c")]);
    }

    #[test]
    fn offset_beyond_results_is_empty() {
        let st = sample_store();
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:age ?a } OFFSET 100",
        )
        .unwrap();
        assert!(sol.is_empty());
    }

    #[test]
    fn filter_on_optional_variable() {
        let mut st = sample_store();
        st.insert(&e("dave"), &e("age"), &Term::integer(40));
        // Dave has no name; the filter over ?n drops his row.
        let sol = query(
            &st,
            "PREFIX e: <http://e/> SELECT ?x WHERE { ?x e:age ?a . OPTIONAL { ?x e:name ?n } FILTER(?n != \"Bob\") }",
        )
        .unwrap();
        assert_eq!(sol.len(), 2, "alice and carol; bob filtered; dave errors out");
    }

    /// A store big enough that every parallel code path (hash probes,
    /// candidate enumeration, filter masks, optional joins) actually
    /// splits into multiple chunks.
    fn parallel_corpus_store() -> TripleStore {
        let mut st = TripleStore::new();
        let geom = e("hasGeometry");
        let class = e("class");
        let name = e("name");
        let near = e("near");
        let mut rng: u64 = 42;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        for i in 0..600 {
            let s = e(&format!("f{i}"));
            let x = next() * 100.0;
            let y = next() * 100.0;
            st.insert(&s, &geom, &Term::wkt(format!("POINT ({x:.4} {y:.4})")));
            st.insert(&s, &class, &e(if i % 3 == 0 { "crop" } else { "urban" }));
            if i % 2 == 0 {
                st.insert(&s, &name, &Term::string(format!("feature {i}")));
            }
            st.insert(&s, &near, &e(&format!("f{}", (i + 7) % 600)));
        }
        st.build_spatial_index();
        st
    }

    /// The tentpole guarantee: t ∈ {1, 2, 4, 8} produce byte-identical
    /// Solutions over the E2/E3-shaped query corpus.
    #[test]
    fn parallel_executor_is_bit_identical_to_serial() {
        let st = parallel_corpus_store();
        let corpus = [
            // E2/E3 shape: spatial selection with pushdown + COUNT.
            "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((10 10, 40 10, 40 40, 10 40, 10 10))\"^^geo:wktLiteral)) }",
            // Spatial selection projecting the feature ids.
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((0 0, 25 0, 25 25, 0 25, 0 0))\"^^geo:wktLiteral)) }",
            // Multi-pattern join wide enough to trigger hash probes.
            "PREFIX e: <http://e/> SELECT ?s ?t WHERE { ?s e:near ?t . ?s e:class e:crop . ?t e:class e:urban }",
            // Join + numeric-ish filter + DISTINCT + ORDER.
            "PREFIX e: <http://e/> SELECT DISTINCT ?n WHERE { ?s e:class e:crop . ?s e:name ?n } ORDER BY ?n LIMIT 50",
            // OPTIONAL left join at scale.
            "PREFIX e: <http://e/> SELECT ?s ?n WHERE { ?s e:class e:crop . OPTIONAL { ?s e:name ?n } }",
            // Aggregation with grouping over a join.
            "PREFIX e: <http://e/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s e:class ?c . ?s e:near ?t } GROUP BY ?c ORDER BY ?c",
            // Spatial join with pushdown + second pattern.
            "PREFIX e: <http://e/> SELECT ?s ?n WHERE { ?s e:hasGeometry ?g . ?s e:name ?n . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((30 30, 70 30, 70 70, 30 70, 30 30))\"^^geo:wktLiteral)) }",
        ];
        for q_text in corpus {
            let serial = run(&st, q_text, 1);
            assert!(!serial.vars.is_empty());
            for t in [2, 4, 8] {
                let parallel = run(&st, q_text, t);
                assert_eq!(serial, parallel, "threads={t} diverged on {q_text}");
            }
        }
    }

    /// Acceptance criterion: batch-at-a-time streaming is identical to
    /// the collect path at t ∈ {1, 4}, across the whole op-order matrix
    /// (DISTINCT, ORDER BY, OFFSET/LIMIT, aggregation, OPTIONAL).
    #[test]
    fn solution_stream_is_identical_to_collect() {
        let st = parallel_corpus_store();
        let corpus = [
            "PREFIX e: <http://e/> SELECT (COUNT(?s) AS ?n) WHERE { ?s e:hasGeometry ?g . \
             FILTER(geof:sfWithin(?g, \"POLYGON ((10 10, 40 10, 40 40, 10 40, 10 10))\"^^geo:wktLiteral)) }",
            "PREFIX e: <http://e/> SELECT ?s ?t WHERE { ?s e:near ?t . ?s e:class e:crop . ?t e:class e:urban }",
            "PREFIX e: <http://e/> SELECT DISTINCT ?n WHERE { ?s e:class e:crop . ?s e:name ?n } ORDER BY ?n LIMIT 50",
            "PREFIX e: <http://e/> SELECT ?s ?n WHERE { ?s e:class e:crop . OPTIONAL { ?s e:name ?n } }",
            "PREFIX e: <http://e/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s e:class ?c . ?s e:near ?t } GROUP BY ?c ORDER BY ?c",
            "PREFIX e: <http://e/> SELECT ?s WHERE { ?s e:near ?t } OFFSET 13 LIMIT 40",
            "PREFIX e: <http://e/> SELECT DISTINCT ?c WHERE { ?s e:class ?c } OFFSET 1",
            // Op-order matrix over the fully pipelined (no ORDER / no agg) path.
            "PREFIX e: <http://e/> SELECT DISTINCT ?c WHERE { ?s e:class ?c } LIMIT 1",
            "PREFIX e: <http://e/> SELECT ?s ?t WHERE { ?s e:near ?t } OFFSET 550 LIMIT 100",
            "PREFIX e: <http://e/> SELECT DISTINCT ?n WHERE { ?s e:name ?n } OFFSET 5 LIMIT 20",
            // Dup-heavy DISTINCT over a join: 600 bindings collapse to 2.
            "PREFIX e: <http://e/> SELECT DISTINCT ?c WHERE { ?s e:class ?c . ?s e:near ?t }",
            // ORDER + OFFSET + LIMIT without DISTINCT (eager sort path).
            "PREFIX e: <http://e/> SELECT ?n WHERE { ?s e:name ?n } ORDER BY DESC(?n) OFFSET 3 LIMIT 7",
        ] ;
        for q_text in corpus {
            for t in [1usize, 4] {
                let collected = run(&st, q_text, t);
                let plan = plan_of(&st, q_text);
                let mut stream = stream_plan_shared(&st, Arc::clone(&plan), t).unwrap();
                assert_eq!(stream.vars(), collected.vars.as_slice(), "{q_text}");
                let mut rows = Vec::new();
                let mut batches = 0usize;
                while let Some(b) = stream.next_batch(&st) {
                    assert!(!b.is_empty(), "empty batches are never yielded");
                    assert!(b.len() <= STREAM_BATCH_ROWS);
                    rows.extend(b);
                    batches += 1;
                }
                assert_eq!(rows, collected.rows, "t={t} stream diverged on {q_text}");
                if collected.rows.len() > STREAM_BATCH_ROWS {
                    assert!(batches > 1, "large result must span batches");
                }
                // The one-shot collector agrees too.
                let again = stream_plan_shared(&st, plan, t).unwrap().collect(&st);
                assert_eq!(again, collected, "{q_text}");
            }
        }
    }

    /// The tentpole's memory bound: on the non-aggregate, non-ORDER path
    /// the first streamed batch is produced after touching only O(batch)
    /// probe rows — not the full result set — and the resident-row
    /// high-water mark stays O(batch) even after a full drain.
    #[test]
    fn first_batch_touches_o_batch_probe_rows() {
        let mut st = TripleStore::new();
        let near = e("near");
        let poi = e("poi");
        let name = e("name");
        for i in 0..10_000u32 {
            let s = e(&format!("s{i}"));
            st.insert(&s, &near, &e(&format!("s{}", (i + 1) % 10_000)));
            if i < 500 {
                st.insert(&s, &poi, &e("marker"));
            }
            if i < 600 {
                st.insert(&s, &name, &Term::string(format!("site {i}")));
            }
        }
        let cases: [(&str, usize); 2] = [
            // Single-pattern scan over 10k matches.
            ("PREFIX e: <http://e/> SELECT ?s ?t WHERE { ?s e:near ?t }", 10_000),
            // Dense two-pattern join (hash-probe eligible: build side < cap).
            (
                "PREFIX e: <http://e/> SELECT ?s ?n WHERE { ?s e:poi ?x . ?s e:name ?n }",
                500,
            ),
        ];
        let bound = (8 * STREAM_BATCH_ROWS) as u64;
        for (q_text, total) in cases {
            let plan = plan_of(&st, q_text);
            for t in [1usize, 4] {
                let mut core = stream_plan_shared(&st, Arc::clone(&plan), t).unwrap();
                assert_eq!(core.rows_touched(), 0, "no join work before the first pull");
                let first = core.next_batch(&st).unwrap();
                assert_eq!(first.len(), STREAM_BATCH_ROWS);
                let touched = core.rows_touched();
                assert!(
                    touched <= bound,
                    "t={t} {q_text}: first batch touched {touched} probe rows (> {bound})"
                );
                assert!(
                    core.peak_resident_rows() <= bound,
                    "t={t} {q_text}: peak resident {} rows after first batch",
                    core.peak_resident_rows()
                );
                let mut rows = first.len();
                while let Some(b) = core.next_batch(&st) {
                    rows += b.len();
                }
                assert_eq!(rows, total, "t={t} {q_text}");
                assert!(
                    core.peak_resident_rows() <= bound,
                    "t={t} {q_text}: full drain kept {} rows resident (> {bound})",
                    core.peak_resident_rows()
                );
            }
        }
    }

    /// Satellite: streamed DISTINCT dedups on projected dictionary ids,
    /// so a dup-heavy unordered projection stays identical to collect
    /// and never materialises the non-distinct rows.
    #[test]
    fn distinct_streams_dedup_on_ids() {
        let st = parallel_corpus_store();
        let q_text = "PREFIX e: <http://e/> SELECT DISTINCT ?c WHERE { ?s e:class ?c }";
        for t in [1usize, 4] {
            let collected = run(&st, q_text, t);
            assert_eq!(collected.len(), 2, "600 class bindings collapse to 2 classes");
            let plan = plan_of(&st, q_text);
            let streamed = stream_plan_shared(&st, plan, t).unwrap().collect(&st);
            assert_eq!(streamed, collected, "t={t}");
        }
    }

    /// A store whose ORDER BY column mixes every OrderKey rank with
    /// heavy duplication: integers mod 7, floats (including a NaN-typed
    /// double, reachable because `decode_non_geometry` parses "NaN"),
    /// dates, strings from a tiny alphabet, and IRIs. Some subjects have
    /// no value at all (unbound keys via OPTIONAL).
    fn topk_corpus_store() -> TripleStore {
        let mut st = TripleStore::new();
        let val = e("val");
        let tag = e("tag");
        let mut rng: u64 = 7;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as u32
        };
        for i in 0..400u32 {
            let s = e(&format!("s{i}"));
            st.insert(&s, &tag, &e("thing"));
            let t = match next() % 6 {
                0 => Term::integer((next() % 7) as i64),
                1 => Term::double((next() % 5) as f64 / 2.0),
                2 => Term::Literal {
                    lexical: "NaN".into(),
                    datatype: crate::term::XSD_DOUBLE.into(),
                },
                3 => Term::Literal {
                    lexical: format!("2017-0{}-01", 1 + next() % 9),
                    datatype: crate::term::XSD_DATE.into(),
                },
                4 => Term::string(format!("s{}", next() % 4)),
                _ => e(&format!("iri{}", next() % 3)),
            };
            if next() % 8 != 0 {
                st.insert(&s, &val, &t);
            }
        }
        st
    }

    /// Tentpole identity: for every (k, offset, direction, thread count)
    /// the bounded-heap top-k path, the forced full-sort baseline and the
    /// batch-at-a-time streamed drain produce the same rows — across
    /// dup-heavy keys, NaN doubles, mixed literal types, unbound keys,
    /// OFFSET > 0 and k ≥ n — on the head store and on an `AS OF` view
    /// that hides some ordered rows and adds others.
    #[test]
    fn topk_equals_full_sort_equals_streamed() {
        let mut st = topk_corpus_store();
        let extra: Vec<(Term, Term, Term)> = (0..20)
            .flat_map(|i| {
                let s = e(&format!("x{i}"));
                [(s.clone(), e("tag"), e("thing")), (s, e("val"), Term::integer(i % 7))]
            })
            .collect();
        let nov = overlay(&mut st, &extra);
        let queries = [
            "PREFIX e: <http://e/> SELECT ?s ?v WHERE { ?s e:val ?v } ORDER BY ?v LIMIT {K} OFFSET {O}",
            "PREFIX e: <http://e/> SELECT ?s ?v WHERE { ?s e:val ?v } ORDER BY DESC(?v) LIMIT {K} OFFSET {O}",
            // Unbound keys: OPTIONAL rows sort first ascending.
            "PREFIX e: <http://e/> SELECT ?s ?v WHERE { ?s e:tag e:thing . OPTIONAL { ?s e:val ?v } } ORDER BY ?v LIMIT {K} OFFSET {O}",
        ];
        for view in [StoreView::from(&st), StoreView::with_novelty(&st, &nov)] {
            for template in queries {
                for (k, o) in [(0usize, 0usize), (1, 0), (3, 5), (10, 0), (50, 17), (400, 0), (1000, 3)] {
                    let q_text = template
                        .replace("{K}", &k.to_string())
                        .replace("{O}", &o.to_string());
                    let plan = plan_of(view, &q_text);
                    assert_eq!(plan.fast_path(), crate::plan::FastPath::TopK, "{q_text}");
                    for t in [1usize, 4] {
                        let fast = execute_plan_view(view, Arc::clone(&plan), t).unwrap();
                        let slow = stream_plan_baseline(view, Arc::clone(&plan), t)
                            .unwrap()
                            .collect(view);
                        assert_eq!(fast, slow, "t={t} k={k} o={o}: heap != full sort: {q_text}");
                        let mut stream = stream_plan_shared(view, Arc::clone(&plan), t).unwrap();
                        let mut rows = Vec::new();
                        while let Some(b) = stream.next_batch(view) {
                            rows.extend(b);
                        }
                        assert_eq!(rows, fast.rows, "t={t} k={k} o={o}: streamed != heap: {q_text}");
                        assert!(fast.rows.len() <= k, "LIMIT respected");
                    }
                }
            }
        }
    }

    /// The count fast paths (COUNT without GROUP BY, all-COUNT GROUP BY)
    /// are bit-identical to the generic materialise-then-group aggregate,
    /// including the zero-input-rows edge (empty result, not a 0 row) —
    /// on the head store and on an `AS OF` view.
    #[test]
    fn count_fast_paths_match_generic_aggregate() {
        let mut st = parallel_corpus_store();
        let extra: Vec<(Term, Term, Term)> = (0..30)
            .flat_map(|i| {
                let s = e(&format!("g{i}"));
                let class = e(if i % 2 == 0 { "crop" } else { "forest" });
                let mut triples = vec![
                    (s.clone(), e("near"), e(&format!("f{i}"))),
                    (s.clone(), e("class"), class),
                ];
                if i % 3 == 0 {
                    triples.push((s, e("name"), Term::string(format!("overlay {i}"))));
                }
                triples
            })
            .collect();
        let nov = overlay(&mut st, &extra);
        let cases = [
            ("PREFIX e: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:near ?t }", crate::plan::FastPath::FastCount),
            ("PREFIX e: <http://e/> SELECT (COUNT(?n) AS ?c) WHERE { ?s e:class e:crop . OPTIONAL { ?s e:name ?n } }", crate::plan::FastPath::FastCount),
            // Zero join rows: both paths yield an empty result set.
            ("PREFIX e: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:nosuch ?g }", crate::plan::FastPath::FastCount),
            ("PREFIX e: <http://e/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s e:class ?c . ?s e:near ?t } GROUP BY ?c ORDER BY ?c", crate::plan::FastPath::GroupCount),
            ("PREFIX e: <http://e/> SELECT ?c (COUNT(*) AS ?all) (COUNT(?n) AS ?named) WHERE { ?s e:class ?c . OPTIONAL { ?s e:name ?n } } GROUP BY ?c", crate::plan::FastPath::GroupCount),
            ("PREFIX e: <http://e/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s e:nosuch ?c } GROUP BY ?c", crate::plan::FastPath::GroupCount),
            // Non-count aggregates stay generic and still agree.
            ("PREFIX e: <http://e/> SELECT (SUM(?s) AS ?n) WHERE { ?s e:near ?t }", crate::plan::FastPath::Aggregate),
        ];
        for view in [StoreView::from(&st), StoreView::with_novelty(&st, &nov)] {
            for (q_text, want_route) in cases {
                let plan = plan_of(view, q_text);
                assert_eq!(plan.fast_path(), want_route, "{q_text}");
                for t in [1usize, 4] {
                    let fast = execute_plan_view(view, Arc::clone(&plan), t).unwrap();
                    let slow = stream_plan_baseline(view, Arc::clone(&plan), t)
                        .unwrap()
                        .collect(view);
                    assert_eq!(fast, slow, "t={t}: {q_text}");
                }
            }
        }
    }

    /// COUNT(*) on the fast path never materialises terms and keeps the
    /// pipeline's O(batch) resident bound instead of draining the whole
    /// row set like the generic aggregate.
    #[test]
    fn fast_count_keeps_pipeline_memory_bound() {
        let mut st = TripleStore::new();
        let near = e("near");
        for i in 0..10_000u32 {
            st.insert(&e(&format!("s{i}")), &near, &e(&format!("s{}", (i + 1) % 10_000)));
        }
        let plan = plan_of(
            &st,
            "PREFIX e: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:near ?t }",
        );
        let bound = (8 * STREAM_BATCH_ROWS) as u64;
        for t in [1usize, 4] {
            let mut fast = stream_plan_shared(&st, Arc::clone(&plan), t).unwrap();
            let rows = fast.next_batch(&st).unwrap();
            assert_eq!(rows[0][0], Some(Term::integer(10_000)));
            assert!(
                fast.peak_resident_rows() <= bound,
                "t={t}: fast count kept {} rows resident",
                fast.peak_resident_rows()
            );
            let mut slow = stream_plan_baseline(&st, Arc::clone(&plan), t).unwrap();
            let srows = slow.next_batch(&st).unwrap();
            assert_eq!(srows, rows);
            assert_eq!(slow.peak_resident_rows(), 10_000, "generic path drains all");
        }
    }

    /// The bounded heap's memory win, observable at test scale: draining
    /// 10k rows through ORDER BY + LIMIT 5 keeps O(batch + k) resident
    /// where the full sort holds all 10k.
    #[test]
    fn topk_keeps_bounded_resident_rows() {
        let mut st = TripleStore::new();
        let score = e("score");
        let mut rng: u64 = 99;
        for i in 0..10_000u32 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            st.insert(
                &e(&format!("s{i}")),
                &score,
                &Term::integer((rng >> 33) as i64 % 1000),
            );
        }
        let plan = plan_of(
            &st,
            "PREFIX e: <http://e/> SELECT ?s ?v WHERE { ?s e:score ?v } ORDER BY DESC(?v) LIMIT 5",
        );
        for t in [1usize, 4] {
            let mut fast = stream_plan_shared(&st, Arc::clone(&plan), t).unwrap();
            let mut slow = stream_plan_baseline(&st, Arc::clone(&plan), t).unwrap();
            assert!(
                fast.peak_resident_rows() <= (2 * TOPK_PULL_ROWS) as u64,
                "t={t}: top-k kept {} rows resident",
                fast.peak_resident_rows()
            );
            assert_eq!(slow.peak_resident_rows(), 10_000, "full sort drains all");
            assert_eq!(fast.collect(&st).rows, slow.collect(&st).rows, "t={t}");
        }
    }

    #[test]
    fn prepared_plan_reuse_matches_one_shot() {
        let st = parallel_corpus_store();
        let q_text = "PREFIX e: <http://e/> SELECT ?s ?t WHERE { ?s e:near ?t . ?s e:class e:crop }";
        let plan = plan_of(&st, q_text);
        let once = run(&st, q_text, 4);
        for _ in 0..3 {
            assert_eq!(execute_plan_view(&st, Arc::clone(&plan), 4).unwrap(), once);
        }
    }
}
