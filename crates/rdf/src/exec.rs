//! The query executor: one pull operator per plan step.
//!
//! [`crate::plan::plan`] emits a plan's [`Step`]s in execution order;
//! [`stream_plan_shared`] builds one operator per step over columnar
//! [`Batch`]es and chains them volcano-style, each pulling batches from
//! the one before it:
//!
//! * `Scan`, `Probe`, `Filter` and `LeftJoin` run [`crate::join`]'s
//!   operators on [`PIPELINE_CHUNK_ROWS`]-row chunks and buffer only what
//!   their consumer has not taken yet;
//! * `Distinct`, `Slice` and `Project` stream row by row;
//! * `TopK`, `Sort`, `Count`, `GroupCount` and `Aggregate` need every input
//!   row before they emit one, so [`stream_plan_shared`] drains each of
//!   them before it returns (their errors come back there), and the
//!   step's output rows become the source of the steps after it.
//!
//! A plan without a blocking step is fully pipelined: nothing runs until
//! [`StreamCore::next_batch`] pulls, and a batch touches O(batch) probe
//! rows. Every operator returns an empty batch only once it is exhausted.
//!
//! Rows stay dictionary ids until they leave the last step. Aggregate
//! steps emit id rows too: a computed value (a count, a sum) that the
//! store's dictionary does not hold gets an id in a small per-stream term
//! table, so one `Distinct`, `Sort`, `Slice` and `Project` serve plain and
//! aggregate queries alike.
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
//! * [`stream_plan_baseline`] is the oracle: the same executor over the
//!   plan's steps rewritten to the generic ones they replace (`TopK` →
//!   `Sort` + `Slice`, `Count`/`GroupCount` → `Aggregate`), for the
//!   equivalence tests.

use crate::batch::{Batch, UNBOUND};
use crate::dict::Dictionary;
use crate::join::{self, SeedScan, StepProbe, PIPELINE_CHUNK_ROWS};
use crate::parser::AggFunc;
use crate::plan::{Grouping, Item, Plan, Slot, Step};
use crate::store::{StoreView, TripleStore};
use crate::term::{decode_non_geometry, Term, TermRef, Value};
use crate::RdfError;
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

/// Rows pulled per batch by the `TopK` step: larger than
/// [`STREAM_BATCH_ROWS`] so the per-batch parallel decorate amortises its
/// fan-out, small enough that resident memory stays O(batch + k).
const TOPK_PULL_ROWS: usize = 4096;

/// The pull operator of one step.
enum Op {
    /// `Scan`, or the single all-unbound row of a plan with no required
    /// pattern.
    Scan(SeedScan),
    /// A row-local step: its output not yet pulled, and whether its
    /// upstream is exhausted.
    Rows { step: RowStep, out: Batch, done: bool },
    /// `Distinct`: the keys seen so far (ids, not terms: ids and terms are
    /// bijective through the dictionary and the computed-term table).
    Distinct { cols: Vec<usize>, seen: HashSet<Vec<u64>> },
    /// `Slice`: rows still to skip and to keep, and the row width.
    Slice { skip: usize, left: Option<usize>, width: usize },
    /// `Project`: the result columns.
    Project(Vec<usize>),
    /// A drained blocking step's output rows, handed out in order.
    Ready(Batch),
}

/// A step that maps each pulled chunk on its own.
enum RowStep {
    Probe(usize, StepProbe),
    Filter(usize),
    LeftJoin(Vec<usize>),
}

/// What every operator pull shares.
struct Cx<'a> {
    store: StoreView<'a>,
    plan: &'a Plan,
    threads: usize,
    /// Probe rows touched: see [`StreamCore::rows_touched`].
    touched: &'a mut u64,
}

impl Op {
    /// Rows held in this operator's buffer.
    fn buffered(&self) -> usize {
        match self {
            Op::Rows { out: b, .. } | Op::Ready(b) => b.len(),
            _ => 0,
        }
    }
}

/// Pull up to `want` rows from the last operator of `ops`, which pulls
/// from the ones before it. An empty batch means the chain is exhausted.
fn pull(ops: &mut [Op], cx: &mut Cx<'_>, want: usize) -> Batch {
    let (op, up) = ops.split_last_mut().expect("a chain starts at its source");
    match op {
        Op::Scan(scan) => scan.next_rows(cx.store, cx.plan, cx.threads, want, cx.touched),
        Op::Ready(rows) => rows.drain_front(want),
        Op::Rows { step, out, done } => {
            while out.len() < want && !*done {
                let chunk = pull(up, cx, PIPELINE_CHUNK_ROWS);
                if chunk.is_empty() {
                    *done = true;
                    break;
                }
                let (store, plan, threads) = (cx.store, cx.plan, cx.threads);
                let produced = match step {
                    RowStep::Probe(pi, probe) => {
                        *cx.touched += chunk.len() as u64;
                        probe.probe(store, plan, *pi, &chunk, threads)
                    }
                    RowStep::LeftJoin(patterns) => {
                        *cx.touched += chunk.len() as u64;
                        join::left_join(store, plan, patterns, &chunk, threads)
                    }
                    RowStep::Filter(fi) => {
                        let mut b = chunk;
                        b.retain(&join::filter_mask(store, &plan.filters[*fi], &b, threads));
                        b
                    }
                };
                if out.is_empty() {
                    *out = produced;
                } else {
                    out.append(&produced);
                }
            }
            out.drain_front(want)
        }
        Op::Distinct { cols, seen } => loop {
            let mut b = pull(up, cx, want);
            let keep: Vec<bool> =
                (0..b.len()).map(|r| seen.insert(cols.iter().map(|&c| b.get(r, c)).collect())).collect();
            b.retain(&keep);
            if !b.is_empty() || keep.is_empty() {
                return b;
            }
        },
        Op::Slice { skip, left, width } => loop {
            if *left == Some(0) {
                return Batch::new(*width);
            }
            let mut b = pull(up, cx, want.min(left.unwrap_or(usize::MAX).saturating_add(*skip)));
            if b.is_empty() {
                return b;
            }
            let n = (*skip).min(b.len());
            b.drain_front(n);
            *skip -= n;
            if let Some(left) = left {
                b.truncate(*left);
                *left -= b.len();
            }
            if !b.is_empty() {
                return b;
            }
        },
        Op::Project(cols) => pull(up, cx, want).select(cols),
    }
}

/// Terms that aggregate steps compute and the store's dictionary does not
/// hold, under ids from [`COMPUTED_IDS`] up (the dictionary's ids are
/// dense from zero). A term the dictionary holds keeps its dictionary id
/// and equal terms share an id, so `Distinct` on ids stays exact.
#[derive(Default)]
struct Computed {
    /// Each term with its decoded value, by id − [`COMPUTED_IDS`].
    terms: Vec<(Term, Value)>,
    ids: HashMap<Term, u64>,
}

const COMPUTED_IDS: u64 = 1 << 63;

impl Computed {
    /// The id of `t`: the dictionary's, else its computed one.
    fn intern(&mut self, dict: &Dictionary, t: Term) -> u64 {
        if let Some(id) = dict.id_of(&t).or_else(|| self.ids.get(&t).copied()) {
            return id;
        }
        let id = COMPUTED_IDS | self.terms.len() as u64;
        let value = decode_non_geometry(&t).unwrap_or(Value::Malformed);
        self.ids.insert(t.clone(), id);
        self.terms.push((t, value));
        id
    }

    /// The term of a bound id.
    fn term<'a>(&'a self, dict: &'a Dictionary, id: u64) -> TermRef<'a> {
        match id.checked_sub(COMPUTED_IDS) {
            Some(i) => self.terms[i as usize].0.as_ref(),
            None => dict.term(id),
        }
    }

    /// ORDER BY's key of an id; `None` for unbound.
    fn key(&self, dict: &Dictionary, id: u64) -> Option<OrderKey> {
        if id == UNBOUND {
            return None;
        }
        Some(match id.checked_sub(COMPUTED_IDS) {
            Some(i) => {
                let (t, v) = &self.terms[i as usize];
                key_of(v, t.as_ref())
            }
            None => key_of(dict.value(id), dict.term(id)),
        })
    }
}

/// Incremental query results: the operator chain of one plan. On a plan
/// without blocking steps each [`next_batch`](StreamCore::next_batch)
/// call runs only enough probe work to fill one batch, so memory stays
/// O(batch) and a slow consumer pauses the joins instead of buffering
/// them. Blocking steps ran when the stream was built (documented on
/// [`stream_plan_shared`]).
///
/// Owns no borrows — the store is passed to each `next_batch` call — so
/// a serving tier can park a `StreamCore` inside a response object next
/// to an `Arc` of the store without self-referential lifetimes.
pub struct StreamCore {
    plan: Arc<Plan>,
    threads: usize,
    /// The result header: the `Project` step's names.
    vars: Vec<String>,
    /// The chain, source first; a drained blocking step replaces
    /// everything before it.
    ops: Vec<Op>,
    computed: Computed,
    touched: u64,
    peak: u64,
}

impl StreamCore {
    /// Projected variable names, in order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Probe rows touched so far: the matches or candidates the `Scan`
    /// step enumerated plus the rows every `Probe` and `LeftJoin` step
    /// consumed (`Filter` and the tail steps add nothing). Without
    /// blocking steps this grows with each pulled batch — the acceptance
    /// metric for "first batch touches O(batch) rows"; a blocking step
    /// reports its whole drain.
    pub fn rows_touched(&self) -> u64 {
        self.touched
    }

    /// High-water mark of rows resident in the executor at once: the
    /// operators' buffers plus the pulled batch, and whatever a blocking
    /// step held (every input row for `Sort` and `Aggregate`).
    #[cfg(test)]
    pub fn peak_resident_rows(&self) -> u64 {
        self.peak
    }

    /// Hand the next batch of up to [`STREAM_BATCH_ROWS`] result rows to
    /// `row`, one call per row, as terms borrowed from `store` (or from
    /// this stream's computed terms): no term is cloned and no row
    /// allocated. Returns how many rows were handed over; `0` means the
    /// stream is exhausted (or LIMIT was reached). `store` must be the
    /// store or view the stream was built from (same base store, same
    /// novelty overlay).
    pub fn drain_batch<'s>(
        &mut self,
        store: impl Into<StoreView<'s>>,
        mut row: impl FnMut(&[Option<TermRef<'_>>]),
    ) -> usize {
        let store = store.into();
        let b = self.pull(store, STREAM_BATCH_ROWS);
        if b.is_empty() {
            return 0;
        }
        let dict = store.dict();
        let mut cells = Vec::with_capacity(b.width());
        for r in 0..b.len() {
            cells.clear();
            cells.extend((0..b.width()).map(|c| {
                let id = b.get(r, c);
                (id != UNBOUND).then(|| self.computed.term(dict, id))
            }));
            row(&cells);
        }
        b.len()
    }

    /// [`drain_batch`](StreamCore::drain_batch) into owned rows: the next
    /// batch, or `None` when the stream is exhausted (or LIMIT was
    /// reached).
    pub fn next_batch<'s>(
        &mut self,
        store: impl Into<StoreView<'s>>,
    ) -> Option<Vec<Vec<Option<Term>>>> {
        let mut out = Vec::new();
        let n = self.drain_batch(store, |row| {
            out.push(row.iter().map(|t| t.map(TermRef::to_term)).collect())
        });
        (n > 0).then_some(out)
    }

    /// Drain every remaining batch into [`Solutions`], behind
    /// [`execute_plan_view`]. `store` is the store or view the stream was
    /// built from. Leaves the stream exhausted, with its instrumentation
    /// ([`rows_touched`](StreamCore::rows_touched) and, in tests,
    /// `peak_resident_rows`) readable.
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

    /// Pull from the end of the chain, tracking the resident high-water
    /// mark.
    fn pull(&mut self, store: StoreView<'_>, want: usize) -> Batch {
        let mut cx = Cx {
            store,
            plan: &self.plan,
            threads: self.threads,
            touched: &mut self.touched,
        };
        let b = pull(&mut self.ops, &mut cx, want);
        let resident = self.ops.iter().map(Op::buffered).sum::<usize>() + b.len();
        self.held(resident);
        b
    }

    fn held(&mut self, rows: usize) {
        self.peak = self.peak.max(rows as u64);
    }

    /// Every remaining row of the chain, in one batch.
    fn drain_all(&mut self, store: StoreView<'_>, width: usize) -> Batch {
        let mut all = Batch::new(width);
        loop {
            let b = self.pull(store, PIPELINE_CHUNK_ROWS);
            if b.is_empty() {
                self.held(all.len());
                return all;
            }
            all.append(&b);
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
/// A plan without blocking steps is fully pipelined: **no join work
/// happens here** — each [`StreamCore::next_batch`] pulls just enough
/// probe rows through the operator chain to fill one batch. A blocking
/// step (`TopK`, `Sort`, `Count`, `GroupCount`, `Aggregate`) needs every
/// input row, so this drains it here — the documented eager exception —
/// and its errors come back from this call.
pub fn stream_plan_shared<'s>(
    store: impl Into<StoreView<'s>>,
    plan: Arc<Plan>,
    threads: usize,
) -> Result<StreamCore, RdfError> {
    let store = store.into();
    let mut core = StreamCore {
        plan: Arc::clone(&plan),
        threads,
        vars: Vec::new(),
        ops: Vec::new(),
        computed: Computed::default(),
        touched: 0,
        peak: 0,
    };
    let mut width = plan.vars.len();
    if !matches!(plan.steps.first(), Some(Step::Scan(_))) {
        core.ops.push(Op::Scan(SeedScan::unit()));
    }
    let rows = |step| Op::Rows { step, out: Batch::new(plan.vars.len()), done: false };
    // Variables bound by the join steps so far: a probe's join key.
    let mut bound = vec![false; width];
    let bind = |bound: &mut [bool], pi: usize| {
        for s in &plan.slots[pi] {
            if let Slot::Var(v) = s {
                bound[*v] = true;
            }
        }
    };
    for step in &plan.steps {
        let op = match step {
            Step::Scan(pi) => {
                bind(&mut bound, *pi);
                Op::Scan(SeedScan::new(store, &plan, *pi))
            }
            Step::Probe(pi) => {
                let probe = StepProbe::new(store, &plan, *pi, &bound);
                bind(&mut bound, *pi);
                rows(RowStep::Probe(*pi, probe))
            }
            Step::Filter(fi) => rows(RowStep::Filter(*fi)),
            Step::LeftJoin(patterns) => rows(RowStep::LeftJoin(patterns.clone())),
            Step::Distinct(cols) => Op::Distinct { cols: cols.clone(), seen: HashSet::new() },
            Step::Slice { offset, limit } => Op::Slice { skip: *offset, left: *limit, width },
            Step::Project(cols) => {
                core.vars = cols.iter().map(|(n, _)| n.clone()).collect();
                Op::Project(cols.iter().map(|&(_, c)| c).collect())
            }
            Step::TopK { col, asc, offset, limit } => {
                Op::Ready(top_k(&mut core, store, width, *col, *asc, *offset, *limit))
            }
            Step::Sort { col, asc } => Op::Ready(sort(&mut core, store, width, *col, *asc)),
            Step::Count(g) | Step::GroupCount(g) => Op::Ready(count(&mut core, store, g)),
            Step::Aggregate(g) => Op::Ready(aggregate(&mut core, store, width, g)?),
        };
        if let Op::Ready(_) = op {
            core.ops.clear();
        }
        if let Step::Count(g) | Step::GroupCount(g) | Step::Aggregate(g) = step {
            width = g.items.len();
        }
        core.ops.push(op);
    }
    Ok(core)
}

/// The oracle: [`stream_plan_shared`] over the plan's steps rewritten to
/// the generic ones they replace — `TopK` to `Sort` + `Slice`, `Count` and
/// `GroupCount` to `Aggregate`. Results are bit-identical; only the work
/// differs. The fast-path equivalence tests compare against it.
pub fn stream_plan_baseline<'s>(
    store: impl Into<StoreView<'s>>,
    plan: Arc<Plan>,
    threads: usize,
) -> Result<StreamCore, RdfError> {
    let mut generic = (*plan).clone();
    generic.steps = plan
        .steps
        .iter()
        .cloned()
        .flat_map(|step| match step {
            Step::TopK { col, asc, offset, limit } => {
                vec![Step::Sort { col, asc }, Step::Slice { offset, limit: Some(limit) }]
            }
            Step::Count(g) | Step::GroupCount(g) => vec![Step::Aggregate(g)],
            step => vec![step],
        })
        .collect();
    stream_plan_shared(store, Arc::new(generic), threads)
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

fn key_of(value: &Value, term: TermRef<'_>) -> OrderKey {
    let (rank, num, text) = match value {
        Value::Int(i) => (0, *i as f64, String::new()),
        Value::Float(f) => (0, *f, String::new()),
        Value::Date(d) => (1, *d as f64, String::new()),
        Value::Str => (2, 0.0, term.lexical().to_string()),
        _ => (3, 0.0, term.ntriples()),
    };
    OrderKey { rank, num, text }
}

/// The one ordering shared by `Sort` and `TopK`: the (possibly reversed)
/// key, then the original input position. Unbound (`None`) sorts first
/// ascending, as ever; `seq` is globally unique, so this is a **strict**
/// total order — ties cannot exist, the top-`n` set and its sorted order
/// are partition-independent, and per-chunk heaps merged in any order
/// reproduce the serial answer bit-for-bit.
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

/// `Sort`: every row, decorated with its key **once** (in parallel,
/// fixed-order concat via `par::map`) rather than twice per comparison.
fn sort(core: &mut StreamCore, store: StoreView<'_>, width: usize, col: usize, asc: bool) -> Batch {
    let rows = core.drain_all(store, width);
    let dict = store.dict();
    let computed = &core.computed;
    let idx: Vec<usize> = (0..rows.len()).collect();
    let mut order: Vec<(Option<OrderKey>, usize)> =
        par::map(&idx, core.threads, |_, &r| (computed.key(dict, rows.get(r, col)), r));
    // Unstable is fine: the position makes the order strict, which is
    // exactly what stability used to provide.
    order.sort_unstable_by(|a, b| cmp_keyed(&a.0, a.1 as u64, &b.0, b.1 as u64, asc));
    let idx: Vec<usize> = order.into_iter().map(|(_, r)| r).collect();
    rows.gather(&idx)
}

/// A heap entry of `TopK`. `BinaryHeap` is a max-heap, so the root is
/// the **worst** retained row (greatest under [`cmp_keyed`]) and a bounded
/// heap holds exactly the `n_keep` smallest seen so far. The sort
/// direction rides in each entry because `Ord` has no side channel; all
/// entries in one heap share it.
struct TopKEntry {
    key: Option<OrderKey>,
    seq: u64,
    row: Vec<u64>,
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

/// `TopK`: O(n log k) comparisons, O(batch + k) retained rows, no global
/// sort. Each pulled batch is decorated and pre-pruned in parallel per
/// chunk — a row outside its chunk's local top-`n_keep` cannot be in the
/// global top-`n_keep` — then the chunk survivors merge into one global
/// heap in fixed chunk order. Because [`cmp_keyed`] is strict over unique
/// `seq`s, the retained set and `into_sorted_vec`'s order equal the first
/// `n_keep` rows of the full sort for any thread count and batch size.
fn top_k(
    core: &mut StreamCore,
    store: StoreView<'_>,
    width: usize,
    col: usize,
    asc: bool,
    offset: usize,
    limit: usize,
) -> Batch {
    let n_keep = limit.saturating_add(offset);
    let mut heap: BinaryHeap<TopKEntry> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        let b = core.pull(store, TOPK_PULL_ROWS);
        if b.is_empty() {
            break;
        }
        core.held(heap.len() + b.len());
        let (dict, computed) = (store.dict(), &core.computed);
        let idx: Vec<usize> = (0..b.len()).collect();
        let locals: Vec<Vec<TopKEntry>> = par::map_chunks(&idx, core.threads, |_, chunk| {
            let mut local: BinaryHeap<TopKEntry> = BinaryHeap::new();
            for &r in chunk {
                let key = computed.key(dict, b.get(r, col));
                let s = seq + r as u64;
                // Read the row only when it can actually enter the heap.
                if local.len() == n_keep {
                    match local.peek() {
                        Some(worst)
                            if cmp_keyed(&key, s, &worst.key, worst.seq, asc)
                                == std::cmp::Ordering::Less => {}
                        _ => continue,
                    }
                }
                let mut row = Vec::with_capacity(width);
                b.read_row(r, &mut row);
                push_bounded(&mut local, TopKEntry { key, seq: s, row, asc }, n_keep);
            }
            local.into_vec()
        });
        seq += b.len() as u64;
        for e in locals.into_iter().flatten() {
            push_bounded(&mut heap, e, n_keep);
        }
    }
    let mut out = Batch::new(width);
    for e in heap.into_sorted_vec().into_iter().skip(offset) {
        out.push_row(&e.row);
    }
    out
}

/// Unbound (`UNBOUND`) as `None`, so group keys order unbound first.
fn bound(id: &u64) -> Option<u64> {
    (*id != UNBOUND).then_some(*id)
}

/// An aggregate step's output: one row per group, in key order. A key
/// item copies the group's key; an aggregate item is `agg(key, item,
/// index among the aggregate items)`.
fn group_rows<'k>(
    g: &Grouping,
    keys: impl Iterator<Item = &'k Vec<u64>>,
    mut agg: impl FnMut(&[u64], &Item, usize) -> Result<u64, RdfError>,
) -> Result<Batch, RdfError> {
    let mut keys: Vec<&Vec<u64>> = keys.collect();
    keys.sort_by(|a, b| a.iter().map(bound).cmp(b.iter().map(bound)));
    let mut out = Batch::new(g.items.len());
    let mut row = Vec::with_capacity(g.items.len());
    for key in keys {
        row.clear();
        let mut k = 0;
        for (_, item) in &g.items {
            row.push(match item {
                Item::Key(i) => key[*i],
                _ => {
                    k += 1;
                    agg(key, item, k - 1)?
                }
            });
        }
        out.push_row(&row);
    }
    Ok(out)
}

/// `Count` and `GroupCount`: one pass keeps a counter per group and COUNT
/// item — column-wise per batch when there is no GROUP BY, so no row is
/// ever read on its own. No input rows make no groups, hence no rows.
fn count(core: &mut StreamCore, store: StoreView<'_>, g: &Grouping) -> Batch {
    let args: Vec<Option<usize>> = g
        .items
        .iter()
        .filter_map(|(_, item)| match item {
            Item::Agg(_, arg) => Some(*arg),
            _ => None,
        })
        .collect();
    let mut counters: HashMap<Vec<u64>, Vec<u64>> = HashMap::new();
    loop {
        let b = core.pull(store, STREAM_BATCH_ROWS);
        if b.is_empty() {
            break;
        }
        if g.keys.is_empty() {
            let slots = counters.entry(Vec::new()).or_insert_with(|| vec![0; args.len()]);
            for (slot, arg) in slots.iter_mut().zip(&args) {
                *slot += arg.map_or(b.len(), |c| b.count_bound(c)) as u64;
            }
            continue;
        }
        for r in 0..b.len() {
            let key = g.keys.iter().map(|&c| b.get(r, c)).collect();
            let slots = counters.entry(key).or_insert_with(|| vec![0; args.len()]);
            for (slot, arg) in slots.iter_mut().zip(&args) {
                if arg.is_none_or(|c| b.get(r, c) != UNBOUND) {
                    *slot += 1;
                }
            }
        }
    }
    core.held(counters.len());
    let (dict, computed) = (store.dict(), &mut core.computed);
    group_rows(g, counters.keys(), |key, _, k| {
        Ok(computed.intern(dict, Term::integer(counters[key][k] as i64)))
    })
    .expect("counts never fail")
}

/// `Aggregate`: every input row is kept and grouped, then each item is
/// computed per group. An aggregate over an unknown variable fails once a
/// group exists.
fn aggregate(
    core: &mut StreamCore,
    store: StoreView<'_>,
    width: usize,
    g: &Grouping,
) -> Result<Batch, RdfError> {
    let rows = core.drain_all(store, width);
    let mut groups: HashMap<Vec<u64>, Vec<usize>> = HashMap::new();
    for r in 0..rows.len() {
        groups.entry(g.keys.iter().map(|&c| rows.get(r, c)).collect()).or_default().push(r);
    }
    let (dict, computed) = (store.dict(), &mut core.computed);
    group_rows(g, groups.keys(), |key, item, _| {
        let members = &groups[key];
        let (func, col) = match item {
            Item::Agg(func, col) => (*func, *col),
            Item::Unknown(v) => return Err(RdfError::Eval(format!("unknown ?{v}"))),
            Item::Key(_) => unreachable!("group_rows copies keys"),
        };
        let values = members.iter().filter_map(|&r| col.and_then(|c| bound(&rows.get(r, c))));
        let t = match func {
            AggFunc::Count => Term::integer(col.map_or(members.len(), |_| values.count()) as i64),
            AggFunc::Sum | AggFunc::Avg => {
                let nums: Vec<f64> = values
                    .filter_map(|id| match dict.value(id) {
                        Value::Int(i) => Some(*i as f64),
                        Value::Float(f) => Some(*f),
                        _ => None,
                    })
                    .collect();
                let sum: f64 = nums.iter().sum();
                match func {
                    AggFunc::Sum => Term::double(sum),
                    _ => Term::double(if nums.is_empty() { 0.0 } else { sum / nums.len() as f64 }),
                }
            }
            AggFunc::Min | AggFunc::Max => {
                // MIN/MAX share ORDER BY's total order; the first best wins.
                let mut best: Option<(u64, OrderKey)> = None;
                for id in values {
                    let k = key_of(dict.value(id), dict.term(id));
                    let better = best.as_ref().is_none_or(|(_, bk)| {
                        if func == AggFunc::Min {
                            k < *bk
                        } else {
                            k > *bk
                        }
                    });
                    if better {
                        best = Some((id, k));
                    }
                }
                match best {
                    Some((id, _)) => return Ok(id),
                    None => Term::integer(0),
                }
            }
        };
        Ok(computed.intern(dict, t))
    })
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
        st.pack();
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
                st.triples().map(|(s, p, o)| (s.to_term(), p.to_term(), o.to_term())).collect();
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
        st.pack();
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
        st.pack();
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

    /// An empty batch means "exhausted" at every step: a filter that
    /// rejects the first 1,500 rows in scan order — right after the
    /// `Scan`, after a `Probe`, or as a residual filter after a `LeftJoin`
    /// — must not end the stream early.
    #[test]
    fn filtered_prefix_does_not_end_the_stream() {
        let mut st = TripleStore::new();
        for i in 0..3_000 {
            let s = e(&format!("s{i}"));
            st.insert(&s, &e("tag"), &e("t"));
            st.insert(&s, &e("v"), &Term::integer(i));
        }
        st.pack();
        let cases = [
            ("PREFIX e: <http://e/> SELECT ?s ?v WHERE { ?s e:v ?v . FILTER(?v >= 1500) }", "Scan"),
            (
                "PREFIX e: <http://e/> SELECT ?s ?v WHERE { ?s e:tag e:t . ?s e:v ?v . FILTER(?v >= 1500) }",
                "Probe",
            ),
            (
                "PREFIX e: <http://e/> SELECT ?s ?v WHERE { ?s e:tag e:t . OPTIONAL { ?s e:v ?v } FILTER(?v >= 1500) }",
                "LeftJoin",
            ),
        ];
        for (q_text, after) in cases {
            let plan = plan_of(&st, q_text);
            let fi = plan.steps.iter().position(|s| matches!(s, Step::Filter(_))).unwrap();
            assert!(format!("{:?}", plan.steps[fi - 1]).starts_with(after), "{}", plan.describe());
            for t in [1usize, 4] {
                let collected = execute_plan_view(&st, Arc::clone(&plan), t).unwrap();
                assert_eq!(collected.len(), 1_500, "t={t} {q_text}");
                assert_eq!(collected.rows[0][1], Some(Term::integer(1_500)), "scan order: {q_text}");
                let mut stream = stream_plan_shared(&st, Arc::clone(&plan), t).unwrap();
                let mut rows = Vec::new();
                while let Some(b) = stream.next_batch(&st) {
                    rows.extend(b);
                }
                assert_eq!(rows, collected.rows, "t={t} {q_text}");
            }
        }
    }

    /// The tentpole's memory bound: on the non-aggregate, non-ORDER path
    /// the first streamed batch is produced after touching only O(batch)
    /// probe rows — not the full result set — and the resident-row
    /// high-water mark stays O(batch) even after a full drain, whose rows
    /// equal a one-thread collect.
    #[test]
    fn first_batch_touches_o_batch_probe_rows() {
        let mut st = TripleStore::new();
        let near = e("near");
        let poi = e("poi");
        let name = e("name");
        let geo = e("geo");
        for i in 0..10_000u32 {
            let s = e(&format!("s{i}"));
            st.insert(&s, &near, &e(&format!("s{}", (i + 1) % 10_000)));
            st.insert(&s, &geo, &Term::wkt(format!("POINT ({} {})", i % 100, i / 100)));
            if i < 500 {
                st.insert(&s, &poi, &e("marker"));
            }
            if i < 600 {
                st.insert(&s, &name, &Term::string(format!("site {i}")));
            }
        }
        let cases: [(&str, usize); 3] = [
            // Single-pattern scan over 10k matches.
            ("PREFIX e: <http://e/> SELECT ?s ?t WHERE { ?s e:near ?t }", 10_000),
            // Spatial window over every point: R-tree candidates stream
            // through the exact filter batch by batch.
            (
                "PREFIX e: <http://e/> SELECT ?s ?g WHERE { ?s e:geo ?g . \
                 FILTER(geof:sfWithin(?g, \"POLYGON ((-1 -1, 101 -1, 101 101, -1 101, -1 -1))\"^^geo:wktLiteral)) }",
                10_000,
            ),
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
                let mut rows = first;
                while let Some(b) = core.next_batch(&st) {
                    rows.extend(b);
                }
                assert_eq!(rows.len(), total, "t={t} {q_text}");
                let serial = execute_plan_view(&st, Arc::clone(&plan), 1).unwrap();
                assert!(rows == serial.rows, "t={t} {q_text}: streamed != serial collect");
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
                    assert_eq!(plan.route(), "topk", "{q_text}");
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
            ("PREFIX e: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:near ?t }", "fast_count"),
            ("PREFIX e: <http://e/> SELECT (COUNT(?n) AS ?c) WHERE { ?s e:class e:crop . OPTIONAL { ?s e:name ?n } }", "fast_count"),
            // Zero join rows: both paths yield an empty result set.
            ("PREFIX e: <http://e/> SELECT (COUNT(*) AS ?n) WHERE { ?s e:nosuch ?g }", "fast_count"),
            ("PREFIX e: <http://e/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s e:class ?c . ?s e:near ?t } GROUP BY ?c ORDER BY ?c", "group_count"),
            ("PREFIX e: <http://e/> SELECT ?c (COUNT(*) AS ?all) (COUNT(?n) AS ?named) WHERE { ?s e:class ?c . OPTIONAL { ?s e:name ?n } } GROUP BY ?c", "group_count"),
            ("PREFIX e: <http://e/> SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s e:nosuch ?c } GROUP BY ?c", "group_count"),
            // Non-count aggregates stay generic and still agree.
            ("PREFIX e: <http://e/> SELECT (SUM(?s) AS ?n) WHERE { ?s e:near ?t }", "aggregate"),
        ];
        for view in [StoreView::from(&st), StoreView::with_novelty(&st, &nov)] {
            for (q_text, want_route) in cases {
                let plan = plan_of(view, q_text);
                assert_eq!(plan.route(), want_route, "{q_text}");
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
