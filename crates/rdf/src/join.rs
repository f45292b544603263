//! Physical operators: pull-based pattern extension (resumable index
//! scans, hash probes, R-tree candidate enumeration), filter masks, and
//! OPTIONAL left-joins over columnar [`Batch`]es.
//!
//! ## Pull-based pipeline
//!
//! A [`Pipeline`] chains the plan's join steps into a volcano-style
//! operator stack: each stage pulls bounded chunks of probe rows from the
//! stage above it ([`PIPELINE_CHUNK_ROWS`] at a time), extends/filters
//! them, and buffers only the overflow. The first pattern is a
//! `SeedScan` — a resumable index cursor or an incremental slice of the
//! R-tree candidate set — so producing the first n result rows touches
//! O(n) probe rows, not the whole result set. Build sides (hash tables)
//! may still materialise; probe sides never do. OPTIONAL groups and
//! residual filters are row-local, so they run chunk-wise inside the same
//! pipeline without changing results.
//!
//! ## Parallelism contract
//!
//! Every operator here is bit-identical to its serial execution for any
//! thread count. Two rules enforce that:
//!
//! 1. **Access-path selection never looks at the thread count.** Whether
//!    a step runs as a hash probe, an index nested-loop, or a candidate
//!    enumeration is a function of the plan, the chunk size (a constant),
//!    and the store's cardinality estimate only — so serial and parallel
//!    runs take the same path and see the same per-row match order.
//! 2. **Fixed-order reduction.** Work is split into contiguous chunks of
//!    the input (rows or candidate ids) via
//!    [`ee_util::par::map_chunks_guided`]; each chunk produces a private
//!    mini-batch and the chunks are concatenated in chunk order, which is
//!    input order. Chunk *boundaries* may vary with the thread count;
//!    the concatenated output cannot.
//!
//! Guided (work-stealing) scheduling matters here because join probes and
//! spatial refinement are skewed: one polygon row can cost 100× its
//! neighbour, so maximal-even chunks would leave threads idle.

use crate::batch::{Batch, UNBOUND};
use crate::plan::{FilterPlan, Plan, Slot};
use crate::store::{IdTriple, StoreView, ViewCursor, ESTIMATE_CAP};
use ee_util::par;
use std::collections::HashMap;
use std::sync::Arc;

/// Chunks per thread for guided scheduling: enough slack that a skewed
/// chunk can be stolen around, not so many that coordination dominates.
const OVERSUBSCRIBE: usize = 8;

/// Minimum probe-side rows before building a hash table pays for itself.
const HASH_MIN_ROWS: usize = 32;

/// Probe rows pulled per inter-stage transfer. A constant (never derived
/// from the thread count or the result size) so chunk sequences — and
/// therefore access-path decisions — are identical across thread counts
/// and between streamed and collected execution. Matches
/// [`crate::exec::STREAM_BATCH_ROWS`] so one result batch costs one pull
/// per stage.
pub const PIPELINE_CHUNK_ROWS: usize = 256;

/// The spatial candidate set for a pattern's object position, when the
/// object is a still-unbound variable with an R-tree pushdown set.
fn object_candidates<'p>(plan: &'p Plan, slots: &[Slot; 3], row: &[u64]) -> Option<&'p [u64]> {
    match &slots[2] {
        Slot::Var(v) if row[*v] == UNBOUND => plan.candidates.get(v).map(|c| c.as_slice()),
        _ => None,
    }
}

fn fixed_ids(slots: &[Slot; 3], row: &[u64]) -> [Option<u64>; 3] {
    let f = |s: &Slot| match s {
        Slot::Const(id) => Some(*id),
        Slot::Var(v) => {
            let id = row[*v];
            if id == UNBOUND {
                None
            } else {
                Some(id)
            }
        }
        Slot::Impossible => Some(u64::MAX),
    };
    [f(&slots[0]), f(&slots[1]), f(&slots[2])]
}

/// Whether enumerating `cands` beats scanning the pattern directly: the
/// pattern's own estimate is at the cap (unbounded scan) or larger than
/// the candidate set. Depends only on the store and bindings — never the
/// thread count — so serial and parallel runs pick the same path. When
/// this says no, the direct scan still honours the candidate set: `unify`
/// rejects non-candidates by binary search.
fn candidates_pay(store: StoreView<'_>, cands: &[u64], fixed: &[Option<u64>; 3]) -> bool {
    let est = store.estimate(fixed[0], fixed[1], None);
    est >= ESTIMATE_CAP || cands.len() < est
}

/// All index matches of `slots` under the bindings in `row`, taking the
/// candidate-enumeration access path when spatial pushdown applies and
/// is estimated cheaper than the direct scan.
fn collect_matches(
    store: StoreView<'_>,
    plan: &Plan,
    slots: &[Slot; 3],
    row: &[u64],
) -> Vec<IdTriple> {
    let fixed = fixed_ids(slots, row);
    let mut matches = Vec::new();
    match object_candidates(plan, slots, row) {
        Some(cands) if candidates_pay(store, cands, &fixed) => {
            for &id in cands {
                store.match_pattern(fixed[0], fixed[1], Some(id), &mut |t| {
                    matches.push(t);
                    true
                });
            }
        }
        _ => {
            store.match_pattern(fixed[0], fixed[1], fixed[2], &mut |t| {
                matches.push(t);
                true
            });
        }
    }
    matches
}

/// Unify `triple` against `slots` into `work` (a copy of the input row).
/// Returns false on a repeated-variable mismatch or a candidate-set miss;
/// `work` is garbage after a false return and must be re-copied.
fn unify(plan: &Plan, slots: &[Slot; 3], triple: IdTriple, work: &mut [u64]) -> bool {
    let ids = [triple.0, triple.1, triple.2];
    for (slot, &id) in slots.iter().zip(&ids) {
        if let Slot::Var(v) = slot {
            let existing = work[*v];
            if existing == UNBOUND {
                if let Some(cands) = plan.candidates.get(v) {
                    if cands.binary_search(&id).is_err() {
                        return false;
                    }
                }
                work[*v] = id;
            } else if existing != id {
                return false;
            }
        }
    }
    true
}

/// Incremental enumerator for the pipeline's first join step, probed by
/// the single all-unbound seed row. Each `next_rows` call touches at most
/// `want` candidate ids (R-tree path) or pauses the index cursor after
/// `want` unified rows (scan path), so the first batch of a selection
/// query no longer enumerates the whole pattern.
struct SeedScan {
    kind: SeedKind,
}

enum SeedKind {
    /// Nothing (left) to produce.
    Done,
    /// No required patterns: the single all-unbound seed row, once.
    Unit,
    /// R-tree candidate enumeration over the pushdown set of object
    /// variable `v`, `next` ids consumed so far.
    Candidates { pi: usize, v: usize, next: usize },
    /// Resumable direct scan of the pattern's best index.
    Scan { pi: usize, cursor: ViewCursor },
}

impl SeedScan {
    fn new(store: StoreView<'_>, plan: &Plan) -> SeedScan {
        if plan.impossible {
            return SeedScan { kind: SeedKind::Done };
        }
        let Some(&pi) = plan.order.first() else {
            return SeedScan { kind: SeedKind::Unit };
        };
        let slots = &plan.slots[pi];
        if slots.iter().any(|s| matches!(s, Slot::Impossible)) {
            return SeedScan { kind: SeedKind::Done };
        }
        let seed = vec![UNBOUND; plan.vars.len()];
        let kind = match object_candidates(plan, slots, &seed)
            .filter(|c| candidates_pay(store, c, &fixed_ids(slots, &seed)))
        {
            Some(_) => match &slots[2] {
                Slot::Var(v) => SeedKind::Candidates { pi, v: *v, next: 0 },
                _ => unreachable!("object_candidates implies an object variable"),
            },
            None => SeedKind::Scan {
                pi,
                cursor: ViewCursor::default(),
            },
        };
        SeedScan { kind }
    }

    /// Produce up to `want` rows (empty ⇔ exhausted, so callers can treat
    /// an empty batch as end-of-input). `touched` counts probe work: raw
    /// index matches scanned or candidate ids enumerated.
    fn next_rows(
        &mut self,
        store: StoreView<'_>,
        plan: &Plan,
        threads: usize,
        want: usize,
        touched: &mut u64,
    ) -> Batch {
        let width = plan.vars.len();
        match &mut self.kind {
            SeedKind::Done => Batch::new(width),
            SeedKind::Unit => {
                self.kind = SeedKind::Done;
                Batch::unit(width)
            }
            SeedKind::Candidates { pi, v, next } => {
                let slots = &plan.slots[*pi];
                let cands = plan.candidates.get(v).map(Vec::as_slice).unwrap_or(&[]);
                let seed = vec![UNBOUND; width];
                let fixed = fixed_ids(slots, &seed);
                let mut out = Batch::new(width);
                // Loop over candidate slices until some rows unify or the
                // set is exhausted: an empty return must mean "done".
                while out.is_empty() && *next < cands.len() {
                    let hi = (*next + want.max(1)).min(cands.len());
                    let slice = &cands[*next..hi];
                    *touched += slice.len() as u64;
                    *next = hi;
                    let parts =
                        par::map_chunks_guided(slice, threads, OVERSUBSCRIBE, |_, chunk| {
                            let mut rows: Vec<u64> = Vec::new();
                            let mut work = vec![0u64; width];
                            for &id in chunk {
                                store.match_pattern(fixed[0], fixed[1], Some(id), &mut |t| {
                                    work.copy_from_slice(&seed);
                                    if unify(plan, slots, t, &mut work) {
                                        rows.extend_from_slice(&work);
                                    }
                                    true
                                });
                            }
                            rows
                        });
                    for rows in &parts {
                        for r in rows.chunks(width) {
                            out.push_row(r);
                        }
                    }
                }
                if *next >= cands.len() && out.is_empty() {
                    self.kind = SeedKind::Done;
                }
                out
            }
            SeedKind::Scan { pi, cursor } => {
                let slots = &plan.slots[*pi];
                let seed = vec![UNBOUND; width];
                let fixed = fixed_ids(slots, &seed);
                let mut out = Batch::new(width);
                let mut work = vec![0u64; width];
                let mut scanned = 0u64;
                let want = want.max(1);
                store.match_pattern_from(fixed[0], fixed[1], fixed[2], cursor, &mut |t| {
                    scanned += 1;
                    work.copy_from_slice(&seed);
                    if unify(plan, slots, t, &mut work) {
                        out.push_row(&work);
                    }
                    out.len() < want
                });
                *touched += scanned;
                if cursor.is_done() && out.is_empty() {
                    self.kind = SeedKind::Done;
                }
                out
            }
        }
    }
}

/// Reusable state for one pipelined join step: the probe side arrives in
/// chunks; the build side (a hash table over the pattern's constant-only
/// matches) materialises at most once and is probed by every chunk.
struct StepProbe {
    /// `(triple position, variable)` pairs bound by earlier steps — the
    /// join key. Static per step: a variable introduced by step j < k is
    /// bound in *every* row reaching step k.
    key_cols: Vec<(usize, usize)>,
    /// The pattern's constant-only bindings (the build-side scan).
    consts: [Option<u64>; 3],
    /// Key columns exist and the build side is provably small.
    eligible: bool,
    /// The build side, materialised on the first qualifying chunk.
    table: Option<HashMap<[u64; 3], Vec<IdTriple>>>,
}

impl StepProbe {
    fn new(store: StoreView<'_>, plan: &Plan, pi: usize, bound: &[bool]) -> StepProbe {
        let slots = &plan.slots[pi];
        let key_cols: Vec<(usize, usize)> = slots
            .iter()
            .enumerate()
            .filter_map(|(pos, s)| match s {
                Slot::Var(v) if bound[*v] => Some((pos, *v)),
                _ => None,
            })
            .collect();
        let consts = fixed_ids(slots, &vec![UNBOUND; plan.vars.len()]);
        let build_est = store.estimate(consts[0], consts[1], consts[2]);
        let eligible = !key_cols.is_empty() && build_est < ESTIMATE_CAP;
        StepProbe {
            key_cols,
            consts,
            eligible,
            table: None,
        }
    }

    /// Extend every row of `chunk` by the pattern's matches, in row order
    /// (and match order within a row): hash probe when the chunk is large
    /// enough and the build side small enough, index nested-loop (with
    /// candidate enumeration where it pays) otherwise.
    fn probe(
        &mut self,
        store: StoreView<'_>,
        plan: &Plan,
        pi: usize,
        chunk: &Batch,
        threads: usize,
    ) -> Batch {
        let width = plan.vars.len();
        let slots = &plan.slots[pi];
        let mut out = Batch::new(width);
        if chunk.is_empty() || slots.iter().any(|s| matches!(s, Slot::Impossible)) {
            return out;
        }
        let use_hash = self.eligible && chunk.len() >= HASH_MIN_ROWS;
        if use_hash && self.table.is_none() {
            // Build side: materialised once, reused by every later chunk.
            let mut table: HashMap<[u64; 3], Vec<IdTriple>> = HashMap::new();
            let key_cols = &self.key_cols;
            store.match_pattern(self.consts[0], self.consts[1], self.consts[2], &mut |t| {
                let ids = [t.0, t.1, t.2];
                let mut key = [UNBOUND; 3];
                for &(pos, _) in key_cols {
                    key[pos] = ids[pos];
                }
                table.entry(key).or_default().push(t);
                true
            });
            self.table = Some(table);
        }
        let rows_idx: Vec<usize> = (0..chunk.len()).collect();
        let parts: Vec<Vec<u64>> = if use_hash {
            let key_cols = &self.key_cols;
            let table = self.table.as_ref().expect("built above");
            par::map_chunks_guided(&rows_idx, threads, OVERSUBSCRIBE, |_, idxs| {
                let mut rows: Vec<u64> = Vec::new();
                let mut row = Vec::new();
                let mut work = vec![0u64; width];
                for &r in idxs {
                    chunk.read_row(r, &mut row);
                    let mut key = [UNBOUND; 3];
                    for &(pos, v) in key_cols {
                        key[pos] = row[v];
                    }
                    if let Some(matches) = table.get(&key) {
                        for &t in matches {
                            work.copy_from_slice(&row);
                            if unify(plan, slots, t, &mut work) {
                                rows.extend_from_slice(&work);
                            }
                        }
                    }
                }
                rows
            })
        } else {
            par::map_chunks_guided(&rows_idx, threads, OVERSUBSCRIBE, |_, idxs| {
                let mut rows: Vec<u64> = Vec::new();
                let mut row = Vec::new();
                let mut work = vec![0u64; width];
                for &r in idxs {
                    chunk.read_row(r, &mut row);
                    for t in collect_matches(store, plan, slots, &row) {
                        work.copy_from_slice(&row);
                        if unify(plan, slots, t, &mut work) {
                            rows.extend_from_slice(&work);
                        }
                    }
                }
                rows
            })
        };
        for rows in &parts {
            for r in rows.chunks(width) {
                out.push_row(r);
            }
        }
        out
    }
}

/// One pipeline stage: a join step, an OPTIONAL left-join group, or the
/// residual-filter tail. Holds the overflow rows its downstream consumer
/// has not pulled yet — the only inter-stage buffering, bounded by one
/// chunk's expansion.
struct Stage {
    kind: StageKind,
    out: Batch,
    upstream_done: bool,
}

enum StageKind {
    /// Join step at position `step` in `plan.order` (selects the filters
    /// pinned after it), extending by pattern `pi`.
    Join {
        step: usize,
        pi: usize,
        probe: StepProbe,
    },
    /// OPTIONAL left-join of group `gi`.
    Optional { gi: usize },
    /// Filters not pinned to any join step (they need OPTIONAL bindings).
    Residual,
}

impl Stage {
    fn process(
        &mut self,
        store: StoreView<'_>,
        plan: &Plan,
        threads: usize,
        chunk: &Batch,
    ) -> Batch {
        match &mut self.kind {
            StageKind::Join { step, pi, probe } => {
                let mut b = probe.probe(store, plan, *pi, chunk, threads);
                for f in &plan.filters {
                    if f.apply_after == Some(*step) {
                        let mask = filter_mask(store, f, &b, threads);
                        b.retain(&mask);
                    }
                }
                b
            }
            StageKind::Optional { gi } => {
                apply_optional_group(store, plan, &plan.optionals[*gi], chunk, threads)
            }
            StageKind::Residual => {
                let mut b = chunk.clone();
                for f in &plan.filters {
                    if f.apply_after.is_none() {
                        let mask = filter_mask(store, f, &b, threads);
                        b.retain(&mask);
                    }
                }
                b
            }
        }
    }
}

/// The pull-based join pipeline: seed scan → join steps (each with its
/// pinned filters) → OPTIONAL groups → residual filters, every edge a
/// bounded chunk transfer. Owns no borrows beyond an `Arc` of the plan —
/// the store is passed to each [`next_rows`](Pipeline::next_rows) call —
/// so a serving tier can park one inside a response object.
pub struct Pipeline {
    plan: Arc<Plan>,
    threads: usize,
    source: SeedScan,
    stages: Vec<Stage>,
    /// Probe rows touched: raw seed matches/candidates scanned plus rows
    /// consumed by every downstream stage. The "O(batch) work to first
    /// batch" acceptance metric.
    touched: u64,
    /// High-water mark of rows buffered across all stages at once — the
    /// pipeline's resident-set bound (build-side hash tables excluded).
    peak_resident: u64,
}

impl Pipeline {
    /// Build the operator chain for a prepared plan. Cheap: the only
    /// store work is one cardinality estimate per join step.
    pub fn new(store: StoreView<'_>, plan: Arc<Plan>, threads: usize) -> Pipeline {
        let source = SeedScan::new(store, &plan);
        let mut stages = Vec::new();
        let mut bound = vec![false; plan.vars.len()];
        if let Some(&p0) = plan.order.first() {
            for s in &plan.slots[p0] {
                if let Slot::Var(v) = s {
                    bound[*v] = true;
                }
            }
        }
        for (step, &pi) in plan.order.iter().enumerate().skip(1) {
            let probe = StepProbe::new(store, &plan, pi, &bound);
            for s in &plan.slots[pi] {
                if let Slot::Var(v) = s {
                    bound[*v] = true;
                }
            }
            stages.push(Stage {
                kind: StageKind::Join { step, pi, probe },
                out: Batch::new(plan.vars.len()),
                upstream_done: false,
            });
        }
        for gi in 0..plan.optionals.len() {
            stages.push(Stage {
                kind: StageKind::Optional { gi },
                out: Batch::new(plan.vars.len()),
                upstream_done: false,
            });
        }
        if plan.filters.iter().any(|f| f.apply_after.is_none()) {
            stages.push(Stage {
                kind: StageKind::Residual,
                out: Batch::new(plan.vars.len()),
                upstream_done: false,
            });
        }
        Pipeline {
            plan,
            threads,
            source,
            stages,
            touched: 0,
            peak_resident: 0,
        }
    }

    /// Pull up to `want` fully-joined, fully-filtered rows. An empty batch
    /// means the pipeline is exhausted.
    pub fn next_rows(&mut self, store: StoreView<'_>, want: usize) -> Batch {
        let out = pull_chain(
            store,
            &self.plan,
            self.threads,
            &mut self.source,
            &mut self.stages,
            &mut self.touched,
            want.max(1),
        );
        let resident =
            self.stages.iter().map(|s| s.out.len() as u64).sum::<u64>() + out.len() as u64;
        self.peak_resident = self.peak_resident.max(resident);
        out
    }

    /// Probe rows touched so far (see the field doc).
    pub fn rows_touched(&self) -> u64 {
        self.touched
    }

    /// High-water mark of rows buffered inside the pipeline.
    pub fn peak_resident_rows(&self) -> u64 {
        self.peak_resident
    }
}

/// Recursive pull: `stages.last()` serves the caller, refilling from the
/// prefix (ultimately the seed scan) one [`PIPELINE_CHUNK_ROWS`] chunk at
/// a time until it can hand back `want` rows or its upstream is dry.
fn pull_chain(
    store: StoreView<'_>,
    plan: &Plan,
    threads: usize,
    source: &mut SeedScan,
    stages: &mut [Stage],
    touched: &mut u64,
    want: usize,
) -> Batch {
    let Some((stage, upstream)) = stages.split_last_mut() else {
        // The seed scan, with any filters pinned after step 0. Filters can
        // empty a chunk without the scan being done, so loop: an empty
        // return must keep meaning "exhausted".
        loop {
            let mut b = source.next_rows(store, plan, threads, want, touched);
            if b.is_empty() {
                return b;
            }
            for f in &plan.filters {
                if f.apply_after == Some(0) {
                    let mask = filter_mask(store, f, &b, threads);
                    b.retain(&mask);
                }
            }
            if !b.is_empty() {
                return b;
            }
        }
    };
    while stage.out.len() < want && !stage.upstream_done {
        let chunk = pull_chain(
            store,
            plan,
            threads,
            source,
            upstream,
            touched,
            PIPELINE_CHUNK_ROWS,
        );
        if chunk.is_empty() {
            stage.upstream_done = true;
            break;
        }
        *touched += chunk.len() as u64;
        let produced = stage.process(store, plan, threads, &chunk);
        stage.out.append(&produced);
    }
    stage.out.drain_front(want)
}

/// Evaluate one compiled filter over every row in parallel; returns the
/// keep mask in row order. Rows where the expression errors (e.g. an
/// unbound variable) are dropped, matching SPARQL's error-is-false
/// semantics.
pub fn filter_mask(store: StoreView<'_>, f: &FilterPlan, batch: &Batch, threads: usize) -> Vec<bool> {
    let dict = store.dict();
    let rows_idx: Vec<usize> = (0..batch.len()).collect();
    let parts = par::map_chunks_guided(&rows_idx, threads, OVERSUBSCRIBE, |_, chunk| {
        chunk
            .iter()
            .map(|&r| f.filter.passes(dict, batch, r))
            .collect::<Vec<bool>>()
    });
    parts.concat()
}

/// Depth-first join of an optional group's patterns under one row's
/// bindings; emits extended rows row-major into `out`.
fn join_group(
    store: StoreView<'_>,
    plan: &Plan,
    group: &[[Slot; 3]],
    gi: usize,
    work: &mut Vec<u64>,
    out: &mut Vec<u64>,
    found: &mut usize,
) {
    if gi == group.len() {
        out.extend_from_slice(work);
        *found += 1;
        return;
    }
    let matches = collect_matches(store, plan, &group[gi], work);
    let snapshot = work.clone();
    for t in matches {
        work.copy_from_slice(&snapshot);
        if unify(plan, &group[gi], t, work) {
            join_group(store, plan, group, gi + 1, work, out, found);
        }
    }
    work.copy_from_slice(&snapshot);
}

/// Left-join one OPTIONAL group onto every row of `batch`: rows with
/// matches are replaced by their extensions, rows without pass through
/// unchanged. Row-local, so applying it chunk-wise inside the pipeline is
/// identical to applying it to the concatenated batch.
fn apply_optional_group(
    store: StoreView<'_>,
    plan: &Plan,
    group: &[[Slot; 3]],
    batch: &Batch,
    threads: usize,
) -> Batch {
    let width = plan.vars.len();
    // A group with an unknown constant never matches: every row passes
    // through unextended.
    if group
        .iter()
        .any(|p| p.iter().any(|s| matches!(s, Slot::Impossible)))
    {
        return batch.clone();
    }
    let rows_idx: Vec<usize> = (0..batch.len()).collect();
    let parts = par::map_chunks_guided(&rows_idx, threads, OVERSUBSCRIBE, |_, chunk| {
        let mut rows: Vec<u64> = Vec::new();
        let mut row = Vec::new();
        for &r in chunk {
            batch.read_row(r, &mut row);
            let mut work = row.clone();
            let mut found = 0;
            join_group(store, plan, group, 0, &mut work, &mut rows, &mut found);
            if found == 0 {
                rows.extend_from_slice(&row);
            }
        }
        rows
    });
    let mut next = Batch::new(width);
    for rows in &parts {
        for r in rows.chunks(width) {
            next.push_row(r);
        }
    }
    next
}
