//! Physical operators: the row-local steps of a plan over columnar
//! [`Batch`]es — resumable index scans, hash probes, R-tree candidate
//! enumeration, filter masks and OPTIONAL left-joins.
//!
//! [`crate::exec`] builds one pull operator per plan step and chains
//! them; the operators here each map one chunk of probe rows
//! ([`PIPELINE_CHUNK_ROWS`] at a time) to its output. The `Scan` step is
//! a `SeedScan` — a resumable index cursor or an incremental slice of
//! the R-tree candidate set — so producing the first n result rows
//! touches O(n) probe rows, not the whole result set. A sorted
//! candidate set is probed in order, each probe galloping forward
//! through the index from the previous one
//! ([`StoreView::match_objects`]). Build sides (hash
//! tables) may still materialise; probe sides never do. Filters and
//! OPTIONAL groups are row-local, so running them chunk-wise does not
//! change results.
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
use crate::store::{IdTriple, PatternCursor, StoreView, ESTIMATE_CAP};
use ee_util::par;
use std::collections::HashMap;

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
/// is estimated cheaper than the direct scan. The second field names the
/// object variable whose candidate set the matches came from, if any:
/// [`unify`] need not look its ids up in that set again.
fn collect_matches(
    store: StoreView<'_>,
    plan: &Plan,
    slots: &[Slot; 3],
    row: &[u64],
) -> (Vec<IdTriple>, Option<usize>) {
    let fixed = fixed_ids(slots, row);
    let mut matches = Vec::new();
    match object_candidates(plan, slots, row) {
        Some(cands) if candidates_pay(store, cands, &fixed) => {
            store.match_objects(fixed[0], fixed[1], cands, &mut |t| matches.push(t));
            let Slot::Var(v) = slots[2] else {
                unreachable!("object_candidates implies an object variable")
            };
            (matches, Some(v))
        }
        _ => {
            store.match_pattern(fixed[0], fixed[1], fixed[2], &mut |t| {
                matches.push(t);
                true
            });
            (matches, None)
        }
    }
}

/// Unify `triple` against `slots` into `work` (a copy of the input row).
/// Returns false on a repeated-variable mismatch or a candidate-set miss;
/// `work` is garbage after a false return and must be re-copied. `from_set`
/// names a variable whose candidate set `triple`'s object came from: its
/// id is a member, and binding it anywhere in the pattern either binds
/// that same id or fails the repeated-variable check, so it is not looked
/// up again.
fn unify(
    plan: &Plan,
    slots: &[Slot; 3],
    triple: IdTriple,
    work: &mut [u64],
    from_set: Option<usize>,
) -> bool {
    let ids = [triple.0, triple.1, triple.2];
    for (slot, &id) in slots.iter().zip(&ids) {
        if let Slot::Var(v) = slot {
            let existing = work[*v];
            if existing == UNBOUND {
                if Some(*v) != from_set {
                    if let Some(cands) = plan.candidates.get(v) {
                        if cands.binary_search(&id).is_err() {
                            return false;
                        }
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

/// The candidate set the `Scan` of pattern `pi` enumerates, with the
/// object variable it binds: the pattern's R-tree pushdown set, when it
/// has one and enumerating it is estimated cheaper than scanning the
/// pattern's index ([`candidates_pay`]). `None` means the step scans the
/// index. The one access-path test for a seed scan: [`SeedScan::new`]
/// takes it, and [`Plan::is_bounded`] reads its size.
pub(crate) fn seed_candidates<'p>(
    store: StoreView<'_>,
    plan: &'p Plan,
    pi: usize,
) -> Option<(usize, &'p [u64])> {
    let slots = &plan.slots[pi];
    let seed = vec![UNBOUND; plan.vars.len()];
    let cands = object_candidates(plan, slots, &seed)
        .filter(|c| candidates_pay(store, c, &fixed_ids(slots, &seed)))?;
    match &slots[2] {
        Slot::Var(v) => Some((*v, cands)),
        _ => unreachable!("object_candidates implies an object variable"),
    }
}

/// The `Scan` step: an incremental enumerator of the first join step,
/// probed by the single all-unbound seed row. Each `next_rows` call
/// touches at most `want` candidate ids (R-tree path) or pauses the index
/// cursor after `want` unified rows (scan path), so the first batch of a
/// selection query does not enumerate the whole pattern.
pub(crate) struct SeedScan {
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
    Scan { pi: usize, cursor: PatternCursor },
}

impl SeedScan {
    /// The source of a plan without required patterns: one all-unbound
    /// row.
    pub(crate) fn unit() -> SeedScan {
        SeedScan { kind: SeedKind::Unit }
    }

    /// Enumerate pattern `pi`.
    pub(crate) fn new(store: StoreView<'_>, plan: &Plan, pi: usize) -> SeedScan {
        if plan.impossible {
            return SeedScan { kind: SeedKind::Done };
        }
        let slots = &plan.slots[pi];
        if slots.iter().any(|s| matches!(s, Slot::Impossible)) {
            return SeedScan { kind: SeedKind::Done };
        }
        let kind = match seed_candidates(store, plan, pi) {
            Some((v, _)) => SeedKind::Candidates { pi, v, next: 0 },
            None => SeedKind::Scan {
                pi,
                cursor: PatternCursor::default(),
            },
        };
        SeedScan { kind }
    }

    /// Produce up to `want` rows (empty ⇔ exhausted, so callers can treat
    /// an empty batch as end-of-input). `touched` counts probe work: raw
    /// index matches scanned or candidate ids enumerated.
    pub(crate) fn next_rows(
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
                            store.match_objects(fixed[0], fixed[1], chunk, &mut |t| {
                                work.copy_from_slice(&seed);
                                if unify(plan, slots, t, &mut work, Some(*v)) {
                                    rows.extend_from_slice(&work);
                                }
                            });
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
                    if unify(plan, slots, t, &mut work, None) {
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

/// The `Probe` step's reusable state: the probe side arrives in
/// chunks; the build side (a hash table over the pattern's constant-only
/// matches) materialises at most once and is probed by every chunk.
pub(crate) struct StepProbe {
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
    pub(crate) fn new(store: StoreView<'_>, plan: &Plan, pi: usize, bound: &[bool]) -> StepProbe {
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
    pub(crate) fn probe(
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
                            if unify(plan, slots, t, &mut work, None) {
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
                    let (matches, from_set) = collect_matches(store, plan, slots, &row);
                    for t in matches {
                        work.copy_from_slice(&row);
                        if unify(plan, slots, t, &mut work, from_set) {
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

/// Evaluate one compiled filter over every row in parallel; returns the
/// keep mask in row order. Rows where the expression errors (e.g. an
/// unbound variable) are dropped, matching SPARQL's error-is-false
/// semantics.
pub(crate) fn filter_mask(store: StoreView<'_>, f: &FilterPlan, batch: &Batch, threads: usize) -> Vec<bool> {
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
    group: &[usize],
    work: &mut Vec<u64>,
    out: &mut Vec<u64>,
    found: &mut usize,
) {
    let Some((&pi, rest)) = group.split_first() else {
        out.extend_from_slice(work);
        *found += 1;
        return;
    };
    let slots = &plan.slots[pi];
    let (matches, from_set) = collect_matches(store, plan, slots, work);
    let snapshot = work.clone();
    for t in matches {
        work.copy_from_slice(&snapshot);
        if unify(plan, slots, t, work, from_set) {
            join_group(store, plan, rest, work, out, found);
        }
    }
    work.copy_from_slice(&snapshot);
}

/// The `LeftJoin` step: left-join one OPTIONAL group (patterns in
/// execution order) onto every row of `batch`. Rows with matches are
/// replaced by their extensions, rows without pass through unchanged.
/// Row-local, so applying it chunk-wise is identical to applying it to
/// the concatenated batch.
pub(crate) fn left_join(
    store: StoreView<'_>,
    plan: &Plan,
    group: &[usize],
    batch: &Batch,
    threads: usize,
) -> Batch {
    let width = plan.vars.len();
    // A group with an unknown constant never matches: every row passes
    // through unextended.
    if group
        .iter()
        .any(|&pi| plan.slots[pi].iter().any(|s| matches!(s, Slot::Impossible)))
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
            join_group(store, plan, group, &mut work, &mut rows, &mut found);
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
