//! The triple store: dictionary-encoded triples in three covering sorted
//! indexes, plus an R-tree over geometry literals.
//!
//! Each index (a private `SortedIndex`) is an immutable sorted run of
//! 12-byte keys at exact capacity, plus a small sorted write delta: keys
//! added since the last fold and tombstones for run keys deleted since. The
//! dictionary issues ids below `u32::MAX`, so each id narrows to a `u32`
//! inside the store while [`IdTriple`] stays `u64` at the API. An id no
//! dictionary can issue — `u64::MAX`, the planner's stand-in for a
//! constant the store has never seen, or anything else past `u32::MAX` —
//! matches nothing, never a truncated real id.
//!
//! Triples arrive one at a time ([`TripleStore::insert_ids`], the write
//! path, into the deltas) or as one batch into an empty store
//! ([`TripleStore::load_ids`], which snapshot opens and batch ingests
//! take): the batch is sorted once per index and the sorted vectors
//! become the runs. [`TripleStore::pack`] folds the deltas into the runs
//! and bulk-loads the spatial index.

use crate::dict::Dictionary;
use crate::term::TermRef;
use ee_geo::{Envelope, RTree};

/// A triple of dictionary ids.
pub type IdTriple = (u64, u64, u64);

/// Cardinality estimates are capped here: the planner only needs relative
/// magnitude, and a capped estimate keeps every join order what it was
/// when estimates walked their index range. An estimate equal to the cap
/// means "at least this many".
pub const ESTIMATE_CAP: usize = 1024;

/// An index folds its write delta into its run once the delta (adds
/// plus tombstones) holds more than `1 / FOLD_DIVISOR` of the run's keys
/// (and more than [`FOLD_MIN`]). A write into a run of n keys shifts
/// about n / (4 · `FOLD_DIVISOR`) delta keys and a fold, amortised,
/// `FOLD_DIVISOR` run keys: at 256 the two meet at runs of about 260k
/// keys.
const FOLD_DIVISOR: usize = 256;

/// The delta size below which an index never folds on a write, so a
/// store built by per-triple inserts does not rewrite a small run on
/// every few writes.
const FOLD_MIN: usize = 256;

/// An index key: three ids in one index's component order, each narrowed
/// to `u32`.
type Key = (u32, u32, u32);

/// An id as an index component; `None` for an id no dictionary issues,
/// which therefore matches nothing.
fn narrow(id: u64) -> Option<u32> {
    u32::try_from(id).ok()
}

/// A pattern component as an index component: `Some(None)` when
/// unbound, `None` for a constant no dictionary issues.
fn narrow_bound(id: Option<u64>) -> Option<Option<u32>> {
    match id {
        None => Some(None),
        Some(id) => narrow(id).map(Some),
    }
}

/// An SPO key back at the API width.
fn widen(&(s, p, o): &Key) -> IdTriple {
    (u64::from(s), u64::from(p), u64::from(o))
}

/// The store.
pub struct TripleStore {
    /// Term dictionary (public read access for the evaluator).
    pub dict: Dictionary,
    /// The three covering indexes. `spo` is also the membership set and
    /// the SPO-order list.
    spo: SortedIndex,
    pos: SortedIndex,
    osp: SortedIndex,
    rtree: RTree<u64>,
    pending_spatial: Vec<(Envelope, u64)>,
}

impl Default for TripleStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            dict: Dictionary::new(),
            spo: SortedIndex::default(),
            pos: SortedIndex::default(),
            osp: SortedIndex::default(),
            rtree: RTree::new(),
            pending_spatial: Vec::new(),
        }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True when the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes allocated for the three indexes — runs plus deltas, by
    /// capacity. A packed store, or one just loaded by
    /// [`load_ids`](Self::load_ids), holds 12 bytes a key: 36 a triple.
    pub fn index_bytes(&self) -> usize {
        [&self.spo, &self.pos, &self.osp].iter().map(|index| index.bytes()).sum()
    }

    /// Insert a triple of terms. Duplicate triples are ignored.
    pub fn insert<'t>(
        &mut self,
        s: impl Into<TermRef<'t>>,
        p: impl Into<TermRef<'t>>,
        o: impl Into<TermRef<'t>>,
    ) {
        let si = self.dict.intern(s);
        let pi = self.dict.intern(p);
        let oi = self.dict.intern(o);
        self.insert_ids(si, pi, oi);
    }

    /// Insert a triple of pre-interned ids.
    ///
    /// # Panics
    ///
    /// On an id of `u32::MAX` or more, which no dictionary issues.
    pub fn insert_ids(&mut self, s: u64, p: u64, o: u64) {
        let key = |id| narrow(id).expect("dictionary ids are below u32::MAX");
        let spo = (key(s), key(p), key(o));
        if !self.spo.insert(spo) {
            return;
        }
        self.pos.insert(Order::Pos.key(spo));
        self.osp.insert(Order::Osp.key(spo));
        if let Some(env) = self.dict.envelope_of(o) {
            // Buffer for bulk-load; ingests pay one STR pack.
            self.pending_spatial.push((env, o));
        }
    }

    /// Remove a triple of terms. Returns `true` when the triple was
    /// present. Unknown terms make this a no-op (they cannot appear in
    /// any triple). Dictionary ids are never reclaimed — term ids stay
    /// stable across deletes, which is what keeps on-disk dictionary
    /// blocks and baked query plans valid.
    pub fn remove<'t>(
        &mut self,
        s: impl Into<TermRef<'t>>,
        p: impl Into<TermRef<'t>>,
        o: impl Into<TermRef<'t>>,
    ) -> bool {
        let (Some(si), Some(pi), Some(oi)) =
            (self.dict.id_of(s), self.dict.id_of(p), self.dict.id_of(o))
        else {
            return false;
        };
        self.remove_ids(si, pi, oi)
    }

    /// Remove a triple of pre-interned ids; `true` when it was present.
    ///
    /// Each index drops the key from its delta, or tombstones it in its
    /// run. The R-tree (and the pending-spatial buffer) deliberately
    /// keeps any entry for the object: spatial candidates are only ever a
    /// candidate *superset*, and rows bind exclusively through index
    /// pattern matches, so a stale geometry id costs one rejected probe,
    /// never a wrong answer.
    ///
    /// Cursor invariant: an active [`PatternCursor`] holds the last key it
    /// delivered, never a position, and resumes by a binary search for
    /// the first key after it. So removing triples between batches is
    /// safe — including the cursor's exact resume key, and a removal or
    /// insert that folds a delta into its run.
    pub fn remove_ids(&mut self, s: u64, p: u64, o: u64) -> bool {
        let (Some(s), Some(p), Some(o)) = (narrow(s), narrow(p), narrow(o)) else {
            return false;
        };
        let spo = (s, p, o);
        if !self.spo.remove(&spo) {
            return false;
        }
        self.pos.remove(&Order::Pos.key(spo));
        self.osp.remove(&Order::Osp.key(spo));
        true
    }

    /// Load `triples` into an **empty** store — the one batch path, taken
    /// by snapshot opens and batch ingests. The input may come in any
    /// order and repeat triples: it is sorted and deduplicated here, and
    /// each index's sorted vector becomes its run as it is, at exact
    /// capacity. The result is the store that
    /// [`TripleStore::insert_ids`] per triple and then
    /// [`pack`](TripleStore::pack) build, which the tests assert; call
    /// `pack` after it to index the geometries spatially.
    ///
    /// # Panics
    ///
    /// When the store already holds triples (a load replaces the runs
    /// and would drop them), and on an id of `u32::MAX` or more.
    pub fn load_ids(&mut self, triples: Vec<IdTriple>) {
        assert!(self.is_empty(), "load_ids requires an empty store");
        let key = |id| narrow(id).expect("dictionary ids are below u32::MAX");
        // Narrowing keeps the order, so the keys sort as the ids would.
        let mut keys: Vec<Key> = triples
            .into_iter()
            .map(|(s, p, o)| (key(s), key(p), key(o)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        // Trim before the other two runs are allocated: the collect may
        // have reused the input's 24-byte-a-triple buffer, and dedup
        // leaves its tail spare too.
        keys.shrink_to_fit();
        let permuted = |order: Order| {
            let mut run: Vec<Key> = keys.iter().map(|&k| order.key(k)).collect();
            run.sort_unstable();
            SortedIndex::from_sorted(run)
        };
        self.pos = permuted(Order::Pos);
        self.osp = permuted(Order::Osp);
        for &(_, _, o) in &keys {
            if let Some(env) = self.dict.envelope_of(u64::from(o)) {
                self.pending_spatial.push((env, u64::from(o)));
            }
        }
        self.spo = SortedIndex::from_sorted(keys);
    }

    /// Membership test on pre-interned ids.
    pub fn contains_ids(&self, s: u64, p: u64, o: u64) -> bool {
        match (narrow(s), narrow(p), narrow(o)) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&(s, p, o)),
            _ => false,
        }
    }

    /// Every triple as raw dictionary ids, in SPO order. The storage
    /// layer streams snapshots from this.
    pub fn id_triples(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.spo.keys_from(Finger::default()).map(|k| widen(&k))
    }

    /// Finish a batch ingest: pack everything per-triple writes left
    /// loose. Call after batch inserts; answers never depend on it, only
    /// the cost of a read and the memory held do.
    ///
    /// - The spatial index is bulk-(re)loaded from every geometry object
    ///   inserted so far. Until then new geometries wait in a pending
    ///   list that [`visit_spatial`](Self::visit_spatial) scans linearly;
    ///   the list's buffer is freed, not kept for the next ingest.
    /// - Each index folds its write delta into its run, in place, and
    ///   frees the delta's buffers.
    pub fn pack(&mut self) {
        for index in [&mut self.spo, &mut self.pos, &mut self.osp] {
            index.fold();
        }
        self.pack_spatial();
    }

    /// The spatial part of [`pack`](Self::pack).
    fn pack_spatial(&mut self) {
        if self.pending_spatial.is_empty() {
            return;
        }
        // Existing entries come back out of the tree with their stored
        // envelopes, which avoids keeping a second copy.
        let mut items = std::mem::take(&mut self.pending_spatial);
        items.reserve(self.rtree.len());
        let mut seen: std::collections::HashSet<u64> = items.iter().map(|(_, id)| *id).collect();
        let everything = Envelope::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY);
        self.rtree.visit_entries(&everything, &mut |env, &id| {
            if seen.insert(id) {
                items.push((*env, id));
            }
        });
        self.rtree = RTree::bulk_load(items);
    }

    /// Geometry-literal ids whose envelope intersects `query` (the spatial
    /// pushdown primitive); an id may come twice.
    pub fn spatial_candidates(&self, query: &Envelope) -> Vec<u64> {
        let mut out = Vec::new();
        self.visit_spatial(query, &mut |_, id| out.push(id));
        out
    }

    /// Hand `f` every geometry-literal id whose envelope intersects
    /// `query`, with that envelope as the spatial index stores it — the
    /// planner decides some predicates from it without fetching the
    /// geometry. Not-yet-packed entries are included, so correctness never
    /// depends on calling [`pack`](Self::pack); an id may come twice.
    pub fn visit_spatial(&self, query: &Envelope, f: &mut impl FnMut(&Envelope, u64)) {
        self.rtree.visit_entries(query, &mut |env, &id| f(env, id));
        for (env, id) in &self.pending_spatial {
            if env.intersects(query) {
                f(env, *id);
            }
        }
    }

    /// All triples matching a pattern of optional ids, via the best
    /// index. The callback returns `false` to stop early.
    pub fn match_pattern<F: FnMut(IdTriple) -> bool>(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        o: Option<u64>,
        f: &mut F,
    ) {
        let mut cursor = PatternCursor::default();
        self.match_pattern_from(s, p, o, &mut cursor, f);
    }

    /// The index that answers patterns enumerated in `order`.
    fn index(&self, order: Order) -> &SortedIndex {
        match order {
            Order::Spo => &self.spo,
            Order::Pos => &self.pos,
            Order::Osp => &self.osp,
        }
    }

    /// Resumable form of [`Self::match_pattern`]: enumerates matches in the same
    /// order, but a callback returning `false` *pauses* the enumeration
    /// instead of abandoning it — the cursor remembers the pause point and
    /// the next call picks up strictly after the last delivered triple.
    /// Start from `PatternCursor::default()`; [`PatternCursor::is_done`]
    /// reports exhaustion. A resume is a binary search for the first key
    /// after the last delivered one, in the run and in the delta, so
    /// pulling a total of k matches in batches costs O(k + batches ·
    /// log n) — this is what lets the pipelined executor's index scans
    /// yield a batch at a time without rescanning from the start.
    ///
    /// Matches come in the key order of the index that answers the
    /// pattern's shape — `spo` when the subject is bound (or nothing is),
    /// `pos` when the predicate is bound and the subject is not, `osp`
    /// when only the object is. The bound components fix a prefix of its
    /// keys; an object bound behind an unbound predicate is filtered out
    /// of the subject's range.
    pub fn match_pattern_from<F: FnMut(IdTriple) -> bool>(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        o: Option<u64>,
        cursor: &mut PatternCursor,
        f: &mut F,
    ) {
        if cursor.done {
            return;
        }
        // A constant no dictionary issues matches nothing.
        let (Some(s), Some(p), Some(o)) = (narrow_bound(s), narrow_bound(p), narrow_bound(o)) else {
            cursor.done = true;
            return;
        };
        let order = Order::of(s, p, o);
        let index = self.index(order);
        let (lo, hi) = key_bounds(order.key((s, p, o)));
        // Resume strictly after the last delivered triple, mapped into
        // this index's component order.
        let at = match cursor.last {
            Some(t) => {
                let key = |id| narrow(id).expect("a delivered triple's ids are narrow");
                let last = order.key((key(t.0), key(t.1), key(t.2)));
                index.seek(|k| *k <= last)
            }
            None => index.seek(|k| *k < lo),
        };
        for k in index.keys_from(at).take_while(|k| *k <= hi) {
            let t = order.triple(k);
            if o.is_none_or(|o| o == t.2) && !f(widen(&t)) {
                cursor.last = Some(widen(&t));
                return;
            }
        }
        cursor.done = true;
    }

    /// The matches of `(s, p, object)` for each of `objects` in turn, each
    /// object's in the order [`match_pattern`](Self::match_pattern) gives
    /// them — the probe of a sorted R-tree candidate set. `objects` must
    /// ascend (repeats allowed): every probe then starts at or after the
    /// previous one in the same index, so it gallops forward from there
    /// (O(log gap)) instead of searching the whole index.
    pub fn match_objects(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        objects: &[u64],
        f: &mut impl FnMut(IdTriple),
    ) {
        debug_assert!(objects.is_sorted(), "objects ascend");
        let (Some(s), Some(p)) = (narrow_bound(s), narrow_bound(p)) else {
            return;
        };
        let order = Order::of(s, p, Some(0));
        let index = self.index(order);
        let mut at = Finger::default();
        for &o in objects {
            // Objects ascend: past the first id no dictionary issues, no
            // object can match.
            let Some(o) = narrow(o) else {
                return;
            };
            let (lo, hi) = key_bounds(order.key((s, p, Some(o))));
            at = index.gallop(at, |k| *k < lo);
            for k in index.keys_from(at).take_while(|k| *k <= hi) {
                let t = order.triple(k);
                if t.2 == o {
                    f(widen(&t));
                }
            }
        }
    }

    /// Estimated result count of a pattern (exact for indexed lookups,
    /// `len()` for the unbound pattern) — drives join ordering. Estimates
    /// are capped at [`ESTIMATE_CAP`]; a subject-bound pattern is
    /// estimated from its subject (and predicate) alone. Every shape
    /// counts its key range in the run and the delta by binary search.
    pub fn estimate(&self, s: Option<u64>, p: Option<u64>, o: Option<u64>) -> usize {
        // A component no dictionary issues narrows to `None`: no matches.
        let count = |index: &SortedIndex, first: u64, second: Option<u64>| {
            let (Some(first), Some(second)) = (narrow(first), narrow_bound(second)) else {
                return 0;
            };
            let (lo, hi) = key_bounds((Some(first), second, None));
            index.count(&lo, &hi).min(ESTIMATE_CAP)
        };
        match (s, p, o) {
            (None, None, None) => self.len(),
            (Some(s), pp, _) => count(&self.spo, s, pp),
            (None, Some(p), oo) => count(&self.pos, p, oo),
            (None, None, Some(o)) => count(&self.osp, o, None),
        }
    }

    /// Iterate every triple (term-resolved), in SPO-id order, for export
    /// and interlinking.
    pub fn triples(&self) -> impl Iterator<Item = (TermRef<'_>, TermRef<'_>, TermRef<'_>)> {
        self.id_triples()
            .map(move |(s, p, o)| (self.dict.term(s), self.dict.term(p), self.dict.term(o)))
    }
}

/// The least and greatest keys with a pattern's bound components (in an
/// index's component order): unbound components span `0..=u32::MAX`.
fn key_bounds((a, b, c): (Option<u32>, Option<u32>, Option<u32>)) -> (Key, Key) {
    let lo = (a.unwrap_or(0), b.unwrap_or(0), c.unwrap_or(0));
    let hi = (a.unwrap_or(u32::MAX), b.unwrap_or(u32::MAX), c.unwrap_or(u32::MAX));
    (lo, hi)
}

/// Pause/resume state for [`TripleStore::match_pattern_from`] and
/// [`StoreView::match_pattern_from`]: the last triple delivered. Both
/// enumerate in the index order of the pattern's shape and resume
/// strictly after that triple, so a cursor paused on one view continues
/// identically on any view of the same triples — the base of a newer
/// head through an overlay rebuilt for the same commit included. Reusing
/// it for a different pattern is a logic error (the resume key would
/// skip or repeat matches).
#[derive(Debug, Clone, Default)]
pub struct PatternCursor {
    /// Last triple delivered before a pause; the enumeration resumes
    /// exclusively after it.
    last: Option<IdTriple>,
    /// The enumeration ran to the end.
    done: bool,
}

impl PatternCursor {
    /// True once the pattern's matches are exhausted.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

/// The component order of the index that answers a pattern shape, which
/// is the order its matches are enumerated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Subject bound, or nothing bound: the `spo` index.
    Spo,
    /// Predicate bound, subject not: `pos`.
    Pos,
    /// Only the object bound: `osp`.
    Osp,
}

impl Order {
    fn of<T>(s: Option<T>, p: Option<T>, o: Option<T>) -> Order {
        match (s, p, o) {
            (Some(_), _, _) | (None, None, None) => Order::Spo,
            (None, Some(_), _) => Order::Pos,
            (None, None, Some(_)) => Order::Osp,
        }
    }

    /// An SPO triple (or pattern) in this order's component order.
    fn key<T>(self, (s, p, o): (T, T, T)) -> (T, T, T) {
        match self {
            Order::Spo => (s, p, o),
            Order::Pos => (p, o, s),
            Order::Osp => (o, s, p),
        }
    }

    /// A key in this order back in SPO order.
    fn triple<T>(self, (a, b, c): (T, T, T)) -> (T, T, T) {
        match self {
            Order::Spo => (a, b, c),
            Order::Pos => (c, a, b),
            Order::Osp => (b, c, a),
        }
    }
}

/// One covering index: an immutable sorted run of keys, plus a small
/// sorted write delta over it.
///
/// - `run` ascends without repeats and sits at exact capacity: 12 bytes
///   a key.
/// - `added` ascends and holds the keys inserted since the last fold,
///   none of them in `run`.
/// - `removed` ascends and holds tombstones: the run keys deleted since
///   the last fold.
///
/// The index's keys are `run` minus `removed`, merged with `added`. A
/// write that takes the delta past its share of the run
/// ([`FOLD_DIVISOR`]) folds it in; so does [`TripleStore::pack`].
#[derive(Debug, Default)]
struct SortedIndex {
    run: Vec<Key>,
    added: Vec<Key>,
    removed: Vec<Key>,
}

/// A position in a [`SortedIndex`]: one offset into each of its run,
/// added keys and tombstones, all at the same key.
#[derive(Debug, Clone, Copy, Default)]
struct Finger {
    run: usize,
    added: usize,
    removed: usize,
}

impl SortedIndex {
    /// An index whose run is `keys`, which ascend without repeats.
    fn from_sorted(mut keys: Vec<Key>) -> SortedIndex {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "a run ascends without repeats");
        keys.shrink_to_fit();
        SortedIndex {
            run: keys,
            ..SortedIndex::default()
        }
    }

    fn len(&self) -> usize {
        self.run.len() - self.removed.len() + self.added.len()
    }

    /// Bytes allocated for the run and the delta, by capacity.
    fn bytes(&self) -> usize {
        (self.run.capacity() + self.added.capacity() + self.removed.capacity())
            * std::mem::size_of::<Key>()
    }

    fn contains(&self, key: &Key) -> bool {
        if self.run.binary_search(key).is_ok() {
            self.removed.binary_search(key).is_err()
        } else {
            self.added.binary_search(key).is_ok()
        }
    }

    /// Add `key`; `false` when it was already present. Re-inserting a
    /// tombstoned run key drops its tombstone.
    fn insert(&mut self, key: Key) -> bool {
        if self.run.binary_search(&key).is_ok() {
            match self.removed.binary_search(&key) {
                Ok(i) => {
                    self.removed.remove(i);
                    true
                }
                Err(_) => false,
            }
        } else {
            match self.added.binary_search(&key) {
                Ok(_) => false,
                Err(i) => {
                    self.added.insert(i, key);
                    self.fold_if_full();
                    true
                }
            }
        }
    }

    /// Delete `key`; `false` when it was absent. An added key leaves the
    /// delta; a run key gets a tombstone.
    fn remove(&mut self, key: &Key) -> bool {
        if self.run.binary_search(key).is_ok() {
            match self.removed.binary_search(key) {
                Ok(_) => false,
                Err(i) => {
                    self.removed.insert(i, *key);
                    self.fold_if_full();
                    true
                }
            }
        } else {
            match self.added.binary_search(key) {
                Ok(i) => {
                    self.added.remove(i);
                    true
                }
                Err(_) => false,
            }
        }
    }

    fn fold_if_full(&mut self) {
        let delta = self.added.len() + self.removed.len();
        if delta > FOLD_MIN && delta > self.run.len() / FOLD_DIVISOR {
            self.fold();
        }
    }

    /// Fold the delta into the run, in place: drop the tombstoned keys,
    /// grow the run by the added keys alone and merge them in from the
    /// back, so no second copy of the run is ever made. The run ends at
    /// exact capacity and the delta's buffers are freed.
    fn fold(&mut self) {
        if self.added.is_empty() && self.removed.is_empty() {
            return;
        }
        let removed = std::mem::take(&mut self.removed);
        if !removed.is_empty() {
            // Tombstones are run keys, in run order.
            let mut dead = removed.iter().peekable();
            self.run.retain(|k| dead.next_if(|d| *d == k).is_none());
        }
        let added = std::mem::take(&mut self.added);
        let kept = self.run.len();
        self.run.reserve_exact(added.len());
        self.run.resize(kept + added.len(), (0, 0, 0));
        // Merge from the back: the slot written is `i + j - 1`, never
        // below the next run key to read (`i - 1`), so no unread key is
        // overwritten.
        let (mut i, mut j) = (kept, added.len());
        for slot in (0..self.run.len()).rev() {
            if j == 0 {
                break;
            }
            if i > 0 && self.run[i - 1] > added[j - 1] {
                self.run[slot] = self.run[i - 1];
                i -= 1;
            } else {
                self.run[slot] = added[j - 1];
                j -= 1;
            }
        }
        self.run.shrink_to_fit();
    }

    /// The position of the first key for which `before` is false —
    /// `before` holds on a prefix of the keys — by binary search.
    fn seek(&self, before: impl Fn(&Key) -> bool) -> Finger {
        Finger {
            run: self.run.partition_point(&before),
            added: self.added.partition_point(&before),
            removed: self.removed.partition_point(&before),
        }
    }

    /// [`seek`](Self::seek) from `from`, which must not lie past the
    /// answer: gallops forward from it, so a probe just ahead of the
    /// last one costs O(log gap), not O(log n).
    fn gallop(&self, from: Finger, before: impl Fn(&Key) -> bool) -> Finger {
        Finger {
            run: gallop(&self.run, from.run, &before),
            added: gallop(&self.added, from.added, &before),
            removed: gallop(&self.removed, from.removed, &before),
        }
    }

    /// The index's keys from `at` on, in order.
    fn keys_from(&self, at: Finger) -> Keys<'_> {
        Keys {
            run: &self.run[at.run..],
            added: &self.added[at.added..],
            removed: &self.removed[at.removed..],
        }
    }

    /// How many of the index's keys lie in `lo..=hi`, by binary search.
    fn count(&self, lo: &Key, hi: &Key) -> usize {
        let within =
            |keys: &[Key]| keys.partition_point(|k| k <= hi) - keys.partition_point(|k| k < lo);
        within(&self.run) - within(&self.removed) + within(&self.added)
    }
}

/// The first offset at or after `from` in `keys` for which `before` is
/// false, found by probing at strides that double from `from` on and
/// then binary-searching the last stride. `before` must hold on
/// `keys[..from]`.
fn gallop(keys: &[Key], from: usize, before: &impl Fn(&Key) -> bool) -> usize {
    let rest = &keys[from..];
    // `rest[..lo]` all lie before; the answer is in `lo..=hi`.
    let (mut lo, mut step) = (0, 1);
    while lo + step <= rest.len() && before(&rest[lo + step - 1]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(rest.len());
    from + lo + rest[lo..hi].partition_point(before)
}

/// The keys of a [`SortedIndex`] from a [`Finger`] on: run keys without
/// a tombstone, merged with the added keys.
struct Keys<'a> {
    run: &'a [Key],
    added: &'a [Key],
    removed: &'a [Key],
}

impl Iterator for Keys<'_> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        loop {
            let from_run = match (self.run.first(), self.added.first()) {
                (Some(r), Some(a)) => r < a,
                (run, _) => run.is_some(),
            };
            if !from_run {
                let (&a, rest) = self.added.split_first()?;
                self.added = rest;
                return Some(a);
            }
            let (&r, rest) = self.run.split_first()?;
            self.run = rest;
            // Tombstones are run keys and ascend with the run, so the
            // next one is `r`'s or a later key's.
            if let Some((_, rest)) = self.removed.split_first().filter(|(&d, _)| d == r) {
                self.removed = rest;
                continue;
            }
            return Some(r);
        }
    }
}

/// Convenience for tests and loaders: is the exact triple present?
impl TripleStore {
    /// Membership test on terms.
    pub fn contains<'t>(
        &self,
        s: impl Into<TermRef<'t>>,
        p: impl Into<TermRef<'t>>,
        o: impl Into<TermRef<'t>>,
    ) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.id_of(s),
            self.dict.id_of(p),
            self.dict.id_of(o),
        ) else {
            return false;
        };
        self.contains_ids(s, p, o)
    }
}

/// The difference between the store's current state and a historical
/// commit, expressed over the **current** dictionary ids: triples to
/// hide (inserted after the as-of commit, still present in the base) and
/// triples to add back (deleted after it, absent from the base). Built
/// by [`crate::storage::Store::as_of`] from the immutable commit log;
/// the overlay is proportional to the churn since the commit, never to
/// the store size.
#[derive(Debug, Clone, Default)]
pub struct Novelty {
    hide: std::collections::HashSet<IdTriple>,
    /// The adds, deduplicated and disjoint from the base, sorted as keys
    /// of each [`Order`] (indexed by `Order as usize`), so a pattern's
    /// adds merge into the base's matches in the base's index order.
    add: [Vec<IdTriple>; 3],
}

impl Novelty {
    /// Build an overlay from the triples to hide and to add back.
    pub fn new(hide: std::collections::HashSet<IdTriple>, mut add: Vec<IdTriple>) -> Novelty {
        add.sort_unstable();
        add.dedup();
        let sorted = |order: Order| {
            let mut keys: Vec<IdTriple> = add.iter().map(|&t| order.key(t)).collect();
            keys.sort_unstable();
            keys
        };
        let (pos, osp) = (sorted(Order::Pos), sorted(Order::Osp));
        Novelty {
            hide,
            add: [add, pos, osp],
        }
    }

    /// True when the view is the base itself.
    pub fn is_empty(&self) -> bool {
        self.hide.is_empty() && self.add[0].is_empty()
    }

    /// The adds matching a pattern, in `order`, strictly after `after`.
    fn adds_from(
        &self,
        order: Order,
        (s, p, o): (Option<u64>, Option<u64>, Option<u64>),
        after: Option<IdTriple>,
    ) -> impl Iterator<Item = IdTriple> + '_ {
        let keys = &self.add[order as usize];
        let (lead, _, _) = order.key((s, p, o));
        let start = match after {
            Some(t) => keys.partition_point(|&k| k <= order.key(t)),
            None => keys.partition_point(|k| lead.is_some_and(|x| k.0 < x)),
        };
        keys[start..]
            .iter()
            .take_while(move |k| lead.is_none_or(|x| k.0 == x))
            .map(move |&k| order.triple(k))
            .filter(move |&t| pattern_matches(t, s, p, o))
    }
}

/// A read view over a [`TripleStore`], optionally through a [`Novelty`]
/// overlay: the plan/join/exec pipeline runs against this, so the same
/// code answers head queries (`novelty: None`, zero overhead) and
/// historical `as_of` queries (base enumeration minus hidden triples,
/// plus the overlay's adds) without ever duplicating the indexes.
///
/// Enumeration order with an overlay: each pattern yields the view's
/// matches in the index order of its shape, the base's and the overlay's
/// merged — the order a head store holding the same triples gives. So
/// every view of one commit enumerates identically, whichever head its
/// overlay was built on, and a [`PatternCursor`] paused on one resumes
/// on another.
#[derive(Clone, Copy)]
pub struct StoreView<'a> {
    base: &'a TripleStore,
    novelty: Option<&'a Novelty>,
}

impl<'a> From<&'a TripleStore> for StoreView<'a> {
    fn from(base: &'a TripleStore) -> StoreView<'a> {
        StoreView {
            base,
            novelty: None,
        }
    }
}

/// Does `t` match the optional-constant pattern?
fn pattern_matches(t: IdTriple, s: Option<u64>, p: Option<u64>, o: Option<u64>) -> bool {
    s.map(|v| v == t.0).unwrap_or(true)
        && p.map(|v| v == t.1).unwrap_or(true)
        && o.map(|v| v == t.2).unwrap_or(true)
}

impl<'a> StoreView<'a> {
    /// The head view: the store itself, no overlay.
    pub fn head(base: &'a TripleStore) -> StoreView<'a> {
        StoreView {
            base,
            novelty: None,
        }
    }

    /// A historical view through `novelty` (an empty overlay is the head
    /// view).
    pub fn with_novelty(base: &'a TripleStore, novelty: &'a Novelty) -> StoreView<'a> {
        StoreView {
            base,
            novelty: Some(novelty).filter(|n| !n.is_empty()),
        }
    }

    /// The shared term dictionary (ids are append-only, so overlay
    /// triples resolve through the same dictionary as base triples).
    pub fn dict(&self) -> &'a Dictionary {
        &self.base.dict
    }

    /// Triples visible through the view.
    pub fn len(&self) -> usize {
        match self.novelty {
            None => self.base.len(),
            Some(n) => self.base.len() - n.hide.len() + n.add[0].len(),
        }
    }

    /// True when the view holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated result count of a pattern. Overlay adds are counted in
    /// (hidden triples are not subtracted — estimates only drive join
    /// ordering, where a superset is safe).
    pub fn estimate(&self, s: Option<u64>, p: Option<u64>, o: Option<u64>) -> usize {
        let base = self.base.estimate(s, p, o);
        match self.novelty {
            None => base,
            Some(n) => {
                base + n.add[0]
                    .iter()
                    .filter(|&&t| pattern_matches(t, s, p, o))
                    .count()
            }
        }
    }

    /// [`TripleStore::visit_spatial`] through the view, overlay objects
    /// included — candidate sets are used by the executor to *reject*
    /// bindings outside them, so a view that resurrects a deleted
    /// geometry must surface its id here or the row would be silently
    /// dropped. Stale base entries stay (superset semantics).
    pub fn visit_spatial(&self, query: &Envelope, f: &mut impl FnMut(&Envelope, u64)) {
        self.base.visit_spatial(query, f);
        if let Some(n) = self.novelty {
            for &(_, _, o) in &n.add[0] {
                if let Some(env) = self.base.dict.envelope_of(o) {
                    if env.intersects(query) {
                        f(&env, o);
                    }
                }
            }
        }
    }

    /// All view triples matching a pattern; the callback returns `false`
    /// to stop early. See [`StoreView`] for the enumeration order.
    pub fn match_pattern<F: FnMut(IdTriple) -> bool>(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        o: Option<u64>,
        f: &mut F,
    ) {
        let mut cursor = PatternCursor::default();
        self.match_pattern_from(s, p, o, &mut cursor, f);
    }

    /// [`TripleStore::match_objects`] through the view. With an overlay
    /// each object is matched on its own, adds merged in.
    pub fn match_objects(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        objects: &[u64],
        f: &mut impl FnMut(IdTriple),
    ) {
        if self.novelty.is_none() {
            return self.base.match_objects(s, p, objects, f);
        }
        for &o in objects {
            self.match_pattern(s, p, Some(o), &mut |t| {
                f(t);
                true
            });
        }
    }

    /// Resumable form of [`StoreView::match_pattern`], mirroring
    /// [`TripleStore::match_pattern_from`]: a `false` return pauses, the
    /// cursor resumes strictly after the last delivered triple — on this
    /// view or on any other view of the same commit.
    pub fn match_pattern_from<F: FnMut(IdTriple) -> bool>(
        &self,
        s: Option<u64>,
        p: Option<u64>,
        o: Option<u64>,
        cursor: &mut PatternCursor,
        f: &mut F,
    ) {
        let Some(n) = self.novelty else {
            return self.base.match_pattern_from(s, p, o, cursor, f);
        };
        if cursor.done {
            return;
        }
        // Merge the base's matches with the overlay's adds, both in the
        // shape's index order; the base resumes after the last delivered
        // triple whichever side delivered it.
        let order = Order::of(s, p, o);
        let mut adds = n.adds_from(order, (s, p, o), cursor.last).peekable();
        let mut base = PatternCursor {
            last: cursor.last,
            done: false,
        };
        let mut paused = None;
        self.base.match_pattern_from(s, p, o, &mut base, &mut |t| {
            if n.hide.contains(&t) {
                return true;
            }
            while let Some(a) = adds.next_if(|&a| order.key(a) < order.key(t)) {
                if !f(a) {
                    paused = Some(a);
                    return false;
                }
            }
            let more = f(t);
            if !more {
                paused = Some(t);
            }
            more
        });
        if paused.is_none() {
            paused = adds.find(|&a| !f(a));
        }
        match paused {
            Some(t) => cursor.last = Some(t),
            None => cursor.done = true,
        }
    }

    /// Every view triple as ids, sorted SPO — the canonical content
    /// comparison the as-of identity tests use.
    #[cfg(test)]
    pub fn id_triples_sorted(&self) -> Vec<IdTriple> {
        let Some(n) = self.novelty else {
            return self.base.id_triples().collect();
        };
        let mut out: Vec<IdTriple> = self
            .base
            .id_triples()
            .filter(|t| !n.hide.contains(t))
            .chain(n.add[0].iter().copied())
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use std::collections::BTreeSet;

    fn t(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn store() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert(&t("a"), &t("knows"), &t("b"));
        st.insert(&t("a"), &t("knows"), &t("c"));
        st.insert(&t("b"), &t("knows"), &t("c"));
        st.insert(&t("a"), &t("age"), &Term::integer(30));
        st
    }

    fn collect(
        st: &TripleStore,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> Vec<IdTriple> {
        let sid = s.map(|x| st.dict.id_of(x).unwrap());
        let pid = p.map(|x| st.dict.id_of(x).unwrap());
        let oid = o.map(|x| st.dict.id_of(x).unwrap());
        let mut out = Vec::new();
        st.match_pattern(sid, pid, oid, &mut |t| {
            out.push(t);
            true
        });
        out.sort_unstable();
        out
    }

    /// The index path and a linear scan of the triple list agree on
    /// every pattern shape.
    #[test]
    fn both_modes_agree_on_all_patterns() {
        let st = store();
        let a = t("a");
        let knows = t("knows");
        let c = t("c");
        let cases: Vec<(Option<&Term>, Option<&Term>, Option<&Term>)> = vec![
            (None, None, None),
            (Some(&a), None, None),
            (None, Some(&knows), None),
            (None, None, Some(&c)),
            (Some(&a), Some(&knows), None),
            (None, Some(&knows), Some(&c)),
            (Some(&a), Some(&knows), Some(&c)),
        ];
        for (s, p, o) in cases {
            let id = |x: Option<&Term>| x.map(|x| st.dict.id_of(x).unwrap());
            let (sid, pid, oid) = (id(s), id(p), id(o));
            let scanned: Vec<IdTriple> = st
                .id_triples()
                .filter(|&tr| pattern_matches(tr, sid, pid, oid))
                .collect();
            assert!(!scanned.is_empty(), "pattern {s:?} {p:?} {o:?} matches");
            assert_eq!(collect(&st, s, p, o), scanned, "pattern {s:?} {p:?} {o:?}");
        }
    }

    #[test]
    fn match_pattern_from_resumes_identically() {
        // Pulling 1..=3 triples per resume must enumerate exactly what a
        // one-shot match_pattern delivers, in the same order, for every
        // pattern shape.
        let st = store();
        let a = t("a");
        let knows = t("knows");
        let c = t("c");
        let id = |x: &Term| st.dict.id_of(x).unwrap();
        let cases = [
            (None, None, None),
            (Some(id(&a)), None, None),
            (None, Some(id(&knows)), None),
            (None, None, Some(id(&c))),
            (Some(id(&a)), Some(id(&knows)), None),
            (None, Some(id(&knows)), Some(id(&c))),
            (Some(id(&a)), None, Some(id(&c))),
            (Some(id(&a)), Some(id(&knows)), Some(id(&c))),
        ];
        for (s, p, o) in cases {
            let mut oneshot = Vec::new();
            st.match_pattern(s, p, o, &mut |t| {
                oneshot.push(t);
                true
            });
            for chunk in 1..=3usize {
                let mut cursor = PatternCursor::default();
                let mut resumed = Vec::new();
                while !cursor.is_done() {
                    let mut got = 0;
                    st.match_pattern_from(s, p, o, &mut cursor, &mut |t| {
                        resumed.push(t);
                        got += 1;
                        got < chunk
                    });
                }
                assert_eq!(
                    resumed, oneshot,
                    "pattern {s:?} {p:?} {o:?} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut st = store();
        assert_eq!(st.len(), 4);
        st.insert(&t("a"), &t("knows"), &t("b"));
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn contains_checks_membership() {
        let st = store();
        assert!(st.contains(&t("a"), &t("knows"), &t("b")));
        assert!(!st.contains(&t("c"), &t("knows"), &t("a")));
        assert!(!st.contains(&t("zz"), &t("knows"), &t("b")), "unknown term");
    }

    #[test]
    fn early_termination() {
        let st = store();
        let mut count = 0;
        st.match_pattern(None, None, None, &mut |_| {
            count += 1;
            count < 2
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn load_ids_matches_per_triple_inserts() {
        // Unsorted input with repeats through load_ids, against the same
        // triples inserted one at a time: both packed, a reader sees the
        // same store — triples, matches, estimates (every predicate's
        // included) and spatial candidates — held in the same bytes.
        let mut rng = ee_util::rng::Rng::seed_from(0x10ad);
        let pool: Vec<Term> = (0..30)
            .map(|i| t(&format!("n{i}")))
            .chain((0..20).map(|i| Term::wkt(format!("POINT ({} {})", i % 5, i / 5))))
            .collect();
        let n = pool.len() as u64;
        let mut triples: Vec<IdTriple> = (0..600)
            .map(|_| (rng.below(n), rng.below(5), rng.below(n)))
            .collect();
        // Repeats, some adjacent and some far apart.
        triples.extend_from_within(..100);
        triples.insert(7, triples[6]);
        assert!(!triples.is_sorted());
        let fresh = || {
            let mut st = TripleStore::new();
            for term in &pool {
                st.dict.intern(term);
            }
            st
        };
        let mut inserted = fresh();
        for &(s, p, o) in &triples {
            inserted.insert_ids(s, p, o);
        }
        inserted.pack();
        let mut loaded = fresh();
        loaded.load_ids(triples.clone());
        loaded.pack();

        let distinct: BTreeSet<IdTriple> = triples.iter().copied().collect();
        assert_eq!(loaded.len(), distinct.len());
        assert!(loaded.len() < triples.len(), "the input repeats triples");
        assert_eq!(loaded.index_bytes(), inserted.index_bytes());
        let probes: Vec<IdTriple> =
            triples.iter().copied().step_by(7).chain([(n, n, n)]).collect();
        let windows = [
            Envelope::new(0.0, 0.0, 2.0, 1.0),
            Envelope::new(1.5, 1.5, 9.0, 9.0),
            Envelope::new(-10.0, -10.0, 10.0, 10.0),
        ];
        let want = observe(&inserted, &probes, &windows);
        assert!(want.spatial.iter().all(|hits| !hits.is_empty()));
        assert_eq!(observe(&loaded, &probes, &windows), want);
    }

    #[test]
    #[should_panic(expected = "load_ids requires an empty store")]
    fn load_ids_into_a_non_empty_store_panics() {
        let mut st = store();
        let (s, p, o) = st.id_triples().next().unwrap();
        st.load_ids(vec![(o, p, s)]);
    }

    #[test]
    fn estimates_reflect_selectivity() {
        let st = store();
        let knows = st.dict.id_of(&t("knows")).unwrap();
        let a = st.dict.id_of(&t("a")).unwrap();
        assert_eq!(st.estimate(None, None, None), 4);
        assert_eq!(st.estimate(None, Some(knows), None), 3);
        assert_eq!(st.estimate(Some(a), Some(knows), None), 2);
    }

    #[test]
    fn spatial_candidates_prune_by_envelope() {
        let mut st = TripleStore::new();
        let has_geom = t("hasGeometry");
        for i in 0..100 {
            let x = i as f64;
            st.insert(
                &t(&format!("f{i}")),
                &has_geom,
                &Term::wkt(format!("POINT ({x} {x})")),
            );
        }
        st.pack();
        let hits = st.spatial_candidates(&Envelope::new(10.0, 10.0, 20.0, 20.0));
        assert_eq!(hits.len(), 11, "points 10..=20");
    }

    #[test]
    fn spatial_candidates_without_explicit_build() {
        let mut st = TripleStore::new();
        st.insert(&t("f"), &t("hasGeometry"), &Term::wkt("POINT (5 5)"));
        // No pack call: pending entries still found.
        let hits = st.spatial_candidates(&Envelope::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(hits.len(), 1);
        // After build, same answer.
        st.pack();
        let hits = st.spatial_candidates(&Envelope::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn incremental_build_keeps_old_entries() {
        let mut st = TripleStore::new();
        st.insert(&t("f1"), &t("g"), &Term::wkt("POINT (1 1)"));
        st.pack();
        st.insert(&t("f2"), &t("g"), &Term::wkt("POINT (2 2)"));
        st.pack();
        let hits = st.spatial_candidates(&Envelope::new(0.0, 0.0, 3.0, 3.0));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn remove_updates_every_index() {
        let mut st = store();
        assert!(st.remove(&t("a"), &t("knows"), &t("b")));
        assert!(!st.remove(&t("a"), &t("knows"), &t("b")), "double remove");
        assert_eq!(st.len(), 3);
        assert!(!st.contains(&t("a"), &t("knows"), &t("b")));
        assert!(st.contains(&t("a"), &t("knows"), &t("c")));
        // Pattern matching no longer surfaces the removed triple.
        let got = collect(&st, Some(&t("a")), Some(&t("knows")), None);
        assert_eq!(got.len(), 1);
        // Unknown term: no-op.
        assert!(!st.remove(&t("nobody"), &t("knows"), &t("b")));
        // Re-insert after removal works and dedups.
        st.insert(&t("a"), &t("knows"), &t("b"));
        st.insert(&t("a"), &t("knows"), &t("b"));
        assert_eq!(st.len(), 4);
    }

    #[test]
    fn remove_is_safe_mid_stream_in_indexed_mode() {
        // A paused cursor must resume correctly even when the triple it
        // paused on — and others — were removed between batches.
        let mut st = TripleStore::new();
        for i in 0..10 {
            st.insert(&t(&format!("s{i:02}")), &t("p"), &t("o"));
        }
        let p = st.dict.id_of(&t("p")).unwrap();
        let mut cursor = PatternCursor::default();
        let mut first = Vec::new();
        st.match_pattern_from(None, Some(p), None, &mut cursor, &mut |tr| {
            first.push(tr);
            first.len() < 3
        });
        assert_eq!(first.len(), 3);
        // Remove the resume key itself plus a not-yet-seen triple.
        let (ls, lp, lo) = *first.last().unwrap();
        assert!(st.remove_ids(ls, lp, lo));
        assert!(st.remove(&t("s07"), &t("p"), &t("o")));
        let mut rest = Vec::new();
        while !cursor.is_done() {
            st.match_pattern_from(None, Some(p), None, &mut cursor, &mut |tr| {
                rest.push(tr);
                true
            });
        }
        // 10 - 3 delivered - 1 removed-unseen = 6 remaining, none repeated.
        assert_eq!(rest.len(), 6);
        let mut seen: Vec<_> = first.iter().chain(&rest).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 9, "no triple delivered twice");
    }

    /// Pattern constants for one of the eight bound/unbound shapes, taken
    /// from `base` (so a bound component usually matches something).
    fn shape_of(shape: u8, base: IdTriple) -> (Option<u64>, Option<u64>, Option<u64>) {
        (
            (shape & 4 != 0).then_some(base.0),
            (shape & 2 != 0).then_some(base.1),
            (shape & 1 != 0).then_some(base.2),
        )
    }

    /// What [`TripleStore::estimate`] answered when it walked index
    /// ranges: `len` for the unbound pattern, else the matches of the
    /// bound components it consults (a bound subject ignores the object),
    /// capped at [`ESTIMATE_CAP`].
    fn walked_estimate(
        model: &BTreeSet<IdTriple>,
        s: Option<u64>,
        p: Option<u64>,
        o: Option<u64>,
    ) -> usize {
        let walk = |s, p, o| {
            let n = model.iter().filter(|&&t| pattern_matches(t, s, p, o)).count();
            n.min(ESTIMATE_CAP)
        };
        match (s, p, o) {
            (None, None, None) => model.len(),
            (Some(s), p, _) => walk(Some(s), p, None),
            (None, Some(p), o) => walk(None, Some(p), o),
            (None, None, Some(o)) => walk(None, None, Some(o)),
        }
    }

    #[test]
    fn store_agrees_with_model_under_random_churn() {
        let mut rng = ee_util::rng::Rng::seed_from(0x5ca7);
        // Interning the term pool first gives its terms ids `0..n`, so
        // the model's id triples compare directly. The pool is sized so
        // the churn takes the deltas past the fold threshold again and
        // again; every seventh round also packs.
        let pool: Vec<Term> = (0..10)
            .map(|i| t(&format!("n{i}")))
            .chain((0..2).map(Term::integer))
            .chain((0..2).map(|i| Term::wkt(format!("POINT ({i} {i})"))))
            .collect();
        let n = pool.len() as u64;
        let random_triple =
            |rng: &mut ee_util::rng::Rng| (rng.below(n), rng.below(n), rng.below(n));
        // The store starts from a bulk load.
        let mut model: BTreeSet<IdTriple> = (0..150).map(|_| random_triple(&mut rng)).collect();
        let mut st = TripleStore::new();
        for term in &pool {
            st.dict.intern(term);
        }
        st.load_ids(model.iter().copied().collect());
        let mut folds = 0;
        for round in 0..60 {
            // Round 0 checks the bulk load as it stands.
            for _ in 0..if round == 0 { 0 } else { 40 } {
                let (s, p, o) = random_triple(&mut rng);
                let delta = st.delta_len();
                if rng.chance(0.6) {
                    model.insert((s, p, o));
                    st.insert_ids(s, p, o);
                } else {
                    let was = model.remove(&(s, p, o));
                    assert_eq!(st.remove_ids(s, p, o), was, "round {round}");
                }
                if delta >= FOLD_MIN && st.delta_len() == 0 {
                    folds += 1;
                    assert_eq!(st.index_bytes(), 36 * st.len(), "a fold leaves exact runs");
                }
            }
            if round % 7 == 6 {
                st.pack();
                assert_eq!((st.delta_len(), st.index_bytes()), (0, 36 * st.len()));
            }
            // A re-insert of a present triple changes nothing.
            if let Some(&(s, p, o)) = model.iter().nth(round as usize % model.len().max(1)) {
                st.insert_ids(s, p, o);
            }
            let want_all: Vec<IdTriple> = model.iter().copied().collect();
            assert_eq!(st.len(), model.len(), "round {round}");
            // Every shape's estimate, around a present triple and
            // around a random (usually absent) one.
            for around in want_all.first().copied().into_iter().chain([random_triple(&mut rng)]) {
                for shape in 0..8u8 {
                    let (s, p, o) = shape_of(shape, around);
                    assert_eq!(
                        st.estimate(s, p, o),
                        walked_estimate(&model, s, p, o),
                        "round {round} shape {shape}"
                    );
                }
            }
            assert_eq!(
                st.id_triples().collect::<Vec<_>>(),
                want_all,
                "round {round}"
            );
            for _ in 0..20 {
                let (s, p, o) = random_triple(&mut rng);
                assert_eq!(
                    st.contains_ids(s, p, o),
                    model.contains(&(s, p, o)),
                    "round {round}"
                );
            }
            if model.is_empty() {
                continue;
            }
            for shape in 0..8u8 {
                let base = want_all[rng.below(want_all.len() as u64) as usize];
                let (s, p, o) = shape_of(shape, base);
                let want: Vec<IdTriple> = want_all
                    .iter()
                    .copied()
                    .filter(|&tr| pattern_matches(tr, s, p, o))
                    .collect();
                // Paused every `chunk` rows, the store left unchanged.
                let chunk = 1 + rng.below(3) as usize;
                let mut cursor = PatternCursor::default();
                let mut got = Vec::new();
                while !cursor.is_done() {
                    let mut taken = 0;
                    st.match_pattern_from(s, p, o, &mut cursor, &mut |tr| {
                        got.push(tr);
                        taken += 1;
                        taken < chunk
                    });
                }
                got.sort_unstable();
                assert_eq!(got, want, "shape {shape} chunk {chunk}");
            }
            // Galloping object probes, against the model, for every
            // subject/predicate shape and an ascending object list with
            // repeats and an id no dictionary issues.
            let mut objects: Vec<u64> =
                (0..6).map(|_| rng.below(n + 1)).chain([u64::MAX]).collect();
            objects.sort_unstable();
            for shape in 0..4u8 {
                let base = want_all[rng.below(want_all.len() as u64) as usize];
                let (s, p, _) = shape_of(shape << 1, base);
                let mut got = Vec::new();
                st.match_objects(s, p, &objects, &mut |tr| got.push(tr));
                let mut one_by_one = Vec::new();
                for &o in &objects {
                    st.match_pattern(s, p, Some(o), &mut |tr| {
                        one_by_one.push(tr);
                        true
                    });
                }
                assert_eq!(got, one_by_one, "objects {objects:?} shape {shape}");
                let mut want: Vec<IdTriple> = objects
                    .iter()
                    .flat_map(|&o| want_all.iter().filter(move |&&tr| pattern_matches(tr, s, p, Some(o))))
                    .copied()
                    .collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "objects {objects:?} shape {shape}");
            }
            // Removal between batches. Each pause deletes the cursor's
            // resume key and one random triple; the drain must deliver each
            // initial match once, except those deleted before delivery.
            let shape = rng.below(8) as u8;
            let base = *model
                .iter()
                .nth(rng.below(model.len() as u64) as usize)
                .unwrap();
            let (s, p, o) = shape_of(shape, base);
            let initial: BTreeSet<IdTriple> = model
                .iter()
                .copied()
                .filter(|&tr| pattern_matches(tr, s, p, o))
                .collect();
            let mut delivered: Vec<IdTriple> = Vec::new();
            let mut deleted_unseen: BTreeSet<IdTriple> = BTreeSet::new();
            let mut cursor = PatternCursor::default();
            while !cursor.is_done() {
                let before = delivered.len();
                st.match_pattern_from(s, p, o, &mut cursor, &mut |tr| {
                    delivered.push(tr);
                    delivered.len() - before < 2
                });
                let resume_key = (delivered.len() > before).then(|| delivered[delivered.len() - 1]);
                for victim in resume_key.into_iter().chain([random_triple(&mut rng)]) {
                    if !model.remove(&victim) {
                        continue;
                    }
                    if !delivered.contains(&victim) && initial.contains(&victim) {
                        deleted_unseen.insert(victim);
                    }
                    assert!(st.remove_ids(victim.0, victim.1, victim.2));
                }
            }
            let distinct: BTreeSet<IdTriple> = delivered.iter().copied().collect();
            assert_eq!(
                distinct.len(),
                delivered.len(),
                "a triple delivered twice, shape {shape}"
            );
            let want: BTreeSet<IdTriple> = initial.difference(&deleted_unseen).copied().collect();
            assert_eq!(distinct, want, "shape {shape} round {round}");
        }
        assert!(folds >= 2, "the churn crossed the fold threshold {folds} times");
    }

    /// Everything a reader can ask a store: every triple, each shape's
    /// matches around each probe (one-shot, then resumed every 1, 2 and
    /// 3 rows — in enumeration order, not sorted), each shape's
    /// estimate, every predicate's count, and the spatial candidates of
    /// each window with their envelopes, as a set (an unpacked store may
    /// report an id twice).
    #[derive(Debug, PartialEq)]
    struct Observed {
        triples: Vec<IdTriple>,
        matches: Vec<Vec<IdTriple>>,
        estimates: Vec<usize>,
        spatial: Vec<Vec<(u64, [u64; 4])>>,
    }

    fn observe(st: &TripleStore, probes: &[IdTriple], windows: &[Envelope]) -> Observed {
        let mut matches = Vec::new();
        let mut estimates = Vec::new();
        for &probe in probes {
            for shape in 0..8u8 {
                let (s, p, o) = shape_of(shape, probe);
                estimates.push(st.estimate(s, p, o));
                let mut oneshot = Vec::new();
                st.match_pattern(s, p, o, &mut |t| {
                    oneshot.push(t);
                    true
                });
                for chunk in 1..=3usize {
                    let mut cursor = PatternCursor::default();
                    let mut resumed = Vec::new();
                    while !cursor.is_done() {
                        let mut taken = 0;
                        st.match_pattern_from(s, p, o, &mut cursor, &mut |t| {
                            resumed.push(t);
                            taken += 1;
                            taken < chunk
                        });
                    }
                    matches.push(resumed);
                }
                matches.push(oneshot);
            }
        }
        for p in 0..st.dict.len() as u64 {
            estimates.push(st.estimate(None, Some(p), None));
        }
        let spatial = windows
            .iter()
            .map(|w| {
                let mut hits = Vec::new();
                st.visit_spatial(w, &mut |env, id| {
                    hits.push((id, [env.min_x, env.min_y, env.max_x, env.max_y].map(f64::to_bits)));
                });
                hits.sort_unstable();
                hits.dedup();
                hits
            })
            .collect();
        Observed {
            triples: st.id_triples().collect(),
            matches,
            estimates,
            spatial,
        }
    }

    #[test]
    fn pack_changes_no_answer() {
        let mut rng = ee_util::rng::Rng::seed_from(0x9ac4);
        let pool: Vec<Term> = (0..40)
            .map(|i| t(&format!("n{i}")))
            .chain((0..8).map(Term::integer))
            .chain((0..30).map(|i| Term::wkt(format!("POINT ({} {})", i % 7, i / 7))))
            .chain((0..6).map(|i| {
                let j = i + 2;
                Term::wkt(format!("POLYGON (({i} 0, {j} 0, {j} 3, {i} 3, {i} 0))"))
            }))
            .collect();
        let n = pool.len() as u64;
        // Objects below `objects`: the churn leaves the polygons (the
        // pool's last six) to the bulk load, so a pack must carry the
        // R-tree's old entries over.
        let random_triple = |rng: &mut ee_util::rng::Rng, objects: u64| {
            let s = rng.below(40);
            let p = rng.below(6);
            (s, p, rng.below(objects))
        };
        let windows: Vec<Envelope> = (0..12)
            .map(|_| {
                let (x, y) = (rng.range_f64(-1.0, 8.0), rng.range_f64(-1.0, 5.0));
                Envelope::new(x, y, x + rng.range_f64(0.0, 4.0), y + rng.range_f64(0.0, 4.0))
            })
            .chain([Envelope::new(-10.0, -10.0, 10.0, 10.0)])
            .collect();
        // Per-triple inserts (with churn, so packing starts from a
        // bulk load and from nothing), against the same triples
        // bulk-loaded.
        for from_bulk in [false, true] {
            let mut inserted = TripleStore::new();
            for term in &pool {
                inserted.dict.intern(term);
            }
            if from_bulk {
                let first: Vec<IdTriple> = (0..300).map(|_| random_triple(&mut rng, n)).collect();
                inserted.load_ids(first);
                inserted.pack();
                assert_eq!(inserted.delta_len(), 0);
            }
            for _ in 0..1500 {
                let (s, p, o) = random_triple(&mut rng, n - 6);
                if rng.chance(0.8) {
                    inserted.insert_ids(s, p, o);
                } else {
                    inserted.remove_ids(s, p, o);
                }
            }
            assert!(inserted.delta_len() > 0);
            let probes: Vec<IdTriple> = inserted
                .id_triples()
                .step_by(97)
                .chain([random_triple(&mut rng, n), (n, n, n)])
                .collect();
            let loose = observe(&inserted, &probes, &windows);
            inserted.pack();
            assert_eq!(inserted.delta_len(), 0);
            let bytes = inserted.index_bytes();
            assert_eq!(bytes, 36 * inserted.len(), "packed runs at exact capacity");
            assert_eq!(inserted.pending_spatial.capacity(), 0, "the pending buffer is freed");
            let packed = observe(&inserted, &probes, &windows);

            let mut bulk = TripleStore::new();
            for term in &pool {
                bulk.dict.intern(term);
            }
            bulk.load_ids(packed.triples.clone());
            bulk.pack();
            let bulk = observe(&bulk, &probes, &windows);

            assert!(packed.triples.len() > 500, "{}", packed.triples.len());
            assert!(packed.spatial.iter().any(|hits| hits.len() > 5));
            assert_eq!(packed, loose, "from_bulk {from_bulk}");
            assert_eq!(packed.triples, bulk.triples, "from_bulk {from_bulk}");
            assert_eq!(packed.matches, bulk.matches, "from_bulk {from_bulk}");
            assert_eq!(packed.estimates, bulk.estimates, "from_bulk {from_bulk}");
            // Removes keep a geometry's spatial entry (candidates are a
            // superset), so the inserted store may also name objects
            // the bulk-loaded one never held.
            let live: std::collections::HashSet<u64> = packed.triples.iter().map(|t| t.2).collect();
            for (got, want) in packed.spatial.iter().zip(&bulk.spatial) {
                let got: Vec<_> = got.iter().filter(|(id, _)| live.contains(id)).copied().collect();
                assert_eq!(&got, want, "from_bulk {from_bulk}");
            }
        }
    }

    #[test]
    fn pack_frees_the_pending_spatial_buffer() {
        let mut st = TripleStore::new();
        for i in 0..100 {
            st.insert(&t(&format!("f{i}")), &t("g"), &Term::wkt(format!("POINT ({i} 0)")));
        }
        assert!(st.pending_spatial.capacity() >= 100);
        st.pack();
        assert_eq!(st.pending_spatial.capacity(), 0);
        assert_eq!(st.spatial_candidates(&Envelope::new(0.0, -1.0, 9.5, 1.0)).len(), 10);
        // A second pack with nothing pending keeps the tree.
        st.pack();
        assert_eq!(st.spatial_candidates(&Envelope::new(0.0, -1.0, 9.5, 1.0)).len(), 10);
    }

    #[test]
    fn predicate_counts_answer_the_capped_estimate() {
        for bulk in [true, false] {
            let mut st = TripleStore::new();
            let (big, small) = (st.dict.intern(&t("big")), st.dict.intern(&t("small")));
            let subjects: Vec<u64> = (0..1500).map(|i| st.dict.intern(&t(&format!("s{i}")))).collect();
            let mut triples: Vec<IdTriple> = subjects.iter().map(|&s| (s, big, small)).collect();
            triples.extend(subjects[..10].iter().map(|&s| (s, small, big)));
            if bulk {
                st.load_ids(triples);
            } else {
                triples.iter().for_each(|&(s, p, o)| st.insert_ids(s, p, o));
            }
            let est = |st: &TripleStore, p| st.estimate(None, Some(p), None);
            assert_eq!((est(&st, big), est(&st, small)), (ESTIMATE_CAP, 10), "bulk {bulk}");
            for &s in &subjects[..600] {
                assert!(st.remove_ids(s, big, small));
            }
            assert_eq!(est(&st, big), 900, "bulk {bulk}");
            for &s in &subjects[..10] {
                assert!(st.remove_ids(s, small, big));
            }
            assert_eq!(est(&st, small), 0, "bulk {bulk}");
            for &s in &subjects[..600] {
                st.insert_ids(s, big, small);
                st.insert_ids(s, big, small);
            }
            assert_eq!(est(&st, big), ESTIMATE_CAP, "bulk {bulk}");
        }
    }

    #[test]
    fn impossible_ids_match_nothing_under_narrow_keys() {
        // `Slot::Impossible` reaches the store as `u64::MAX`; an id past
        // `u32::MAX` whose low half is a real id must not alias it.
        let st = store();
        let model: BTreeSet<IdTriple> = st.id_triples().collect();
        let real = st.id_triples().next().unwrap();
        for bad in [u64::MAX, (1 << 32) | real.0, (1 << 32) | real.1, (1 << 32) | real.2] {
            for pos in 0..3 {
                let mut ids = [real.0, real.1, real.2];
                ids[pos] = bad;
                assert!(!st.contains_ids(ids[0], ids[1], ids[2]));
                for shape in 0..8u8 {
                    let (s, p, o) = shape_of(shape, (ids[0], ids[1], ids[2]));
                    let mut got = Vec::new();
                    let mut cursor = PatternCursor::default();
                    st.match_pattern_from(s, p, o, &mut cursor, &mut |tr| {
                        got.push(tr);
                        true
                    });
                    got.sort_unstable();
                    let want: Vec<IdTriple> =
                        model.iter().copied().filter(|&tr| pattern_matches(tr, s, p, o)).collect();
                    assert_eq!(got, want, "{s:?} {p:?} {o:?}");
                    assert!(cursor.is_done());
                    assert_eq!(st.estimate(s, p, o), walked_estimate(&model, s, p, o));
                }
            }
        }
        let mut st = st;
        assert!(!st.remove_ids(u64::MAX, real.1, real.2));
        assert_eq!(st.len(), model.len());
    }

    #[test]
    fn triples_iterator_resolves_terms() {
        let st = store();
        let all: Vec<_> = st.triples().collect();
        assert_eq!(all.len(), 4);
        assert!(all
            .iter()
            .any(|(s, p, o)| *s == t("a") && *p == t("age") && *o == Term::integer(30)));
    }

    impl TripleStore {
        /// Keys in the three indexes' write deltas, adds plus tombstones.
        fn delta_len(&self) -> usize {
            [&self.spo, &self.pos, &self.osp]
                .iter()
                .map(|index| index.added.len() + index.removed.len())
                .sum()
        }
    }

    /// Every key of `index`, in order.
    fn keys(index: &SortedIndex) -> Vec<Key> {
        index.keys_from(Finger::default()).collect()
    }

    /// A [`SortedIndex`] against a `BTreeSet` of the same keys under
    /// random inserts, deletes, re-inserts of tombstoned keys and packs,
    /// over a key space small enough to repeat keys and large enough to
    /// fold: membership, length, order, every range count, and seeks
    /// by binary search and by galloping from every earlier position.
    #[test]
    fn sorted_index_agrees_with_a_btree_set() {
        let mut rng = ee_util::rng::Rng::seed_from(0x50e7);
        let key = |rng: &mut ee_util::rng::Rng| {
            let mut id = || rng.below(12) as u32;
            (id(), id(), id())
        };
        let mut model: BTreeSet<Key> = (0..900).map(|_| key(&mut rng)).collect();
        let mut index = SortedIndex::from_sorted(model.iter().copied().collect());
        assert_eq!(index.bytes(), 12 * model.len());
        let (mut folds, mut revived) = (0, 0);
        for round in 0..40 {
            for _ in 0..120 {
                let k = key(&mut rng);
                let delta = index.added.len() + index.removed.len();
                if rng.chance(0.5) {
                    revived += usize::from(index.removed.binary_search(&k).is_ok());
                    assert_eq!(index.insert(k), model.insert(k), "insert {k:?}");
                } else {
                    assert_eq!(index.remove(&k), model.remove(&k), "remove {k:?}");
                }
                if delta >= FOLD_MIN && index.added.len() + index.removed.len() == 0 {
                    folds += 1;
                    let run = &index.run;
                    assert_eq!(run.capacity(), run.len(), "a fold leaves the run exact");
                }
            }
            if round % 9 == 8 {
                index.fold();
                assert_eq!(index.bytes(), 12 * model.len(), "round {round}");
            }
            let want: Vec<Key> = model.iter().copied().collect();
            assert_eq!(index.len(), want.len(), "round {round}");
            assert_eq!(keys(&index), want, "round {round}");
            for _ in 0..30 {
                let k = key(&mut rng);
                assert_eq!(index.contains(&k), model.contains(&k), "round {round} {k:?}");
                let (lo, hi) = (k, (k.0, k.1 + rng.below(3) as u32, u32::MAX));
                let want = model.range(lo..=hi).count();
                assert_eq!(index.count(&lo, &hi), want, "count {lo:?}..={hi:?}");
                // A seek lands where the model's range starts, and
                // galloping from any earlier finger lands there too.
                let at = index.seek(|x| *x < k);
                let from_there: Vec<Key> = index.keys_from(at).collect();
                assert_eq!(from_there, model.range(k..).copied().collect::<Vec<_>>(), "seek {k:?}");
                let earlier = index.seek(|x| x.0 < k.0);
                let galloped = index.gallop(earlier, |x| *x < k);
                let offsets = |f: Finger| (f.run, f.added, f.removed);
                assert_eq!(offsets(galloped), offsets(at), "gallop to {k:?}");
                let after = index.seek(|x| *x <= k);
                let want: Vec<Key> = model.iter().copied().filter(|x| *x > k).collect();
                assert_eq!(index.keys_from(after).collect::<Vec<_>>(), want, "after {k:?}");
            }
        }
        assert!(folds >= 2, "{folds} folds");
        assert!(revived > 0, "no tombstoned key was re-inserted");
    }

    /// The keys of a subject's range that lie in the run, in the added
    /// keys and under tombstones interleave: a scan, a paused scan, an
    /// estimate and an object probe across the range see the merged
    /// order, and a re-inserted run key comes back once.
    #[test]
    fn ranges_straddle_run_and_delta() {
        let mut st = TripleStore::new();
        let ids: Vec<u64> = (0..8).map(|i| st.dict.intern(&t(&format!("x{i}")))).collect();
        let (s, o) = (ids[0], ids[7]);
        // The run holds p1, p3, p5; the delta adds p2, p4 and p6 and
        // tombstones p3 and p5 — then p5 comes back.
        st.load_ids([1, 3, 5].map(|p| (s, ids[p], o)).to_vec());
        for p in [2, 4, 6] {
            st.insert_ids(s, ids[p], o);
        }
        assert!(st.remove_ids(s, ids[3], o) && st.remove_ids(s, ids[5], o));
        assert!(!st.remove_ids(s, ids[3], o), "a tombstoned key is absent");
        st.insert_ids(s, ids[5], o);
        st.insert_ids(s, ids[5], o);
        let want: Vec<IdTriple> = [1, 2, 4, 5, 6].map(|p| (s, ids[p], o)).to_vec();
        assert_eq!(st.spo.run.len(), 3, "nothing folded");
        assert_eq!(st.len(), 5);
        assert_eq!(st.id_triples().collect::<Vec<_>>(), want);
        for subject in [Some(s), None] {
            let mut cursor = PatternCursor::default();
            let mut got = Vec::new();
            while !cursor.is_done() {
                st.match_pattern_from(subject, None, Some(o), &mut cursor, &mut |tr| {
                    got.push(tr);
                    false
                });
            }
            assert_eq!(got, want, "subject {subject:?}");
        }
        assert_eq!(st.estimate(Some(s), None, None), 5);
        assert_eq!(st.estimate(None, None, Some(o)), 5);
        assert_eq!(st.estimate(None, Some(ids[3]), None), 0);
        assert_eq!(st.estimate(None, Some(ids[5]), None), 1);
        let mut probed = Vec::new();
        st.match_objects(None, None, &[ids[6], o, o], &mut |tr| probed.push(tr));
        assert_eq!(probed, [want.clone(), want.clone()].concat(), "a repeated object probes twice");
        st.pack();
        assert_eq!((st.spo.run.len(), st.delta_len()), (5, 0));
        assert_eq!(st.id_triples().collect::<Vec<_>>(), want);
    }

    /// A cursor paused on a run key resumes after it when that key is
    /// tombstoned, when it is re-inserted, and when writes between two
    /// batches fold the deltas into new runs — each match delivered once.
    #[test]
    fn a_cursor_resumes_after_a_tombstone_and_a_fold() {
        let mut st = TripleStore::new();
        let p = st.dict.intern(&t("p"));
        let o = st.dict.intern(&t("o"));
        let subjects: Vec<u64> = (0..40).map(|i| st.dict.intern(&t(&format!("s{i:02}")))).collect();
        st.load_ids(subjects.iter().map(|&s| (s, p, o)).collect());
        let filler = st.dict.intern(&t("filler"));
        let mut cursor = PatternCursor::default();
        let mut delivered = Vec::new();
        let batch = |st: &TripleStore, cursor: &mut PatternCursor, delivered: &mut Vec<IdTriple>| {
            let before = delivered.len();
            st.match_pattern_from(None, Some(p), None, cursor, &mut |tr| {
                delivered.push(tr);
                delivered.len() - before < 5
            });
        };
        batch(&st, &mut cursor, &mut delivered);
        // The resume key is tombstoned: the next batch starts after it.
        let last = *delivered.last().unwrap();
        assert!(st.remove_ids(last.0, last.1, last.2));
        batch(&st, &mut cursor, &mut delivered);
        // The new resume key is tombstoned and re-inserted, and a later
        // key is removed: still resumed after it, the removed one skipped.
        let last = *delivered.last().unwrap();
        assert!(st.remove_ids(last.0, last.1, last.2));
        st.insert_ids(last.0, last.1, last.2);
        assert!(st.remove_ids(subjects[20], p, o));
        batch(&st, &mut cursor, &mut delivered);
        // Enough unrelated writes to fold every index between batches.
        for i in 0..2 * FOLD_MIN as i64 {
            let n = st.dict.intern(&Term::integer(i));
            st.insert_ids(filler, filler, n);
        }
        assert!(st.spo.run.len() > subjects.len(), "the deltas folded");
        while !cursor.is_done() {
            batch(&st, &mut cursor, &mut delivered);
        }
        let want: Vec<IdTriple> =
            subjects.iter().filter(|&&s| s != subjects[20]).map(|&s| (s, p, o)).collect();
        assert_eq!(delivered, want);
    }

    #[test]
    fn index_bytes_are_12_a_key_after_load_ids() {
        let mut st = TripleStore::new();
        let ids: Vec<u64> = (0..50).map(|i| st.dict.intern(&t(&format!("n{i}")))).collect();
        // Repeats make `load_ids` deduplicate, which leaves a sorted
        // vector longer than its keys unless the run is trimmed.
        let triples: Vec<IdTriple> =
            (0..3000).map(|i| (ids[i % 50], ids[i % 7], ids[i % 5])).collect();
        st.load_ids(triples);
        assert_eq!(st.len(), 350);
        assert_eq!(st.index_bytes(), 3 * 12 * st.len());
        assert_eq!(TripleStore::new().index_bytes(), 0);
    }

    /// A store plus a novelty that hides (a knows c) and adds back a
    /// deleted triple (d knows a) — the view should look exactly like
    /// the store did before those two changes.
    fn view_fixture() -> (TripleStore, Novelty) {
        let mut st = store();
        // Intern the resurrected triple's terms, then remove it so the
        // base doesn't contain it (mirrors what Store::as_of does).
        st.insert(&t("d"), &t("knows"), &t("a"));
        let d = st.dict.id_of(&t("d")).unwrap();
        let knows = st.dict.id_of(&t("knows")).unwrap();
        let a = st.dict.id_of(&t("a")).unwrap();
        let c = st.dict.id_of(&t("c")).unwrap();
        assert!(st.remove_ids(d, knows, a));
        let hide: std::collections::HashSet<IdTriple> = [(a, knows, c)].into_iter().collect();
        let nov = Novelty::new(hide, vec![(d, knows, a)]);
        (st, nov)
    }

    fn view_collect(
        view: StoreView<'_>,
        s: Option<u64>,
        p: Option<u64>,
        o: Option<u64>,
    ) -> Vec<IdTriple> {
        let mut out = Vec::new();
        view.match_pattern(s, p, o, &mut |t| {
            out.push(t);
            true
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn view_overlays_hide_and_add() {
        let (st, nov) = view_fixture();
        let view = StoreView::with_novelty(&st, &nov);
        let a = st.dict.id_of(&t("a")).unwrap();
        let c = st.dict.id_of(&t("c")).unwrap();
        let d = st.dict.id_of(&t("d")).unwrap();
        let knows = st.dict.id_of(&t("knows")).unwrap();
        assert_eq!(view.len(), st.len()); // one hidden, one added
        let visible = view.id_triples_sorted();
        assert!(visible.binary_search(&(a, knows, c)).is_err(), "hidden triple visible");
        assert!(visible.binary_search(&(d, knows, a)).is_ok(), "added triple missing");
        assert!(st.contains_ids(a, knows, c) && !st.contains_ids(d, knows, a));
        // Every pattern shape agrees with a materialised reference.
        let reference: Vec<IdTriple> = {
            let mut v: Vec<IdTriple> =
                st.id_triples().filter(|&tr| tr != (a, knows, c)).collect();
            v.push((d, knows, a));
            v.sort_unstable();
            v
        };
        assert_eq!(view.id_triples_sorted(), reference);
        for (s, p, o) in [
            (None, None, None),
            (Some(a), None, None),
            (Some(d), Some(knows), None),
            (None, Some(knows), None),
            (None, Some(knows), Some(a)),
            (None, None, Some(c)),
            (Some(d), Some(knows), Some(a)),
            (Some(a), Some(knows), Some(c)),
        ] {
            let got = view_collect(view, s, p, o);
            let want: Vec<IdTriple> = reference
                .iter()
                .copied()
                .filter(|&tr| pattern_matches(tr, s, p, o))
                .collect();
            assert_eq!(got, want, "pattern {s:?} {p:?} {o:?}");
            assert!(
                view.estimate(s, p, o) >= want.len(),
                "estimate must not undercount"
            );
        }
    }

    #[test]
    fn view_cursor_resumes_across_base_and_overlay() {
        let (st, nov) = view_fixture();
        let view = StoreView::with_novelty(&st, &nov);
        let knows = st.dict.id_of(&t("knows")).unwrap();
        let all = view_collect(view, None, Some(knows), None);
        // Pause after every delivery; resumed enumeration must be
        // identical (as a set) with no duplicates.
        let mut cursor = PatternCursor::default();
        let mut got = Vec::new();
        while !cursor.is_done() {
            view.match_pattern_from(None, Some(knows), None, &mut cursor, &mut |tr| {
                got.push(tr);
                false
            });
        }
        got.sort_unstable();
        assert_eq!(got, all);
    }

    #[test]
    fn head_view_is_transparent() {
        let st = store();
        let view = StoreView::from(&st);
        assert_eq!(view.len(), st.len());
        assert_eq!(
            view.id_triples_sorted(),
            st.id_triples().collect::<Vec<_>>(),
            "head view enumerates the store itself"
        );
    }

    #[test]
    fn view_spatial_candidates_include_resurrected_geometries() {
        let mut st = TripleStore::new();
        let wkt_near = Term::wkt("POINT (1 1)");
        let wkt_far = Term::wkt("POINT (50 50)");
        st.insert(&t("x"), &t("hasGeometry"), &wkt_near);
        st.insert(&t("y"), &t("hasGeometry"), &wkt_far);
        let x = st.dict.id_of(&t("x")).unwrap();
        let geom = st.dict.id_of(&t("hasGeometry")).unwrap();
        let near = st.dict.id_of(&wkt_near).unwrap();
        // Delete the near geometry, then resurrect it through a view.
        assert!(st.remove_ids(x, geom, near));
        st.pack();
        let nov = Novelty::new(Default::default(), vec![(x, geom, near)]);
        let view = StoreView::with_novelty(&st, &nov);
        let query = Envelope::new(0.0, 0.0, 2.0, 2.0);
        let mut cands = Vec::new();
        view.visit_spatial(&query, &mut |env, id| cands.push((*env, id)));
        let point = Envelope::new(1.0, 1.0, 1.0, 1.0);
        assert!(cands.contains(&(point, near)), "overlay geometry must be a candidate");
    }
}
