//! The triple store: dictionary-encoded triples in three covering B-tree
//! indexes, plus an R-tree over geometry literals.
//!
//! The indexes hold 12-byte keys: the dictionary issues ids below
//! `u32::MAX`, so each id narrows to a `u32` inside the store while
//! [`IdTriple`] stays `u64` at the API. An id no dictionary can issue —
//! `u64::MAX`, the planner's stand-in for a constant the store has never
//! seen, or anything else past `u32::MAX` — matches nothing, never a
//! truncated real id.
//!
//! Triples arrive one at a time ([`TripleStore::insert_ids`], the write
//! path) or as one batch into an empty store ([`TripleStore::load_ids`],
//! which snapshot opens and batch ingests take): the batch is sorted
//! once and every index is built from sorted runs, with full nodes and
//! no per-triple tree walk. [`TripleStore::pack`] then bulk-loads the
//! spatial index.

use crate::dict::Dictionary;
use crate::term::TermRef;
use ee_geo::{Envelope, RTree};
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;

/// A triple of dictionary ids.
pub type IdTriple = (u64, u64, u64);

/// Cardinality estimates are capped here: the planner only needs relative
/// magnitude, and exact counts over huge ranges would make planning O(n)
/// per join step. An estimate equal to the cap means "at least this many".
pub const ESTIMATE_CAP: usize = 1024;

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
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
    /// Triples per predicate — the length of each predicate's run in
    /// `pos`, which answers the predicate-only
    /// [`estimate`](TripleStore::estimate) without walking the run.
    pred_counts: HashMap<u32, usize>,
    rtree: RTree<u64>,
    pending_spatial: Vec<(Envelope, u64)>,
    /// A per-triple insert landed since the indexes were last built from
    /// sorted runs, so [`pack`](TripleStore::pack) has nodes to fill.
    inserted_since_pack: bool,
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
            spo: BTreeSet::new(),
            pos: BTreeSet::new(),
            osp: BTreeSet::new(),
            pred_counts: HashMap::new(),
            rtree: RTree::new(),
            pending_spatial: Vec::new(),
            inserted_since_pack: false,
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
        let (s32, p32, o32) = (key(s), key(p), key(o));
        if !self.spo.insert((s32, p32, o32)) {
            return;
        }
        self.pos.insert((p32, o32, s32));
        self.osp.insert((o32, s32, p32));
        self.inserted_since_pack = true;
        *self.pred_counts.entry(p32).or_default() += 1;
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
    /// All three B-tree indexes are updated in place. The R-tree (and the
    /// pending-spatial buffer) deliberately keeps any entry for the
    /// object: spatial candidates are only ever a candidate *superset*,
    /// and rows bind exclusively through B-tree pattern matches, so a
    /// stale geometry id costs one rejected probe, never a wrong answer.
    ///
    /// Cursor invariant: an active [`PatternCursor`] resumes via an
    /// `Excluded(last)` re-seek, so removing triples between batches is
    /// safe — including the cursor's exact resume key, since the seek
    /// then lands on the next greater key.
    pub fn remove_ids(&mut self, s: u64, p: u64, o: u64) -> bool {
        let (Some(s), Some(p), Some(o)) = (narrow(s), narrow(p), narrow(o)) else {
            return false;
        };
        if !self.spo.remove(&(s, p, o)) {
            return false;
        }
        self.pos.remove(&(p, o, s));
        self.osp.remove(&(o, s, p));
        let n = self.pred_counts.get_mut(&p).expect("a stored triple's predicate is counted");
        *n -= 1;
        if *n == 0 {
            self.pred_counts.remove(&p);
        }
        true
    }

    /// Load `triples` into an **empty** store from sorted runs — the one
    /// batch path, taken by snapshot opens and batch ingests. The input
    /// may come in any order and repeat triples: it is sorted and
    /// deduplicated here. Instead of 3n individual B-tree inserts (each
    /// paying a root-to-leaf walk and node splits), the three indexes are
    /// built through `FromIterator`, which packs nodes from sorted runs
    /// in one linear pass, and the per-predicate counts are the run
    /// lengths of `pos`. The result is the store that
    /// [`TripleStore::insert_ids`] per triple and then
    /// [`pack`](TripleStore::pack) build, which the tests assert; call
    /// `pack` after it to index the geometries spatially.
    ///
    /// # Panics
    ///
    /// When the store already holds triples (they would drop out of the
    /// indexes while still counted per predicate), and on an id of
    /// `u32::MAX` or more.
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
        let mut pos: Vec<Key> = keys.iter().map(|&(s, p, o)| (p, o, s)).collect();
        pos.sort_unstable();
        for run in pos.chunk_by(|a, b| a.0 == b.0) {
            self.pred_counts.insert(run[0].0, run.len());
        }
        self.pos = pos.into_iter().collect();
        self.osp = keys.iter().map(|&(s, p, o)| (o, s, p)).collect();
        for &(_, _, o) in &keys {
            if let Some(env) = self.dict.envelope_of(u64::from(o)) {
                self.pending_spatial.push((env, u64::from(o)));
            }
        }
        self.spo = keys.into_iter().collect();
        self.inserted_since_pack = false;
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
        self.spo.iter().map(widen)
    }

    /// Finish a batch ingest: pack everything per-triple inserts left
    /// loose. Call after batch inserts; answers never depend on it, only
    /// the cost of a read and the memory held do.
    ///
    /// - The spatial index is bulk-(re)loaded from every geometry object
    ///   inserted so far. Until then new geometries wait in a pending
    ///   list that [`visit_spatial`](Self::visit_spatial) scans linearly;
    ///   the list's buffer is freed, not kept for the next ingest.
    /// - When per-triple inserts happened since the indexes were last
    ///   built from sorted runs, `spo`, `pos` and `osp` are rebuilt from
    ///   their own (sorted) contents: `FromIterator` packs full nodes,
    ///   where inserts leave them part-empty.
    pub fn pack(&mut self) {
        if self.inserted_since_pack {
            for index in [&mut self.spo, &mut self.pos, &mut self.osp] {
                *index = std::mem::take(index).into_iter().collect();
            }
            self.inserted_since_pack = false;
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

    /// Resumable form of [`Self::match_pattern`]: enumerates matches in the same
    /// order, but a callback returning `false` *pauses* the enumeration
    /// instead of abandoning it — the cursor remembers the pause point and
    /// the next call picks up strictly after the last delivered triple.
    /// Start from `PatternCursor::default()`; [`PatternCursor::is_done`]
    /// reports exhaustion. Resuming a B-tree range is an O(log n) re-seek,
    /// so pulling a total of k matches in batches costs O(k + batches ·
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
        let index = match order {
            Order::Spo => &self.spo,
            Order::Pos => &self.pos,
            Order::Osp => &self.osp,
        };
        let (a, b, c) = order.key((s, p, o));
        // Resume exclusively after the last delivered triple, mapped into
        // this index's component order.
        let lo = match cursor.last {
            Some(t) => {
                let key = |id| narrow(id).expect("a delivered triple's ids are narrow");
                Bound::Excluded(order.key((key(t.0), key(t.1), key(t.2))))
            }
            None => Bound::Included((a.unwrap_or(0), b.unwrap_or(0), c.unwrap_or(0))),
        };
        let hi = (a.unwrap_or(u32::MAX), b.unwrap_or(u32::MAX), c.unwrap_or(u32::MAX));
        for &k in index.range((lo, Bound::Included(hi))) {
            let t = order.triple(k);
            if o.is_none_or(|o| o == t.2) && !f(widen(&t)) {
                cursor.last = Some(widen(&t));
                return;
            }
        }
        cursor.done = true;
    }

    /// Estimated result count of a pattern (exact for indexed lookups,
    /// `len()` for the unbound pattern) — drives join ordering. Estimates
    /// are capped at [`ESTIMATE_CAP`]; a subject-bound pattern is
    /// estimated from its subject (and predicate) alone. The
    /// predicate-only shape reads the per-predicate count; the others walk
    /// their index range up to the cap.
    pub fn estimate(&self, s: Option<u64>, p: Option<u64>, o: Option<u64>) -> usize {
        // A component no dictionary issues narrows to `None`: no matches.
        let range = |set: &BTreeSet<Key>, first: u64, second: Option<u64>| {
            let (Some(first), Some(second)) = (narrow(first), narrow_bound(second)) else {
                return 0;
            };
            prefix_range(set, first, second).take(ESTIMATE_CAP).count()
        };
        match (s, p, o) {
            (None, None, None) => self.spo.len(),
            (Some(s), pp, _) => range(&self.spo, s, pp),
            (None, Some(p), None) => narrow(p)
                .and_then(|p| self.pred_counts.get(&p))
                .map_or(0, |&n| n.min(ESTIMATE_CAP)),
            (None, Some(p), oo) => range(&self.pos, p, oo),
            (None, None, Some(o)) => range(&self.osp, o, None),
        }
    }

    /// Iterate every triple (term-resolved), in SPO-id order, for export
    /// and interlinking.
    pub fn triples(&self) -> impl Iterator<Item = (TermRef<'_>, TermRef<'_>, TermRef<'_>)> {
        self.id_triples()
            .map(move |(s, p, o)| (self.dict.term(s), self.dict.term(p), self.dict.term(o)))
    }
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

/// The keys of an index whose first component is `first` and, when
/// given, whose second is `second`.
fn prefix_range(
    set: &BTreeSet<Key>,
    first: u32,
    second: Option<u32>,
) -> impl Iterator<Item = &Key> {
    let (lo, hi) = match second {
        Some(s) => ((first, s, u32::MIN), (first, s, u32::MAX)),
        None => ((first, u32::MIN, u32::MIN), (first, u32::MAX, u32::MAX)),
    };
    set.range(lo..=hi)
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
        // same store — triples, matches, estimates, per-predicate counts
        // and spatial candidates.
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
        assert_eq!(loaded.pred_counts, inserted.pred_counts);
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

    /// What [`TripleStore::estimate`] answered by walking index ranges
    /// before predicate-only patterns read the per-predicate counts: `len`
    /// for the unbound pattern, else the matches of the bound components
    /// it consults (a bound subject ignores the object), capped at
    /// [`ESTIMATE_CAP`].
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
        // the model's id triples compare directly.
        let pool: Vec<Term> = (0..6)
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
        for round in 0..60 {
            // Round 0 checks the bulk load as it stands.
            for _ in 0..if round == 0 { 0 } else { 40 } {
                let (s, p, o) = random_triple(&mut rng);
                if rng.chance(0.6) {
                    model.insert((s, p, o));
                    st.insert_ids(s, p, o);
                } else {
                    let was = model.remove(&(s, p, o));
                    assert_eq!(st.remove_ids(s, p, o), was, "round {round}");
                }
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
                assert!(!inserted.inserted_since_pack);
            }
            for _ in 0..1500 {
                let (s, p, o) = random_triple(&mut rng, n - 6);
                if rng.chance(0.8) {
                    inserted.insert_ids(s, p, o);
                } else {
                    inserted.remove_ids(s, p, o);
                }
            }
            assert!(inserted.inserted_since_pack);
            let probes: Vec<IdTriple> = inserted
                .id_triples()
                .step_by(97)
                .chain([random_triple(&mut rng, n), (n, n, n)])
                .collect();
            let loose = observe(&inserted, &probes, &windows);
            inserted.pack();
            assert!(!inserted.inserted_since_pack);
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
