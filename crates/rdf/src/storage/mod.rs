//! Durable storage for the triple store: snapshot + commit-log
//! lifecycle.
//!
//! A store directory holds exactly two files:
//!
//! * `snapshot.bin` — a complete, immutable image of the store at some
//!   generation ([`snapshot`]: dictionary blocks + sorted triple
//!   segments, every record length-prefixed and FNV-1a-checksummed);
//! * `commits.log` — the write-ahead log: one hash-chained, checksummed
//!   record for **every** commit since the store was created, never
//!   reset by compaction ([`commitlog`]).
//!
//! [`Store::open`] loads the snapshot, then replays the log's records
//! past the snapshot's generation (a torn final record is truncated
//! away), and arrives at exactly the last fully-committed generation.
//! [`Store::commit`] evaluates a SPARQL UPDATE read-only, appends the
//! resulting commit record to the log (fsync'd by default), and only
//! then applies the delta to the in-memory indexes. The serving tier
//! keys ETags and caches on the **head commit id**
//! ([`Store::head_commit`]) — unlike a bare counter, the id names the
//! exact history that produced the state, and [`Store::as_of`] can
//! rewind reads to any id in that history. [`Store::compact`] writes a
//! fresh snapshot (write-tmp, fsync, rename) so reopening replays less.
//!
//! The wrapper derefs to [`TripleStore`], so every read path — pattern
//! matching, planning, execution, streaming — works unchanged.

pub mod commitlog;
pub mod encode;
pub mod segment;
pub mod snapshot;

use crate::store::{IdTriple, Novelty, TripleStore};
use crate::term::{Term, TermRef, XSD_STRING};
use crate::update::{apply_delta, evaluate_update, Delta, GroundTriple};
use crate::RdfError;
use commitlog::{derive_record, CommitLog, WalCommit};
pub use commitlog::{CommitRecord, Durability, ROOT_COMMIT_ID};
use snapshot::{read_snapshot, write_snapshot, SNAPSHOT_FILE};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Errors from the storage layer: either the SPARQL side of an update
/// or the filesystem side of durability.
#[derive(Debug)]
pub enum StoreError {
    /// Update failed to parse or evaluate.
    Rdf(RdfError),
    /// Filesystem failure (or corrupt on-disk data).
    Io(io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Rdf(e) => write!(f, "{e}"),
            StoreError::Io(e) => write!(f, "storage i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<RdfError> for StoreError {
    fn from(e: RdfError) -> Self {
        StoreError::Rdf(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What one commit did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitStats {
    /// Generation after the commit (unchanged for no-op commits).
    pub generation: u64,
    /// Triples actually added.
    pub inserted: usize,
    /// Triples actually removed.
    pub deleted: usize,
    /// Bytes appended to `commits.log` (0 for no-ops and ephemeral
    /// stores).
    pub wal_bytes: u64,
}

/// Bulk-load timing.
#[derive(Debug, Clone, Copy)]
pub struct BulkLoadStats {
    /// Triples loaded (after dedup).
    pub triples: usize,
    /// Wall time for build + index + snapshot write.
    pub elapsed: Duration,
    /// `triples / elapsed` in triples per second.
    pub triples_per_sec: f64,
}

/// One shard's slice of a logical dataset, by deterministic subject
/// hash: shard `index` of `count` keeps exactly the triples whose
/// subject the shared consistent-hash ring ([`ee_util::ring`]) assigns
/// to it. Every process that builds a `ShardSpec` with the same `count`
/// partitions identically, so N shard stores built from the same triple
/// stream hold disjoint slices whose union is the whole dataset — the
/// property the router tier's scatter-gather merge relies on.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// This shard's index in `0..count`.
    pub index: usize,
    /// Total shards the dataset is split across.
    pub count: usize,
    ring: ee_util::ring::HashRing,
}

impl ShardSpec {
    /// The spec for shard `index` of `count`. Panics unless
    /// `index < count` (validate CLI input with [`ShardSpec::try_new`]).
    pub fn new(index: usize, count: usize) -> ShardSpec {
        ShardSpec::try_new(index, count).expect("shard index must be < count, count >= 1")
    }

    /// Non-panicking constructor for unvalidated (CLI / env) input.
    pub fn try_new(index: usize, count: usize) -> Option<ShardSpec> {
        if count == 0 || index >= count {
            return None;
        }
        Some(ShardSpec {
            index,
            count,
            ring: ee_util::ring::HashRing::new(count),
        })
    }

    /// Whether this shard owns `subject` (IRIs hash on their IRI text,
    /// anything else on its N-Triples form).
    pub fn accepts<'t>(&self, subject: impl Into<TermRef<'t>>) -> bool {
        self.owner(subject) == self.index
    }

    /// The shard index owning `subject` on this spec's ring.
    pub fn owner<'t>(&self, subject: impl Into<TermRef<'t>>) -> usize {
        match subject.into() {
            TermRef::Iri(iri) => self.ring.shard_of(iri),
            other => self.ring.shard_of(&other.ntriples()),
        }
    }
}

/// When a durable store writes a fresh snapshot on its own, bounding the
/// log tail that reopening has to replay. Both triggers are optional;
/// either one firing after a commit runs [`Store::compact`] inline (the
/// caller's `commit` pays the snapshot write). Ephemeral stores ignore
/// the policy entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionPolicy {
    /// Compact once more than this many bytes were appended to the
    /// commit log since the last snapshot.
    pub max_wal_bytes: Option<u64>,
    /// Compact once this many effective commits landed since the last
    /// snapshot.
    pub max_commits: Option<u64>,
}

impl CompactionPolicy {
    /// Never auto-compact (the default; callers run [`Store::compact`]
    /// by hand).
    pub fn disabled() -> Self {
        CompactionPolicy::default()
    }

    /// Read `EE_WAL_COMPACT_BYTES` / `EE_WAL_COMPACT_COMMITS` from the
    /// environment (unset, empty or unparsable → that trigger disabled).
    pub fn from_env() -> Self {
        fn parse(var: &str) -> Option<u64> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        CompactionPolicy {
            max_wal_bytes: parse("EE_WAL_COMPACT_BYTES"),
            max_commits: parse("EE_WAL_COMPACT_COMMITS"),
        }
    }

    /// True when either trigger fires for the log tail past the snapshot.
    pub fn should_compact(&self, log_bytes: u64, commits_since_snapshot: u64) -> bool {
        self.max_wal_bytes.is_some_and(|b| log_bytes > b)
            || self.max_commits.is_some_and(|c| commits_since_snapshot >= c)
    }
}

/// A mutable, optionally durable, versioned triple store. Derefs to
/// [`TripleStore`] for all reads.
pub struct Store {
    inner: TripleStore,
    /// `None` for ephemeral stores (which still keep `history` in
    /// memory, so versioned reads work without a disk).
    commits: Option<CommitLog>,
    /// Every commit applied since the store was created, oldest first,
    /// with consecutive generations starting at 1.
    history: Vec<CommitRecord>,
    dir: Option<PathBuf>,
    policy: CompactionPolicy,
    /// Effective commits since the snapshot on disk was written (seeded
    /// from the replayed log tail on open).
    commits_since_snapshot: u64,
    /// Commit-log length when the snapshot on disk was written.
    log_len_at_snapshot: u64,
    compactions: u64,
}

impl std::ops::Deref for Store {
    type Target = TripleStore;

    fn deref(&self) -> &TripleStore {
        &self.inner
    }
}

impl Store {
    /// Wrap an in-memory store with no persistence: commits apply and
    /// bump the generation, nothing touches disk. This is what a
    /// default `ee-serve` (no data dir) runs on.
    pub fn ephemeral(inner: TripleStore) -> Self {
        Store {
            inner,
            commits: None,
            history: Vec::new(),
            dir: None,
            policy: CompactionPolicy::disabled(),
            commits_since_snapshot: 0,
            log_len_at_snapshot: 0,
            compactions: 0,
        }
    }

    /// Open (or initialise) a durable store in `dir`: load the snapshot
    /// if one exists, then replay the commit log's records past the
    /// snapshot's generation — a torn final record is dropped, never
    /// partially applied. Durability of future commits comes from
    /// `EE_WAL_NO_SYNC` (see [`Durability`]).
    ///
    /// A log that ends *before* the snapshot's generation was damaged
    /// outside the store; like a corrupt snapshot, that is an
    /// [`io::ErrorKind::InvalidData`] error.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, Durability::from_env())
    }

    /// [`Store::open`] with explicit durability (tests, benchmarks).
    pub fn open_with(dir: impl AsRef<Path>, durability: Durability) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let (mut inner, snapshot_generation) = if snap_path.exists() {
            let data = read_snapshot(&snap_path)?;
            let mut st = TripleStore::new();
            for t in &data.terms {
                st.dict.intern(t);
            }
            debug_assert_eq!(st.dict.len(), data.terms.len(), "ids must be positional");
            // The indexes build from sorted runs instead of paying a
            // tree walk per triple (snapshot segments are already
            // strictly-ascending SPO, which the sort finds in one pass).
            st.load_ids(data.triples);
            (st, data.generation)
        } else {
            (TripleStore::new(), 0)
        };
        let (log, records) = CommitLog::open(dir, durability)?;
        let logged_generation = records.last().map_or(0, |(r, _)| r.generation());
        if logged_generation < snapshot_generation {
            return Err(StoreError::Io(encode::bad_data(&format!(
                "{} ends at generation {logged_generation}, before the snapshot's {snapshot_generation}",
                commitlog::COMMITS_FILE
            ))));
        }
        // Generations are contiguous from 1, so the snapshot's generation
        // is also the number of records it already folded in.
        let folded = snapshot_generation as usize;
        let log_len_at_snapshot = folded.checked_sub(1).map_or(0, |i| records[i].1);
        let history: Vec<CommitRecord> = records.into_iter().map(|(r, _)| r).collect();
        // `as_of` resolves every logged term through the dictionary: make
        // sure the folded commits' terms are there even if a snapshot
        // predates one (at runtime every committed term already is).
        for rec in &history[..folded] {
            for (s, p, o) in rec.commit.insert.iter().chain(&rec.commit.delete) {
                for t in [s, p, o] {
                    inner.dict.intern(t);
                }
            }
        }
        for rec in &history[folded..] {
            for (s, p, o) in &rec.commit.delete {
                inner.remove(s, p, o);
            }
            for (s, p, o) in &rec.commit.insert {
                inner.insert(s, p, o);
            }
        }
        inner.pack();
        Ok(Store {
            inner,
            commits: Some(log),
            commits_since_snapshot: (history.len() - folded) as u64,
            history,
            dir: Some(dir.to_path_buf()),
            policy: CompactionPolicy::disabled(),
            log_len_at_snapshot,
            compactions: 0,
        })
    }

    /// Initialise a durable store in `dir` from an already-built
    /// [`TripleStore`]: writes a generation-0 snapshot and an empty
    /// commit log, replacing whatever the directory held.
    pub fn create(
        dir: impl AsRef<Path>,
        inner: TripleStore,
        durability: Durability,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // Empty the log first, so a crash before the new snapshot lands
        // can never replay a stale history over the new data.
        let log = CommitLog::create(dir, durability)?;
        write_snapshot(dir, &inner, 0)?;
        Ok(Store {
            inner,
            commits: Some(log),
            history: Vec::new(),
            dir: Some(dir.to_path_buf()),
            policy: CompactionPolicy::disabled(),
            commits_since_snapshot: 0,
            log_len_at_snapshot: 0,
            compactions: 0,
        })
    }

    /// Build a store from a triple stream and persist it in one step —
    /// **without** per-triple commit records (the snapshot itself is the
    /// durable copy). Reports load throughput.
    ///
    /// With a [`ShardSpec`], only the triples whose subject the spec
    /// owns are kept: N shard processes can each stream the *same*
    /// logical dataset and build/snapshot only their slice, without any
    /// coordinator shipping data around. `triples_per_sec` then reports
    /// kept-triples over wall time (the filter walks the whole stream).
    pub fn bulk_load<I>(
        dir: impl AsRef<Path>,
        triples: I,
        durability: Durability,
        shard: Option<&ShardSpec>,
    ) -> Result<(Self, BulkLoadStats), StoreError>
    where
        I: IntoIterator<Item = GroundTriple>,
    {
        let start = Instant::now();
        let mut st = TripleStore::new();
        for (s, p, o) in triples {
            if let Some(spec) = shard {
                if !spec.accepts(&s) {
                    continue;
                }
            }
            st.insert(&s, &p, &o);
        }
        st.pack();
        let n = st.len();
        let store = Self::create(dir, st, durability)?;
        let elapsed = start.elapsed();
        let secs = elapsed.as_secs_f64();
        let stats = BulkLoadStats {
            triples: n,
            elapsed,
            triples_per_sec: if secs > 0.0 { n as f64 / secs } else { f64::INFINITY },
        };
        Ok((store, stats))
    }

    /// Monotonic change counter: bumps by one per effective commit,
    /// survives restarts. It is the head commit's generation (0 before
    /// any commit).
    pub fn generation(&self) -> u64 {
        self.history.last().map_or(0, CommitRecord::generation)
    }

    /// The id of the latest commit — [`ROOT_COMMIT_ID`] before any
    /// commit. Because each id hashes its parent's id, the head id names
    /// the store's entire history: equal head ids mean byte-identical
    /// stores, which is what makes it a sound ETag and cache key.
    pub fn head_commit(&self) -> u64 {
        self.history.last().map_or(ROOT_COMMIT_ID, |r| r.id)
    }

    /// Whether `id` names a commit in this store's history (the root id
    /// always qualifies).
    pub fn commit_known(&self, id: u64) -> bool {
        id == ROOT_COMMIT_ID || self.history.iter().rev().any(|r| r.id == id)
    }

    /// The full commit history, oldest first.
    pub fn history(&self) -> &[CommitRecord] {
        &self.history
    }

    /// Build the novelty overlay that rewinds reads to `commit_id`:
    /// [`crate::StoreView::with_novelty`] over the *current* indexes
    /// plus this overlay sees exactly the store as of that commit — no
    /// copy of the store is made. Returns `None` for unknown ids; the
    /// head id yields an empty (transparent) overlay.
    ///
    /// The history is searched from the newest record, where pinned
    /// commits usually sit, and commits are undone newest-first over
    /// their effective deltas: an inserted triple not re-added later is
    /// hidden, a deleted triple not re-hidden later is resurrected. Every
    /// logged term is in the dictionary (commits intern theirs, and
    /// [`Store::open`] interns the folded ones), so this only reads.
    pub fn as_of(&self, commit_id: u64) -> Option<Novelty> {
        let cut = if commit_id == ROOT_COMMIT_ID {
            0
        } else {
            self.history.iter().rposition(|r| r.id == commit_id)? + 1
        };
        let mut hide: std::collections::HashSet<IdTriple> = std::collections::HashSet::new();
        let mut add: std::collections::HashSet<IdTriple> = std::collections::HashSet::new();
        let id = |t: &Term| self.inner.dict.id_of(t).expect("every logged term is interned");
        for rec in self.history[cut..].iter().rev() {
            for (s, p, o) in &rec.commit.insert {
                let t = (id(s), id(p), id(o));
                if !add.remove(&t) {
                    hide.insert(t);
                }
            }
            for (s, p, o) in &rec.commit.delete {
                let t = (id(s), id(p), id(o));
                if !hide.remove(&t) {
                    add.insert(t);
                }
            }
        }
        Some(Novelty::new(hide, add.into_iter().collect()))
    }

    /// Directory backing this store (`None` when ephemeral).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Evaluate and durably apply a SPARQL UPDATE.
    ///
    /// Order of operations is the crash-safety contract: (1) evaluate
    /// read-only into a [`Delta`], (2) append the commit record to the
    /// log and fsync, (3) apply to the in-memory indexes. A crash before
    /// (2) completes loses the commit entirely (torn tail → dropped on
    /// reopen); after (2) the commit replays on reopen. There is no
    /// state in between.
    ///
    /// A commit whose effective delta is empty (inserting only present
    /// triples, deleting only absent ones) does **not** bump the
    /// generation — caches stay warm across no-ops.
    pub fn commit(&mut self, update: &crate::parser::Update) -> Result<CommitStats, StoreError> {
        let delta = evaluate_update(&self.inner, update)?;
        self.commit_delta(delta)
    }

    /// [`Store::commit`] for a pre-evaluated delta.
    pub fn commit_delta(&mut self, delta: Delta) -> Result<CommitStats, StoreError> {
        // Reduce to the effective delta so log records are minimal and
        // replay is trivially idempotent.
        let delete: Vec<GroundTriple> = delta
            .delete
            .iter()
            .filter(|(s, p, o)| self.inner.contains(s, p, o))
            .cloned()
            .collect();
        let deleted_set: std::collections::HashSet<&GroundTriple> = delete.iter().collect();
        let insert: Vec<GroundTriple> = delta
            .insert
            .iter()
            .filter(|t| !self.inner.contains(&t.0, &t.1, &t.2) || deleted_set.contains(t))
            .cloned()
            .collect();
        if insert.is_empty() && delete.is_empty() {
            return Ok(CommitStats {
                generation: self.generation(),
                inserted: 0,
                deleted: 0,
                wal_bytes: 0,
            });
        }
        let generation = self.generation() + 1;
        let commit = WalCommit {
            generation,
            delete: delete.clone(),
            insert: insert.clone(),
        };
        let record = derive_record(self.head_commit(), commit);
        let mut wal_bytes = 0;
        if let Some(log) = &mut self.commits {
            wal_bytes = log.append(&record)?;
        }
        self.history.push(record);
        let effective = Delta { insert, delete };
        let (inserted, deleted) = apply_delta(&mut self.inner, &effective);
        self.commits_since_snapshot += 1;
        // Threshold-triggered snapshot: keep restart replay time bounded
        // without anyone scheduling maintenance.
        if self.commits.is_some()
            && self.policy.should_compact(
                self.log_len() - self.log_len_at_snapshot,
                self.commits_since_snapshot,
            )
        {
            self.compact()?;
        }
        Ok(CommitStats {
            generation,
            inserted,
            deleted,
            wal_bytes,
        })
    }

    /// Write a fresh snapshot at the current generation, so reopening
    /// replays only the log records committed after it. The log is
    /// synced first and the snapshot published atomically (tmp + fsync
    /// + rename), so a snapshot is never ahead of the durable log.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        if let Some(log) = &mut self.commits {
            log.sync()?;
        }
        write_snapshot(&dir, &self.inner, self.generation())?;
        self.commits_since_snapshot = 0;
        self.log_len_at_snapshot = self.log_len();
        self.compactions += 1;
        Ok(())
    }

    /// Clean byte length of `commits.log` (0 when ephemeral).
    pub fn log_len(&self) -> u64 {
        self.commits.as_ref().map_or(0, CommitLog::len)
    }

    /// Install an automatic compaction policy (see [`CompactionPolicy`]).
    pub fn set_compaction_policy(&mut self, policy: CompactionPolicy) {
        self.policy = policy;
    }

    /// Effective commits since the last snapshot write.
    pub fn commits_since_snapshot(&self) -> u64 {
        self.commits_since_snapshot
    }

    /// Snapshot folds performed by this instance (manual or automatic).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

/// Serialise every triple in N-Triples syntax (the interchange format
/// [`load_ntriples`] parses back in).
pub fn export_ntriples(store: &TripleStore) -> String {
    let mut out = String::new();
    for (s, p, o) in store.triples() {
        out.push_str(&s.ntriples());
        out.push(' ');
        out.push_str(&p.ntriples());
        out.push(' ');
        out.push_str(&o.ntriples());
        out.push_str(" .\n");
    }
    out
}

/// Parse N-Triples text (the subset [`export_ntriples`] emits: IRIs and
/// quoted literals with optional `^^<datatype>`) into a store.
/// Returns the number of triple lines parsed.
pub fn load_ntriples(store: &mut TripleStore, text: &str) -> io::Result<usize> {
    let mut n = 0;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut pos = 0;
        let s = parse_nt_term(line, &mut pos)
            .ok_or_else(|| nt_err(lineno, "bad subject"))?;
        let p = parse_nt_term(line, &mut pos)
            .ok_or_else(|| nt_err(lineno, "bad predicate"))?;
        let o = parse_nt_term(line, &mut pos)
            .ok_or_else(|| nt_err(lineno, "bad object"))?;
        let rest = line[pos..].trim();
        if rest != "." {
            return Err(nt_err(lineno, "missing terminating '.'"));
        }
        store.insert(&s, &p, &o);
        n += 1;
    }
    Ok(n)
}

fn nt_err(lineno: usize, msg: &str) -> io::Error {
    encode::bad_data(&format!("N-Triples line {}: {msg}", lineno + 1))
}

/// Parse one term starting at `*pos` (after skipping spaces).
fn parse_nt_term(line: &str, pos: &mut usize) -> Option<Term> {
    let bytes = line.as_bytes();
    while *pos < bytes.len() && bytes[*pos] == b' ' {
        *pos += 1;
    }
    match bytes.get(*pos)? {
        b'<' => {
            let end = line[*pos..].find('>')? + *pos;
            let iri = line[*pos + 1..end].to_string();
            *pos = end + 1;
            Some(Term::Iri(iri))
        }
        b'"' => {
            // Rust-debug-style escapes, matching `Term::ntriples`.
            let mut lexical = String::new();
            let mut i = *pos + 1;
            loop {
                match *bytes.get(i)? {
                    b'"' => break,
                    b'\\' => {
                        i += 1;
                        match *bytes.get(i)? {
                            b'n' => lexical.push('\n'),
                            b't' => lexical.push('\t'),
                            b'r' => lexical.push('\r'),
                            b'0' => lexical.push('\0'),
                            b'u' => {
                                // \u{hex}
                                if bytes.get(i + 1) != Some(&b'{') {
                                    return None;
                                }
                                let close = line[i..].find('}')? + i;
                                let cp = u32::from_str_radix(&line[i + 2..close], 16).ok()?;
                                lexical.push(char::from_u32(cp)?);
                                i = close;
                            }
                            other => lexical.push(other as char),
                        }
                        i += 1;
                    }
                    _ => {
                        let c = line[i..].chars().next()?;
                        lexical.push(c);
                        i += c.len_utf8();
                    }
                }
            }
            *pos = i + 1;
            let datatype = if line[*pos..].starts_with("^^<") {
                let end = line[*pos..].find('>')? + *pos;
                let dt = line[*pos + 3..end].to_string();
                *pos = end + 1;
                dt
            } else {
                XSD_STRING.to_string()
            };
            Some(Term::Literal { lexical, datatype })
        }
        _ => None,
    }
}

/// A unique scratch directory under the system temp dir, for tests and
/// benchmarks (the caller removes it).
pub fn scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "ee-store-{tag}-{}-{n}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[cfg(test)]
pub(crate) use scratch_dir as test_dir;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_update;

    fn e(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn upd(src: &str) -> crate::parser::Update {
        parse_update(&format!("PREFIX e: <http://e/> {src}")).unwrap()
    }

    #[test]
    fn open_commit_reopen_round_trips() {
        let dir = test_dir("open-commit");
        {
            let mut st = Store::open_with(&dir, Durability::Sync).unwrap();
            assert_eq!(st.generation(), 0);
            let stats = st
                .commit(&upd("INSERT DATA { e:a e:p e:b . e:a e:p e:c }"))
                .unwrap();
            assert_eq!(stats.generation, 1);
            assert_eq!(stats.inserted, 2);
            assert!(stats.wal_bytes > 0);
            st.commit(&upd("DELETE DATA { e:a e:p e:b }")).unwrap();
            assert_eq!(st.generation(), 2);
        }
        let st = Store::open_with(&dir, Durability::Sync).unwrap();
        assert_eq!(st.generation(), 2);
        assert_eq!(st.len(), 1);
        assert!(st.contains(&e("a"), &e("p"), &e("c")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn noop_commit_does_not_bump_generation() {
        let dir = test_dir("noop-commit");
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        st.commit(&upd("INSERT DATA { e:a e:p e:b }")).unwrap();
        let before = st.generation();
        let log_before = st.log_len();
        // Insert of a present triple + delete of an absent one: no-op.
        let stats = st
            .commit(&upd("INSERT DATA { e:a e:p e:b } ; DELETE DATA { e:x e:p e:y }"))
            .unwrap();
        assert_eq!(stats.generation, before);
        assert_eq!((stats.inserted, stats.deleted), (0, 0));
        assert_eq!(st.log_len(), log_before, "no log record for no-ops");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_wal_and_reopens_identically() {
        let dir = test_dir("compact");
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        for i in 0..10 {
            st.commit(&upd(&format!("INSERT DATA {{ e:s{i} e:p e:o }}")))
                .unwrap();
        }
        st.commit(&upd("DELETE WHERE { e:s3 ?p ?o }")).unwrap();
        let gen = st.generation();
        let triples: Vec<String> = {
            let mut v: Vec<String> = st
                .triples()
                .map(|(s, p, o)| format!("{} {} {}", s.ntriples(), p.ntriples(), o.ntriples()))
                .collect();
            v.sort();
            v
        };
        let log_len = st.log_len();
        st.compact().unwrap();
        assert_eq!(st.log_len(), log_len, "compaction never rewrites the log");
        assert_eq!(st.commits_since_snapshot(), 0);
        // Commits keep working after compaction.
        st.commit(&upd("INSERT DATA { e:post e:p e:o }")).unwrap();
        assert_eq!(st.generation(), gen + 1);
        drop(st);
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        assert_eq!(st.generation(), gen + 1);
        let mut got: Vec<String> = st
            .triples()
            .map(|(s, p, o)| format!("{} {} {}", s.ntriples(), p.ntriples(), o.ntriples()))
            .collect();
        got.sort();
        let mut want = triples;
        want.push(format!(
            "{} {} {}",
            e("post").ntriples(),
            e("p").ntriples(),
            e("o").ntriples()
        ));
        want.sort();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_count_policy_triggers_automatic_compaction() {
        let dir = test_dir("auto-compact-commits");
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        st.set_compaction_policy(CompactionPolicy {
            max_wal_bytes: None,
            max_commits: Some(3),
        });
        for i in 0..2 {
            st.commit(&upd(&format!("INSERT DATA {{ e:s{i} e:p e:o }}")))
                .unwrap();
        }
        assert_eq!(st.compactions(), 0);
        assert_eq!(st.commits_since_snapshot(), 2);
        st.commit(&upd("INSERT DATA { e:s2 e:p e:o }")).unwrap();
        // Third effective commit crossed the threshold: a snapshot landed.
        assert_eq!(st.compactions(), 1);
        assert_eq!(st.commits_since_snapshot(), 0);
        let gen = st.generation();
        drop(st);
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        assert_eq!(st.generation(), gen);
        assert_eq!(st.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_byte_policy_triggers_automatic_compaction() {
        let dir = test_dir("auto-compact-bytes");
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        st.set_compaction_policy(CompactionPolicy {
            max_wal_bytes: Some(256),
            max_commits: None,
        });
        // The trigger compares the log bytes appended since the last
        // snapshot, so a snapshot lands exactly when that tail passes 256.
        let (mut tail, mut want) = (0, 0);
        for i in 0..50 {
            let stats = st
                .commit(&upd(&format!(
                    "INSERT DATA {{ e:subject-{i} e:predicate e:object-{i} }}"
                )))
                .unwrap();
            tail += stats.wal_bytes;
            if tail > 256 {
                (tail, want) = (0, want + 1);
            }
            assert_eq!(st.compactions(), want, "commit {i}");
        }
        assert!(want > 1, "50 commits must cross a 256-byte cap repeatedly");
        drop(st);
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        assert_eq!(st.len(), 50);
        assert_eq!(st.generation(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_policy_from_env_parses_and_defaults() {
        // Not set in the test environment → both triggers off.
        let p = CompactionPolicy::disabled();
        assert!(!p.should_compact(u64::MAX, u64::MAX));
        let p = CompactionPolicy {
            max_wal_bytes: Some(100),
            max_commits: Some(5),
        };
        assert!(!p.should_compact(100, 4));
        assert!(p.should_compact(101, 0));
        assert!(p.should_compact(0, 5));
    }

    #[test]
    fn ephemeral_store_commits_without_disk() {
        let mut st = Store::ephemeral(TripleStore::new());
        let stats = st.commit(&upd("INSERT DATA { e:a e:p e:b }")).unwrap();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.wal_bytes, 0);
        assert!(st.dir().is_none());
        assert_eq!(st.log_len(), 0);
    }

    #[test]
    fn bulk_load_builds_snapshot_without_wal_records() {
        let dir = test_dir("bulk");
        // Every third triple a point geometry: the snapshot carries the
        // spatial index's input too.
        let triples: Vec<GroundTriple> = (0..5000)
            .map(|i| match i % 3 {
                0 => {
                    let point = Term::wkt(format!("POINT ({} {})", i % 100, i / 100));
                    (e(&format!("s{i}")), e("geo"), point)
                }
                _ => (e(&format!("s{i}")), e("p"), Term::integer(i)),
            })
            .collect();
        let (st, stats) =
            Store::bulk_load(&dir, triples, Durability::NoSync, None).unwrap();
        assert_eq!(stats.triples, 5000);
        assert!(stats.triples_per_sec > 0.0);
        assert_eq!(st.log_len(), 0, "bulk load must not log per-triple records");
        drop(st);
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        assert_eq!(st.len(), 5000);
        assert_eq!(st.generation(), 0);
        let all = ee_geo::Envelope::new(-1.0, -1.0, 101.0, 101.0);
        assert_eq!(st.spatial_candidates(&all).len(), 1667, "geometries indexed after reopen");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_naming_a_retired_index_mode_is_refused() {
        // The header record is `len: u32 LE`, payload, `fnv1a: u64 LE`;
        // payload byte 8 (after the magic) is the index-mode byte. The
        // checksum is re-sealed, so only the mode byte can refuse it.
        let dir = test_dir("retired-mode");
        let triples: Vec<GroundTriple> = (0..10).map(|i| (e(&format!("s{i}")), e("p"), Term::integer(i))).collect();
        drop(Store::bulk_load(&dir, triples, Durability::NoSync, None).unwrap());
        let path = dir.join(SNAPSHOT_FILE);
        let written = std::fs::read(&path).unwrap();
        let len = u32::from_le_bytes(written[..4].try_into().unwrap()) as usize;
        for byte in [0u8, 1, 2] {
            let mut bytes = written.clone();
            bytes[4 + 8] = byte;
            let sum = encode::fnv1a(&bytes[4..4 + len]);
            bytes[4 + len..4 + len + 8].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match Store::open_with(&dir, Durability::NoSync) {
                Ok(st) => {
                    assert_eq!(byte, 0, "mode byte {byte} must be refused");
                    assert_eq!(st.len(), 10);
                }
                Err(StoreError::Io(err)) => {
                    assert_ne!(byte, 0, "the indexed layout opens: {err}");
                    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                    assert!(err.to_string().contains("unknown index mode byte"), "{err}");
                }
                Err(other) => panic!("mode byte {byte}: {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_spec_validates_and_partitions() {
        assert!(ShardSpec::try_new(0, 0).is_none());
        assert!(ShardSpec::try_new(2, 2).is_none());
        assert!(ShardSpec::try_new(1, 2).is_some());
        // Every subject is owned by exactly one shard, and ownership
        // agrees across independently-built specs.
        let count = 4;
        let specs: Vec<ShardSpec> = (0..count).map(|i| ShardSpec::new(i, count)).collect();
        for i in 0..500 {
            let s = e(&format!("f{i}"));
            let owners: Vec<usize> = (0..count).filter(|&k| specs[k].accepts(&s)).collect();
            assert_eq!(owners.len(), 1, "subject owned by exactly one shard");
            assert_eq!(owners[0], specs[0].owner(&s));
        }
    }

    #[test]
    fn sharded_bulk_loads_partition_the_dataset() {
        let count = 3;
        let n = 2000;
        let triples = |_: usize| -> Vec<GroundTriple> {
            (0..n)
                .map(|i| (e(&format!("s{i}")), e("p"), Term::integer(i)))
                .collect()
        };
        let mut total = 0;
        let mut stores = Vec::new();
        for k in 0..count {
            let dir = test_dir(&format!("bulk-shard-{k}"));
            let spec = ShardSpec::new(k, count);
            let (st, stats) =
                Store::bulk_load(&dir, triples(k), Durability::NoSync, Some(&spec))
                    .unwrap();
            assert_eq!(st.len(), stats.triples);
            assert!(st.len() < n as usize, "a shard holds a strict slice");
            total += st.len();
            stores.push((st, spec, dir));
        }
        assert_eq!(total, n as usize, "slices are disjoint and exhaustive");
        // Each shard holds exactly the subjects its spec accepts.
        for (st, spec, dir) in &stores {
            for (s, _, _) in st.triples() {
                assert!(spec.accepts(s));
            }
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn spatial_candidates_survive_reopen() {
        let dir = test_dir("spatial-reopen");
        {
            let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
            st.commit(&upd(
                "INSERT DATA { e:f e:geo \"POINT (5 5)\"^^<http://www.opengis.net/ont/geosparql#wktLiteral> }",
            ))
            .unwrap();
        }
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        let hits = st.spatial_candidates(&ee_geo::Envelope::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(hits.len(), 1, "R-tree rebuilt from replayed triples");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every triple visible through the store (or a rewound view of it),
    /// as sorted N-Triples lines — id-independent, so states of
    /// different store instances compare directly.
    fn visible(st: &TripleStore, novelty: Option<&Novelty>) -> Vec<String> {
        let view = match novelty {
            Some(n) => crate::StoreView::with_novelty(st, n),
            None => crate::StoreView::from(st),
        };
        let mut out: Vec<String> = view
            .id_triples_sorted()
            .into_iter()
            .map(|(s, p, o)| {
                format!(
                    "{} {} {}",
                    view.dict().term(s).ntriples(),
                    view.dict().term(p).ntriples(),
                    view.dict().term(o).ntriples()
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn commit_ids_chain_deterministically() {
        let updates = [
            "INSERT DATA { e:a e:p e:b . e:a e:p e:c }",
            "DELETE DATA { e:a e:p e:b }",
            "INSERT DATA { e:d e:p e:e }",
        ];
        let run = |mut st: Store| -> (Vec<u64>, Store) {
            let ids = updates
                .iter()
                .map(|u| {
                    st.commit(&upd(u)).unwrap();
                    st.head_commit()
                })
                .collect();
            (ids, st)
        };
        let dir = test_dir("chain-durable");
        let (durable_ids, durable) = run(Store::open_with(&dir, Durability::NoSync).unwrap());
        let (ephemeral_ids, _) = run(Store::ephemeral(TripleStore::new()));
        // Same commit sequence → same chain, with or without a disk.
        assert_eq!(durable_ids, ephemeral_ids);
        assert_eq!(durable_ids.len(), 3);
        let mut uniq = durable_ids.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 3, "each commit gets a distinct id");
        for id in &durable_ids {
            assert!(durable.commit_known(*id));
        }
        assert!(durable.commit_known(ROOT_COMMIT_ID));
        assert!(!durable.commit_known(0xdead_beef));
        drop(durable);
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        let reopened: Vec<u64> = st.history().iter().map(|r| r.id).collect();
        assert_eq!(reopened, durable_ids, "ids survive reopen");
        assert_eq!(st.head_commit(), *durable_ids.last().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn as_of_views_match_replayed_stores() {
        let updates = [
            "INSERT DATA { e:a e:p e:b . e:a e:p e:c . e:x e:q e:y }",
            "DELETE DATA { e:a e:p e:b } ; INSERT DATA { e:a e:p e:d }",
            "DELETE WHERE { e:a ?p ?o }",
            "INSERT DATA { e:a e:p e:b . e:z e:q \"POINT (2 2)\"^^<http://www.opengis.net/ont/geosparql#wktLiteral> }",
            "DELETE DATA { e:x e:q e:y }",
        ];
        let mut st = Store::ephemeral(TripleStore::new());
        let mut ids = vec![ROOT_COMMIT_ID];
        for u in &updates {
            st.commit(&upd(u)).unwrap();
            ids.push(st.head_commit());
        }
        for (k, id) in ids.iter().enumerate() {
            // Reference: a fresh store replayed through the first k
            // commits, queried at head.
            let mut reference = Store::ephemeral(TripleStore::new());
            for u in &updates[..k] {
                reference.commit(&upd(u)).unwrap();
            }
            let novelty = st.as_of(*id).expect("known commit");
            assert_eq!(
                visible(&st, Some(&novelty)),
                visible(&reference, None),
                "as_of commit #{k} must equal replay-to-{k}"
            );
        }
        assert!(st.as_of(0x1234_5678).is_none(), "unknown id");
        // The head view is transparent (no overlay work).
        assert!(st.as_of(st.head_commit()).unwrap().is_empty());
    }

    #[test]
    fn as_of_resurrects_triples_folded_away_by_compaction() {
        let dir = test_dir("asof-resurrect");
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        st.commit(&upd("INSERT DATA { e:a e:p \"only-in-history\" }"))
            .unwrap();
        let before_delete = st.head_commit();
        st.commit(&upd("DELETE DATA { e:a e:p \"only-in-history\" }"))
            .unwrap();
        st.compact().unwrap();
        drop(st);
        // After compaction + reopen the triple is in no snapshot segment
        // and in no replayed record: only the commit history knows it.
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        assert!(visible(&st, None).is_empty());
        let novelty = st.as_of(before_delete).unwrap();
        let rows = visible(&st, Some(&novelty));
        assert_eq!(rows.len(), 1);
        assert!(rows[0].contains("only-in-history"), "{rows:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_history_survives_compaction_and_reopen() {
        let dir = test_dir("history-compact");
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        for i in 0..6 {
            st.commit(&upd(&format!("INSERT DATA {{ e:s{i} e:p e:o{i} }}")))
                .unwrap();
        }
        let mid = st.history()[2].id;
        let mid_rows = {
            let n = st.as_of(mid).unwrap();
            visible(&st, Some(&n))
        };
        let ids: Vec<u64> = st.history().iter().map(|r| r.id).collect();
        st.compact().unwrap();
        st.commit(&upd("INSERT DATA { e:post e:p e:o }")).unwrap();
        drop(st);
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        let reopened: Vec<u64> = st.history().iter().map(|r| r.id).collect();
        assert_eq!(&reopened[..ids.len()], &ids[..], "pre-compaction history intact");
        assert_eq!(reopened.len(), ids.len() + 1);
        let n = st.as_of(mid).unwrap();
        assert_eq!(visible(&st, Some(&n)), mid_rows, "as-of crosses compaction");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Tear `commits.log` at **every** byte and the reopened store must
    /// land on the last complete record: its head id, its history, the
    /// uncrashed store's `as_of` views, a file cut back to the clean
    /// prefix, and a next commit with the id an uncrashed store gives it.
    #[test]
    fn torn_commit_log_recovers_bit_identically_at_every_byte() {
        let updates = [
            "INSERT DATA { e:a e:p e:b . e:a e:p e:c }",
            "DELETE DATA { e:a e:p e:b } ; INSERT DATA { e:d e:p e:e }",
            "INSERT DATA { e:f e:p e:g }",
        ];
        let next = "INSERT DATA { e:next e:p e:o }";
        let dir = test_dir("torn-commitlog");
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        let mut ends = Vec::new();
        for u in &updates {
            st.commit(&upd(u)).unwrap();
            ends.push(st.log_len());
        }
        let ids: Vec<u64> = st.history().iter().map(|r| r.id).collect();
        let views: Vec<Vec<String>> = ids
            .iter()
            .map(|id| {
                let n = st.as_of(*id).unwrap();
                visible(&st, Some(&n))
            })
            .collect();
        drop(st);
        // The id `next` gets on an uncrashed store holding k commits.
        let next_ids: Vec<u64> = (0..=updates.len())
            .map(|k| {
                let mut reference = Store::ephemeral(TripleStore::new());
                for u in &updates[..k] {
                    reference.commit(&upd(u)).unwrap();
                }
                reference.commit(&upd(next)).unwrap();
                reference.head_commit()
            })
            .collect();
        let path = dir.join(commitlog::COMMITS_FILE);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let k = ends.iter().filter(|&&end| end <= cut as u64).count();
            let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
            let head = k.checked_sub(1).map_or(ROOT_COMMIT_ID, |i| ids[i]);
            assert_eq!(st.head_commit(), head, "cut at {cut}");
            assert_eq!(st.generation(), k as u64, "cut at {cut}");
            let reopened: Vec<u64> = st.history().iter().map(|r| r.id).collect();
            assert_eq!(reopened, ids[..k], "cut at {cut}");
            for (id, want) in ids[..k].iter().zip(&views) {
                let n = st.as_of(*id).unwrap();
                assert_eq!(&visible(&st, Some(&n)), want, "cut at {cut}");
            }
            let clean = k.checked_sub(1).map_or(0, |i| ends[i]);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                clean,
                "torn tail must be physically truncated (cut {cut})"
            );
            st.commit(&upd(next)).unwrap();
            assert_eq!(st.head_commit(), next_ids[k], "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed append (ENOSPC, EIO, a failed fsync) must leave neither
    /// an orphan record nor torn bytes in front of the next commit.
    #[test]
    fn failed_append_leaves_no_orphan_record() {
        let dir = test_dir("append-fault");
        let path = dir.join(commitlog::COMMITS_FILE);
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        st.commit(&upd("INSERT DATA { e:a e:p e:b }")).unwrap();
        let state = |st: &Store| (st.head_commit(), st.generation(), visible(st, None));
        // Nothing written, a torn prefix, the whole record (fsync failed).
        for prefix in [0, 5, usize::MAX] {
            let before = state(&st);
            st.commits.as_mut().unwrap().fault = Some((prefix, false));
            assert!(st.commit(&upd("INSERT DATA { e:lost e:p e:o }")).is_err());
            assert_eq!(state(&st), before, "prefix {prefix}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), st.log_len());
            st.commit(&upd(&format!("INSERT DATA {{ e:kept{prefix} e:p e:o }}")))
                .unwrap();
        }
        let want = state(&st);
        assert_eq!(want.1, 4);
        // A rollback that fails too refuses every later commit...
        st.commits.as_mut().unwrap().fault = Some((5, true));
        assert!(st.commit(&upd("INSERT DATA { e:lost e:p e:o }")).is_err());
        assert!(st.commit(&upd("INSERT DATA { e:later e:p e:o }")).is_err());
        assert_eq!(state(&st), want);
        drop(st);
        // ...until a reopen truncates the torn bytes.
        let mut st = Store::open_with(&dir, Durability::NoSync).unwrap();
        assert_eq!(state(&st), want);
        st.commit(&upd("INSERT DATA { e:after e:p e:o }")).unwrap();
        drop(st);
        let st = Store::open_with(&dir, Durability::NoSync).unwrap();
        assert_eq!(st.generation(), 5);
        assert!(st.contains(&e("after"), &e("p"), &e("o")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ntriples_export_import_round_trips() {
        let mut st = TripleStore::new();
        st.insert(&e("a"), &e("p"), &Term::string("line\nbreak \"quoted\" \\slash"));
        st.insert(&e("a"), &e("v"), &Term::integer(-5));
        st.insert(&e("a"), &e("g"), &Term::wkt("POINT (1 2)"));
        let text = export_ntriples(&st);
        let mut back = TripleStore::new();
        assert_eq!(load_ntriples(&mut back, &text).unwrap(), 3);
        for (s, p, o) in st.triples() {
            assert!(back.contains(s, p, o), "{} missing", o.ntriples());
        }
    }
}
