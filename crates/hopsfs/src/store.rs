//! A sharded key-value store with optimistic transactions and two-phase
//! commit across shards — the "NewSQL database" under the namespace layer.
//!
//! Concurrency model (NDB-inspired, simplified):
//!
//! * Each shard is a `BTreeMap` of `key → (version, Option<value>)` behind
//!   its own mutex. Deletions leave versioned tombstones so optimistic
//!   validation never suffers ABA on delete/re-insert.
//! * A transaction buffers reads (with the version observed) and writes.
//! * Commit locks the participating shards in ascending shard order (a
//!   global order, so commits cannot deadlock), validates every read
//!   version, then applies the writes. One participating shard is the
//!   *fast path* (HopsFS's partition-pruned transactions); several shards
//!   are the 2PC slow path, and the store counts both so experiments can
//!   report the ratio.
//! * Scans are read-committed snapshots of one shard (directory listings
//!   are partitioned so a scan never crosses shards).

use std::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::FsError;

/// Versioned cell: tombstones (`None`) keep their version to preserve
/// optimistic validation across delete/re-insert cycles.
type Cell<V> = (u64, Option<V>);

struct Shard<K, V> {
    data: BTreeMap<K, Cell<V>>,
}

/// The sharded store. `K` must order (for scans) and hash via the caller's
/// partition function; `V` is cloned out on read.
pub struct ShardedStore<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    partition: fn(&K) -> u64,
    single_shard_commits: AtomicU64,
    multi_shard_commits: AtomicU64,
    conflicts: AtomicU64,
}

/// A buffered transaction. Obtain with [`ShardedStore::begin`], finish
/// with [`ShardedStore::commit`].
pub struct Tx<K, V> {
    reads: Vec<(K, u64)>,
    writes: BTreeMap<K, Option<V>>,
}

impl<K, V> Default for Tx<K, V> {
    fn default() -> Self {
        Self {
            reads: Vec::new(),
            writes: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone, V: Clone> ShardedStore<K, V> {
    /// Create a store with `num_shards` shards and a partition function
    /// mapping keys to shards (`partition(k) % num_shards`).
    pub fn new(num_shards: usize, partition: fn(&K) -> u64) -> Self {
        assert!(num_shards > 0, "store needs at least one shard");
        Self {
            shards: (0..num_shards)
                .map(|_| {
                    Mutex::new(Shard {
                        data: BTreeMap::new(),
                    })
                })
                .collect(),
            partition,
            single_shard_commits: AtomicU64::new(0),
            multi_shard_commits: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &K) -> usize {
        ((self.partition)(key) % self.shards.len() as u64) as usize
    }

    /// Start a transaction.
    pub fn begin(&self) -> Tx<K, V> {
        Tx::default()
    }

    /// Transactional read: sees the transaction's own writes, otherwise
    /// the committed state (recording the version for validation).
    pub fn get(&self, tx: &mut Tx<K, V>, key: &K) -> Option<V> {
        if let Some(buffered) = tx.writes.get(key) {
            return buffered.clone();
        }
        let shard = self.shards[self.shard_of(key)].lock().expect("shard mutex poisoned");
        match shard.data.get(key) {
            Some((version, value)) => {
                tx.reads.push((key.clone(), *version));
                value.clone()
            }
            None => {
                tx.reads.push((key.clone(), 0));
                None
            }
        }
    }

    /// Buffer a write.
    pub fn put(&self, tx: &mut Tx<K, V>, key: K, value: V) {
        tx.writes.insert(key, Some(value));
    }

    /// Buffer a delete.
    pub fn delete(&self, tx: &mut Tx<K, V>, key: K) {
        tx.writes.insert(key, None);
    }

    /// Commit: validate all reads, apply all writes, atomically across the
    /// participating shards. Returns the number of participating shards.
    pub fn commit(&self, tx: Tx<K, V>) -> Result<usize, FsError> {
        // Collect participating shard indices in ascending order.
        let mut shard_ids: Vec<usize> = tx
            .reads
            .iter()
            .map(|(k, _)| self.shard_of(k))
            .chain(tx.writes.keys().map(|k| self.shard_of(k)))
            .collect();
        shard_ids.sort_unstable();
        shard_ids.dedup();
        if shard_ids.is_empty() {
            return Ok(0); // read-nothing, write-nothing
        }
        // Phase 1: lock in global order (deadlock-free), validate reads.
        let mut guards: Vec<_> = Vec::with_capacity(shard_ids.len());
        for &sid in &shard_ids {
            guards.push((sid, self.shards[sid].lock().expect("shard mutex poisoned")));
        }
        let guard_of =
            |sid: usize, guards: &mut [(usize, std::sync::MutexGuard<Shard<K, V>>)]| {
                guards
                    .iter_mut()
                    .position(|(s, _)| *s == sid)
                    .expect("shard locked")
            };
        for (key, seen_version) in &tx.reads {
            // A key both read and later written validates against the read
            // version as usual.
            let sid = self.shard_of(key);
            let gi = guard_of(sid, &mut guards);
            let current = guards[gi].1.data.get(key).map(|(v, _)| *v).unwrap_or(0);
            if current != *seen_version {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                return Err(FsError::Conflict);
            }
        }
        // Phase 2: apply writes with version bump.
        for (key, value) in tx.writes {
            let sid = self.shard_of(&key);
            let gi = guard_of(sid, &mut guards);
            let entry = guards[gi].1.data.entry(key).or_insert((0, None));
            entry.0 += 1;
            entry.1 = value;
        }
        let n = shard_ids.len();
        if n == 1 {
            self.single_shard_commits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.multi_shard_commits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(n)
    }

    /// Read-committed point read outside any transaction.
    pub fn read(&self, key: &K) -> Option<V> {
        let shard = self.shards[self.shard_of(key)].lock().expect("shard mutex poisoned");
        shard.data.get(key).and_then(|(_, v)| v.clone())
    }

    /// Read-committed scan of `[lo, hi)` **within the shard of `lo`**.
    /// The caller's key design must keep the range on one shard (directory
    /// entries partitioned by parent id do).
    pub fn scan_shard(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let shard = self.shards[self.shard_of(lo)].lock().expect("shard mutex poisoned");
        shard
            .data
            .range(lo.clone()..hi.clone())
            .filter_map(|(k, (_, v))| v.clone().map(|v| (k.clone(), v)))
            .collect()
    }

    /// (single-shard commits, multi-shard commits, conflicts) so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.single_shard_commits.load(Ordering::Relaxed),
            self.multi_shard_commits.load(Ordering::Relaxed),
            self.conflicts.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(shards: usize) -> ShardedStore<u64, String> {
        ShardedStore::new(shards, |k| *k)
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store(4);
        let mut tx = s.begin();
        s.put(&mut tx, 1, "a".into());
        s.put(&mut tx, 2, "b".into());
        s.commit(tx).unwrap();
        assert_eq!(s.read(&1), Some("a".into()));
        assert_eq!(s.read(&2), Some("b".into()));
        assert_eq!(s.read(&3), None);
    }

    #[test]
    fn tx_sees_own_writes() {
        let s = store(2);
        let mut tx = s.begin();
        s.put(&mut tx, 7, "x".into());
        assert_eq!(s.get(&mut tx, &7), Some("x".into()));
        s.delete(&mut tx, 7);
        assert_eq!(s.get(&mut tx, &7), None);
    }

    #[test]
    fn single_vs_multi_shard_commit_counted() {
        let s = store(4);
        let mut tx = s.begin();
        s.put(&mut tx, 0, "a".into()); // shard 0
        assert_eq!(s.commit(tx).unwrap(), 1);
        let mut tx = s.begin();
        s.put(&mut tx, 0, "b".into()); // shard 0
        s.put(&mut tx, 1, "c".into()); // shard 1
        assert_eq!(s.commit(tx).unwrap(), 2);
        let (single, multi, _) = s.stats();
        assert_eq!((single, multi), (1, 1));
    }

    #[test]
    fn write_write_conflict_detected() {
        let s = store(2);
        let mut t0 = s.begin();
        s.put(&mut t0, 5, "v0".into());
        s.commit(t0).unwrap();

        // Two racers read the same version...
        let mut t1 = s.begin();
        let mut t2 = s.begin();
        assert_eq!(s.get(&mut t1, &5), Some("v0".into()));
        assert_eq!(s.get(&mut t2, &5), Some("v0".into()));
        s.put(&mut t1, 5, "v1".into());
        s.put(&mut t2, 5, "v2".into());
        // ...first commit wins, second aborts.
        assert!(s.commit(t1).is_ok());
        assert_eq!(s.commit(t2), Err(FsError::Conflict));
        let (_, _, conflicts) = s.stats();
        assert_eq!(conflicts, 1);
        assert_eq!(s.read(&5), Some("v1".into()));
    }

    #[test]
    fn read_only_tx_validates() {
        let s = store(2);
        let mut seed = s.begin();
        s.put(&mut seed, 9, "a".into());
        s.commit(seed).unwrap();

        let mut reader = s.begin();
        assert_eq!(s.get(&mut reader, &9), Some("a".into()));
        // Concurrent writer bumps the version.
        let mut writer = s.begin();
        s.put(&mut writer, 9, "b".into());
        s.commit(writer).unwrap();
        assert_eq!(s.commit(reader), Err(FsError::Conflict));
    }

    #[test]
    fn absent_key_read_is_validated() {
        // Phantom-insert on a key the tx read as absent must abort it.
        let s = store(2);
        let mut t1 = s.begin();
        assert_eq!(s.get(&mut t1, &42), None);
        s.put(&mut t1, 43, "y".into());
        let mut t2 = s.begin();
        s.put(&mut t2, 42, "x".into());
        s.commit(t2).unwrap();
        assert_eq!(s.commit(t1), Err(FsError::Conflict));
    }

    #[test]
    fn delete_reinsert_keeps_version_monotonic() {
        let s = store(1);
        let mut t = s.begin();
        s.put(&mut t, 1, "a".into());
        s.commit(t).unwrap(); // version 1
                              // Reader observes version 1.
        let mut reader = s.begin();
        assert_eq!(s.get(&mut reader, &1), Some("a".into()));
        // Delete and re-insert elsewhere.
        let mut t = s.begin();
        s.delete(&mut t, 1);
        s.commit(t).unwrap(); // version 2 (tombstone)
        let mut t = s.begin();
        s.put(&mut t, 1, "a".into());
        s.commit(t).unwrap(); // version 3 — same value, higher version
                              // Reader must still fail: no ABA.
        assert_eq!(s.commit(reader), Err(FsError::Conflict));
    }

    #[test]
    fn scan_shard_range() {
        // All keys on one shard (single-shard store).
        let s = store(1);
        let mut t = s.begin();
        for k in [10u64, 11, 12, 20, 21] {
            s.put(&mut t, k, format!("v{k}"));
        }
        s.delete(&mut t, 11); // tombstone before it ever existed: no-op write
        s.commit(t).unwrap();
        let got = s.scan_shard(&10, &13);
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 12]);
    }

    #[test]
    fn empty_commit_is_ok() {
        let s = store(4);
        let tx = s.begin();
        assert_eq!(s.commit(tx).unwrap(), 0);
    }

    #[test]
    fn concurrent_commits_do_not_deadlock() {
        use std::sync::Arc;
        let s = Arc::new(store(8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut committed = 0;
                    for i in 0..200u64 {
                        // Touch two shards in "random" order to stress ordering.
                        let a = (t * 37 + i) % 64;
                        let b = (t * 91 + i * 3) % 64;
                        let mut tx = s.begin();
                        s.put(&mut tx, a, format!("{t}-{i}"));
                        s.put(&mut tx, b, format!("{t}-{i}b"));
                        if s.commit(tx).is_ok() {
                            committed += 1;
                        }
                    }
                    committed
                })
            })
            .collect();
        let total: u64 = threads.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 8 * 200, "blind writes never conflict");
    }
}
