//! Sharded LRU response cache with TTL.
//!
//! The cache sits between the router and the engines: cacheable GET
//! responses are stored under a canonicalised request key (see
//! [`crate::router::cache_key`]) so that repeated queries, catalogue
//! searches, tile fetches and ice bundles are answered without touching
//! the engines at all. Design:
//!
//! * **Sharding.** Keys are distributed over `shards` independent
//!   `Mutex<Shard>` instances by FNV-1a hash, so concurrent workers
//!   rarely contend on the same lock. FNV is used (not `RandomState`)
//!   to keep shard assignment deterministic run-to-run.
//! * **True LRU per shard.** Each shard keeps an intrusive doubly-linked
//!   list threaded through a slab of nodes; get/put/evict are all O(1).
//! * **TTL.** Every entry carries an expiry instant; expired entries are
//!   treated as misses and reclaimed on access, and the insert path
//!   sweeps a generation-stamped expiry queue so entries that expire and
//!   are never touched again stop counting against shard capacity.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cached response body: everything needed to replay the response
/// without re-running the engine.
#[derive(Debug)]
pub struct CachedBody {
    /// HTTP status (only 200s are cached, but kept for completeness).
    pub status: u16,
    /// Content type of the cached body.
    pub content_type: String,
    /// Extra response headers to replay with the body (e.g. `etag`,
    /// `x-tile-cols`), so a cache hit is indistinguishable from a miss.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

/// A hit replays the entry's bytes as a [`crate::http::Body::Shared`].
impl AsRef<[u8]> for CachedBody {
    fn as_ref(&self) -> &[u8] {
        &self.body
    }
}

const NIL: usize = usize::MAX;

struct Node {
    key: String,
    value: Arc<CachedBody>,
    expires: Instant,
    /// Generation stamp for this slab slot, bumped on every write and
    /// removal, so stale expiry-queue entries referring to an earlier
    /// occupant of the slot are recognised and skipped.
    generation: u64,
    /// Pinned entries never expire and survive [`Shard::sweep_unpinned`]
    /// — used for immutable responses (tiles, ice, `?asOf=` reads), which
    /// stay correct forever. They remain LRU-evictable: pinning is about
    /// invalidation semantics, not a memory guarantee.
    pinned: bool,
    prev: usize,
    next: usize,
}

/// One LRU shard: slab + intrusive list, most-recent at `head`.
struct Shard {
    map: HashMap<String, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    /// Pending expiries in insertion order: `(expires, slot, generation)`.
    /// The TTL is uniform per cache, so insertion order is expiry order
    /// (up to lock-acquisition jitter, which only delays a reclaim by
    /// the jitter) and `put` can sweep the queue front in O(expired).
    expiry: VecDeque<(Instant, usize, u64)>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            expiry: VecDeque::new(),
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn remove_index(&mut self, idx: usize) {
        self.unlink(idx);
        let key = std::mem::take(&mut self.nodes[idx].key);
        self.nodes[idx].generation += 1;
        self.map.remove(&key);
        self.free.push(idx);
    }

    /// Drop entries whose TTL has elapsed, so an expired-but-untouched
    /// entry stops counting against capacity without waiting for a `get`
    /// to land on its key. Queue entries whose generation no longer
    /// matches the slot were superseded (refreshed, evicted, or already
    /// reclaimed) and are discarded without touching the slot.
    fn sweep_expired(&mut self, now: Instant) {
        while let Some(&(expires, idx, generation)) = self.expiry.front() {
            if expires > now {
                break;
            }
            self.expiry.pop_front();
            if self.nodes[idx].generation == generation {
                self.remove_index(idx);
            }
        }
    }

    fn get(&mut self, key: &str, now: Instant) -> Option<Arc<CachedBody>> {
        let idx = *self.map.get(key)?;
        if !self.nodes[idx].pinned && self.nodes[idx].expires <= now {
            self.remove_index(idx);
            return None;
        }
        // Move to front.
        self.unlink(idx);
        self.push_front(idx);
        Some(Arc::clone(&self.nodes[idx].value))
    }

    /// Drop every entry, returning how many were held. Slot generations
    /// are bumped by `remove_index`, so queued expiries for the dropped
    /// entries are recognised as stale and skipped.
    fn clear(&mut self) -> usize {
        let n = self.map.len();
        while self.head != NIL {
            self.remove_index(self.head);
        }
        n
    }

    /// Drop every non-pinned entry, returning how many were dropped.
    /// The write path sweeps with this so pinned immutable responses —
    /// which can never go stale — survive updates.
    fn sweep_unpinned(&mut self) -> usize {
        let victims: Vec<usize> = self
            .map
            .values()
            .copied()
            .filter(|&idx| !self.nodes[idx].pinned)
            .collect();
        let n = victims.len();
        for idx in victims {
            self.remove_index(idx);
        }
        n
    }

    fn put(&mut self, key: String, value: Arc<CachedBody>, expires: Instant, pinned: bool) {
        self.sweep_expired(Instant::now());
        if let Some(&idx) = self.map.get(&key) {
            let generation = self.nodes[idx].generation + 1;
            self.nodes[idx].value = value;
            self.nodes[idx].expires = expires;
            self.nodes[idx].generation = generation;
            self.nodes[idx].pinned = pinned;
            self.unlink(idx);
            self.push_front(idx);
            if !pinned {
                self.expiry.push_back((expires, idx, generation));
            }
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            if victim == NIL {
                return; // capacity 0
            }
            self.remove_index(victim);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                let generation = self.nodes[i].generation + 1;
                self.nodes[i] = Node {
                    key: key.clone(),
                    value,
                    expires,
                    generation,
                    pinned,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    value,
                    expires,
                    generation: 0,
                    pinned,
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        if !pinned {
            self.expiry.push_back((expires, idx, self.nodes[idx].generation));
        }
    }
}

/// The sharded cache.
pub struct ShardedLru {
    shards: Vec<Mutex<Shard>>,
    ttl: Duration,
    max_entry_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ShardedLru {
    /// Create a cache of `shards` shards of `capacity_per_shard` entries
    /// each, with every entry living `ttl` from insertion and no
    /// per-entry size cap.
    pub fn new(shards: usize, capacity_per_shard: usize, ttl: Duration) -> Self {
        Self::with_max_entry_bytes(shards, capacity_per_shard, ttl, usize::MAX)
    }

    /// [`new`](ShardedLru::new) with a per-entry body-size cap: `put`
    /// refuses (returns `false` for) bodies larger than
    /// `max_entry_bytes`, so one huge streamed tile can't monopolise the
    /// cache's memory.
    pub fn with_max_entry_bytes(
        shards: usize,
        capacity_per_shard: usize,
        ttl: Duration,
        max_entry_bytes: usize,
    ) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(capacity_per_shard)))
                .collect(),
            ttl,
            max_entry_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The per-entry body-size cap (`usize::MAX` when uncapped).
    pub fn max_entry_bytes(&self) -> usize {
        self.max_entry_bytes
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let idx = (ee_util::ring::fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Look up a key; counts a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<CachedBody>> {
        let got = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key, Instant::now());
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Insert (or refresh) a key. Returns `false` (without storing)
    /// when the body exceeds the per-entry byte cap.
    pub fn put(&self, key: String, value: Arc<CachedBody>) -> bool {
        if value.body.len() > self.max_entry_bytes {
            return false;
        }
        let expires = Instant::now() + self.ttl;
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .put(key, value, expires, false);
        true
    }

    /// Insert (or refresh) a key as **pinned**: no TTL, and the entry
    /// survives [`sweep_unpinned`](ShardedLru::sweep_unpinned). For
    /// responses whose key names no moving state (tiles, ice, `?asOf=`
    /// reads), which can never go stale — only LRU pressure evicts them. Returns
    /// `false` when the body exceeds the per-entry byte cap.
    pub fn put_pinned(&self, key: String, value: Arc<CachedBody>) -> bool {
        if value.body.len() > self.max_entry_bytes {
            return false;
        }
        // The expiry instant is ignored for pinned entries; any value do.
        let expires = Instant::now();
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .put(key, value, expires, true);
        true
    }

    /// Drop every entry across all shards, returning how many were
    /// held. Test/teardown helper; the write path uses
    /// [`sweep_unpinned`](ShardedLru::sweep_unpinned) so immutable
    /// responses survive commits.
    pub fn clear(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").clear())
            .sum()
    }

    /// Drop every non-pinned entry across all shards, returning how
    /// many were dropped. Used by the write path: a committed update
    /// invalidates all head-of-store responses in one sweep
    /// (commit-stamped keys already make stale entries unreachable;
    /// sweeping also reclaims their memory immediately and feeds the
    /// invalidation counter), while pinned immutable responses stay
    /// valid forever and are kept.
    pub fn sweep_unpinned(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").sweep_unpinned())
            .sum()
    }

    /// Entries currently held (expired-but-unreclaimed entries count).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit rate in [0, 1]; 0 when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<CachedBody> {
        Arc::new(CachedBody {
            status: 200,
            content_type: "text/plain".into(),
            headers: Vec::new(),
            body: s.as_bytes().to_vec(),
        })
    }

    #[test]
    fn max_entry_bytes_refuses_oversized_bodies() {
        let c = ShardedLru::with_max_entry_bytes(2, 8, Duration::from_secs(60), 4);
        assert!(c.put("small".into(), body("abcd")), "at the cap is stored");
        assert!(!c.put("big".into(), body("abcde")), "over the cap refused");
        assert!(c.get("small").is_some());
        assert!(c.get("big").is_none());
        assert_eq!(c.max_entry_bytes(), 4);
        assert_eq!(ShardedLru::new(1, 1, Duration::ZERO).max_entry_bytes(), usize::MAX);
    }

    #[test]
    fn get_put_and_hit_accounting() {
        let c = ShardedLru::new(4, 8, Duration::from_secs(60));
        assert!(c.get("k").is_none());
        assert!(c.put("k".into(), body("v")));
        assert_eq!(c.get("k").unwrap().body, b"v");
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard so eviction order is observable.
        let c = ShardedLru::new(1, 3, Duration::from_secs(60));
        c.put("a".into(), body("1"));
        c.put("b".into(), body("2"));
        c.put("c".into(), body("3"));
        // Touch "a" so "b" is now least-recent.
        assert!(c.get("a").is_some());
        c.put("d".into(), body("4"));
        assert!(c.get("b").is_none(), "b evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert!(c.get("d").is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn ttl_expires_entries() {
        let c = ShardedLru::new(2, 4, Duration::from_millis(30));
        c.put("k".into(), body("v"));
        assert!(c.get("k").is_some());
        std::thread::sleep(Duration::from_millis(60));
        assert!(c.get("k").is_none(), "expired entry is a miss");
        assert_eq!(c.len(), 0, "expired entry reclaimed on access");
    }

    #[test]
    fn expired_entries_are_swept_on_insert() {
        // Single shard, capacity 2: a and b expire untouched, so the
        // insert of c must reclaim them instead of letting them occupy
        // (and LRU-evict against) the full shard.
        let c = ShardedLru::new(1, 2, Duration::from_millis(30));
        c.put("a".into(), body("1"));
        c.put("b".into(), body("2"));
        assert_eq!(c.len(), 2);
        std::thread::sleep(Duration::from_millis(60));
        c.put("c".into(), body("3"));
        assert_eq!(c.len(), 1, "expired a and b no longer count against capacity");
        assert_eq!(c.get("c").unwrap().body, b"3");
        assert!(c.get("a").is_none());
        assert!(c.get("b").is_none());
    }

    #[test]
    fn refresh_invalidates_stale_expiry_entries() {
        // A refreshed key bumps the slot generation, so the original
        // expiry-queue entry must not reclaim the still-live refresh.
        let c = ShardedLru::new(1, 4, Duration::from_millis(40));
        c.put("k".into(), body("v1"));
        std::thread::sleep(Duration::from_millis(25));
        c.put("k".into(), body("v2")); // refresh: new expiry, new generation
        std::thread::sleep(Duration::from_millis(25));
        // Original expiry has passed; the refresh has not. The sweep on
        // this insert pops the stale entry but leaves k alone.
        c.put("other".into(), body("x"));
        assert_eq!(c.get("k").unwrap().body, b"v2", "refreshed entry survives");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn refresh_updates_value_and_recency() {
        let c = ShardedLru::new(1, 2, Duration::from_secs(60));
        c.put("a".into(), body("1"));
        c.put("b".into(), body("2"));
        c.put("a".into(), body("1b"));
        c.put("c".into(), body("3")); // evicts b (a was refreshed)
        assert_eq!(c.get("a").unwrap().body, b"1b");
        assert!(c.get("b").is_none());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn slab_reuse_survives_churn() {
        let c = ShardedLru::new(2, 16, Duration::from_secs(60));
        for round in 0..50 {
            for i in 0..40 {
                c.put(format!("k{i}"), body(&format!("r{round}v{i}")));
            }
        }
        assert!(c.len() <= 32, "bounded by shard capacities");
        // Recent keys are present with their latest values.
        let v = c.get("k39").expect("most recent key cached");
        assert_eq!(v.body, b"r49v39");
    }

    #[test]
    fn pinned_entries_survive_sweep_and_never_expire() {
        let c = ShardedLru::new(1, 8, Duration::from_millis(30));
        assert!(c.put_pinned("v1".into(), body("versioned")));
        c.put("head".into(), body("h"));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(c.get("v1").unwrap().body, b"versioned", "no TTL on pinned");
        assert!(c.get("head").is_none(), "unpinned entry expired");
        c.put("head2".into(), body("h2"));
        assert_eq!(c.sweep_unpinned(), 1, "only the unpinned entry swept");
        assert_eq!(c.get("v1").unwrap().body, b"versioned");
        assert!(c.get("head2").is_none());
        // Pinned entries are still LRU-evictable under pressure.
        let small = ShardedLru::new(1, 2, Duration::from_secs(60));
        small.put_pinned("a".into(), body("1"));
        small.put("b".into(), body("2"));
        small.put("c".into(), body("3"));
        assert!(small.get("a").is_none(), "pinned but least-recent: evicted");
        // clear() still drops pinned entries (teardown semantics).
        assert_eq!(c.clear(), 1);
        assert!(c.get("v1").is_none());
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c = Arc::new(ShardedLru::new(8, 64, Duration::from_secs(60)));
        ee_util::par::fan_out(8, |w| {
            for i in 0..500 {
                let key = format!("k{}", (w * 31 + i) % 100);
                if i % 3 == 0 {
                    c.put(key, body("x"));
                } else {
                    let _ = c.get(&key);
                }
            }
        });
        assert!(c.len() <= 8 * 64);
        assert!(c.hits() + c.misses() > 0);
    }
}
