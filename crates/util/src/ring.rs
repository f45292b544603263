//! Consistent-hash ring for the sharded serving tier.
//!
//! One logical dataset is split across N shard processes; both the data
//! loaders (each shard keeps only its slice) and the router tier (which
//! forwards single-key requests to the owner) must agree on the
//! key→shard mapping, so the ring lives here in `ee_util` where every
//! crate can reach it without dependency cycles.
//!
//! The ring is the classic virtual-node construction: each shard
//! contributes `vnodes` points placed by hashing `"{shard}/{vnode}"`,
//! and a key is owned by the first point clockwise from the key's own
//! hash. Adding or removing one shard therefore remaps only ~1/N of the
//! key space — the property that makes rolling shard-count changes
//! cheap — while lookups stay `O(log vnodes·N)` binary searches.
//!
//! Everything is deterministic: the hash is FNV-1a (the same function
//! the serve tier uses for ETags) followed by a 64-bit avalanche
//! finalizer, so a ring built with the same `(shards, vnodes)`
//! parameters places keys identically in every process, on every run.
//! The finalizer matters: raw FNV-1a of keys differing only in a short
//! suffix (`…/f17`, `…/f18`) barely moves the high bits that order the
//! ring, so whole key families would pile onto one arc without it.

/// FNV-1a over a byte string — deterministic, dependency-free, and fast
/// enough for per-request routing decisions. The one FNV-1a of the
/// workspace: ring placement, cache shard selection, ETags, on-disk
/// record checksums and commit ids all hash through it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// The incremental form of [`fnv1a`]: bytes folded in piece by piece
/// hash as their concatenation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The FNV-1a offset basis, the hash of no bytes.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold more bytes into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit avalanche finalizer (the MurmurHash3 `fmix64` constants):
/// every input bit flips every output bit with probability ~1/2, which
/// spreads FNV-1a's suffix-local differences across the whole ring.
fn spread(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Default virtual nodes per shard: enough that the largest shard holds
/// within a few percent of `1/N` of a uniform key space.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over `shards` shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// Build the ring for `shards` shards with [`DEFAULT_VNODES`]
    /// virtual nodes each. Panics if `shards` is zero.
    pub fn new(shards: usize) -> HashRing {
        HashRing::with_vnodes(shards, DEFAULT_VNODES)
    }

    /// Build the ring with an explicit virtual-node count per shard.
    pub fn with_vnodes(shards: usize, vnodes: usize) -> HashRing {
        assert!(shards > 0, "a ring needs at least one shard");
        assert!(vnodes > 0, "a ring needs at least one vnode per shard");
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                let point = spread(fnv1a(format!("shard-{shard}/vnode-{v}").as_bytes()));
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first ring point clockwise from the
    /// key's hash (wrapping past the top back to the first point).
    pub fn shard_of(&self, key: &str) -> usize {
        let h = spread(fnv1a(key.as_bytes()));
        let idx = self.points.partition_point(|(p, _)| *p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        shard
    }
}

/// Convenience: the owner of `key` on a fresh `shards`-shard ring. The
/// ring build is O(shards·vnodes·log) — callers on a hot path should
/// build a [`HashRing`] once and reuse it.
pub fn shard_of(key: &str, shards: usize) -> usize {
    HashRing::new(shards).shard_of(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Offset basis for the empty string, then the classic "a" vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn lookups_are_deterministic_and_in_range() {
        for shards in 1..=8 {
            let ring = HashRing::new(shards);
            let again = HashRing::new(shards);
            for i in 0..200 {
                let key = format!("http://e/f{i}");
                let s = ring.shard_of(&key);
                assert!(s < shards);
                assert_eq!(s, again.shard_of(&key), "same ring, same owner");
                assert_eq!(s, shard_of(&key, shards), "helper agrees");
            }
        }
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = HashRing::new(1);
        for i in 0..50 {
            assert_eq!(ring.shard_of(&format!("k{i}")), 0);
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let shards = 4;
        let ring = HashRing::new(shards);
        let mut counts = vec![0usize; shards];
        let n = 20_000;
        for i in 0..n {
            counts[ring.shard_of(&format!("http://e/f{i}"))] += 1;
        }
        let ideal = n / shards;
        for (s, c) in counts.iter().enumerate() {
            assert!(
                *c > ideal / 2 && *c < ideal * 2,
                "shard {s} holds {c} of {n} keys (ideal {ideal})"
            );
        }
    }

    #[test]
    fn short_suffix_key_families_spread_over_two_shards() {
        // Regression: without the avalanche finalizer, raw FNV-1a puts
        // all 600 of these near-identical keys on one arc of a 2-shard
        // ring (the sharded-store split degenerates to shard 0 holding
        // everything).
        let ring = HashRing::new(2);
        let mut counts = [0usize; 2];
        for i in 0..600 {
            counts[ring.shard_of(&format!("http://e/f{i}"))] += 1;
        }
        assert!(
            counts[0] > 150 && counts[1] > 150,
            "suffix-only key differences must still balance: {counts:?}"
        );
    }

    #[test]
    fn shard_counts_partition_the_key_space() {
        // Every key is owned by exactly one shard by construction; check
        // the union over shards covers the space for a few ring sizes.
        for shards in [2usize, 4] {
            let ring = HashRing::new(shards);
            let mut seen = vec![false; shards];
            for i in 0..1000 {
                seen[ring.shard_of(&format!("k{i}"))] = true;
            }
            assert!(seen.iter().all(|s| *s), "every shard owns some keys");
        }
    }

    #[test]
    fn adding_a_shard_moves_a_minority_of_keys() {
        let before = HashRing::new(4);
        let after = HashRing::new(5);
        let n = 10_000;
        let moved = (0..n)
            .filter(|i| {
                let key = format!("http://e/f{i}");
                before.shard_of(&key) != after.shard_of(&key)
            })
            .count();
        // Ideal is n/5; allow generous slack but far below rehash-all.
        assert!(
            moved < n / 2,
            "consistent hashing must move a minority of keys, moved {moved}/{n}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = HashRing::new(0);
    }
}
