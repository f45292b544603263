//! Deterministic pseudo-random number generation.
//!
//! The workspace does not use the `rand` crate for its core logic: every
//! simulator and every workload generator must reproduce bit-for-bit across
//! runs and across machines, so we pin the exact algorithms here.
//!
//! [`Rng`] is `xoshiro256++` (Blackman & Vigna), seeded through `SplitMix64`
//! as the authors recommend. It is not cryptographically secure and is not
//! meant to be; it is fast, has a 2^256-1 period, and passes BigCrush.

/// The `SplitMix64` generator, used to expand a single `u64` seed into the
/// 256-bit state of [`Rng`] and occasionally as a cheap standalone stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `xoshiro256++` — the workspace-standard PRNG.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl Rng {
    /// Seed the generator. Any seed (including 0) is valid; the state is
    /// expanded through `SplitMix64` so correlated seeds produce
    /// uncorrelated streams.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f64` in `[lo, hi)`. `lo` must be `<= hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + self.f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)` using Lemire's debiased multiply-shift.
    /// `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Rejection-free for our purposes: 128-bit multiply-shift has bias
        // < 2^-64 which is irrelevant for simulation workloads, but we still
        // debias properly to keep property tests exact.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)` (`usize`). `lo < hi` required.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal deviate (Box-Muller, with caching of the spare).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let (u, v) = self.box_muller_uniforms();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// The two uniforms one Box-Muller pair consumes: `u` redrawn while
    /// it is at most `f64::EPSILON` (which would feed `ln(0)`), then `v`.
    fn box_muller_uniforms(&mut self) -> (f64, f64) {
        let mut u = self.f64();
        while u <= f64::EPSILON {
            u = self.f64();
        }
        (u, self.f64())
    }

    /// Advance the generator to the state `k` calls of
    /// [`gaussian`](Rng::gaussian) leave, cached spare included, without
    /// computing the deviates: a cached spare is dropped, each whole pair
    /// draws its two uniforms and nothing else (no `ln`, `sin` or `cos`),
    /// and an odd last deviate is computed for the spare it caches.
    pub fn skip_gaussians(&mut self, mut k: u64) {
        if k == 0 {
            return;
        }
        if self.gauss_spare.take().is_some() {
            k -= 1;
        }
        for _ in 0..k / 2 {
            self.box_muller_uniforms();
        }
        if k % 2 == 1 {
            self.gaussian();
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Exponential deviate with the given rate `lambda` (> 0).
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0);
        let mut u = self.f64();
        while u <= f64::EPSILON {
            u = self.f64();
        }
        -u.ln() / lambda
    }

    /// Sample an index from unnormalised non-negative `weights`.
    /// Returns `None` if the weights are empty or all zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total.is_nan() || total <= 0.0 {
            return None;
        }
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher-Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Reservoir-sample `k` indices from `0..n` without replacement,
    /// returned in ascending order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below(i as u64 + 1) as usize;
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir.sort_unstable();
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(0);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(0);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut r = Rng::seed_from(4);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c} out of tolerance");
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng::seed_from(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    /// The whole generator state, the spare by its bits.
    fn state(r: &Rng) -> ([u64; 4], Option<u64>) {
        (r.s, r.gauss_spare.map(f64::to_bits))
    }

    #[test]
    fn skip_gaussians_leaves_the_state_of_k_draws() {
        for spare in [false, true] {
            for k in (0..=5).chain([65_537]) {
                let mut drawn = Rng::seed_from(12);
                if spare {
                    drawn.gaussian();
                    assert!(drawn.gauss_spare.is_some());
                }
                let mut skipped = drawn.clone();
                for _ in 0..k {
                    drawn.gaussian();
                }
                skipped.skip_gaussians(k);
                assert_eq!(state(&skipped), state(&drawn), "k {k}, spare {spare}");
                assert_eq!(skipped.gaussian().to_bits(), drawn.gaussian().to_bits());
            }
        }
    }

    #[test]
    fn skip_gaussians_redraws_tiny_uniforms_as_gaussian_does() {
        // xoshiro256++ outputs 0 when s[0] and s[3] are 0; with s[1]
        // set the state still moves on, so the first uniform is 0 and the
        // redraw loop runs.
        let mut r = Rng::seed_from(0);
        r.s = [0, 1, 0, 0];
        let mut probe = r.clone();
        assert!(probe.f64() <= f64::EPSILON, "the planted state draws u = 0 first");
        let mut drawn = r.clone();
        for _ in 0..4 {
            drawn.gaussian();
        }
        r.skip_gaussians(4);
        assert_eq!(state(&r), state(&drawn));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = Rng::seed_from(8);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input unchanged");
    }

    #[test]
    fn sample_indices_without_replacement() {
        let mut r = Rng::seed_from(10);
        let s = r.sample_indices(1000, 50);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "not strictly ascending/unique");
        assert!(s.iter().all(|&i| i < 1000));
        // k >= n returns everything.
        assert_eq!(r.sample_indices(5, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::seed_from(11);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
