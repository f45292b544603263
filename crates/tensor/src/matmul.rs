//! Cache-blocked, row-parallel matrix-multiply kernels.
//!
//! Three kernels share one contract — `out[i][j] = Σ_k a[i][k] * b[k][j]`
//! with the sum accumulated in ascending `k` order — so they are
//! bit-identical to each other on finite inputs:
//!
//! * [`matmul_serial_ref`] — the naive ikj triple loop. Slow, obviously
//!   correct; the reference every other kernel is tested against.
//! * [`matmul_into`] — the production kernel: an `MR`×`NR` register tile
//!   accumulated over `KC`-deep k-blocks, parallelised over contiguous
//!   row bands of the output. Each output element is owned by exactly one
//!   band, and within the tile the k loop still runs 0..k in order, so
//!   the result is bit-identical to the reference for *any* thread count.
//! * [`matmul_sparse_into`] — the old seed kernel's `a == 0.0` skip, kept
//!   as an opt-in variant for operands with proven sparsity (post-ReLU
//!   activations, one-hot targets). Skipping a zero term never changes
//!   the accumulator bits on finite inputs: `acc + 0.0 * b == acc`
//!   whenever `acc` is not `-0.0`, and a sum that started at `+0.0` can
//!   only become `-0.0` by adding `-0.0` terms, which the skip also
//!   drops. The tests assert exact equality with the dense reference.
//!
//! Tile sizes were chosen empirically on an AVX-512 Xeon: 8×32 output
//! tiles at `KC = 256`. On CPUs with `avx512f` the full tile runs through
//! a hand-written `std::arch` micro-kernel (the accumulator pinned in 16
//! zmm registers, separate multiply/add roundings) selected by runtime
//! feature detection, ~4× the naive loop for 512×512×512; everywhere
//! else the portable tiles lean on the autovectoriser (see
//! `.cargo/config.toml` for the `target-cpu` note).

use ee_util::par;

/// Output-tile rows held in registers.
pub const MR: usize = 8;
/// Output-tile columns held in registers.
pub const NR: usize = 32;
/// Half-width column tile used for ragged n-edges in `[16, 32)`.
pub const NR2: usize = 16;
/// Depth of one k-block (sized so an `NR`-wide stripe of `b` stays in L1).
pub const KC: usize = 256;

/// Work (in multiply-adds) below which threading is not worth a spawn.
const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// Naive ikj reference: `out = a · b` for row-major `a: [m,k]`,
/// `b: [k,n]`, `out: [m,n]`. Accumulates each element in ascending `k`
/// order — the contract all other kernels reproduce bit-for-bit.
pub fn matmul_serial_ref(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Sparsity-aware variant of [`matmul_serial_ref`]: skips `a[i][k] == 0`
/// terms. Use only where zeros are structurally common (post-ReLU
/// activations, one-hot rows); bit-identical to the dense reference on
/// finite inputs.
pub fn matmul_sparse_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `rows`-high, `W`-wide register tile at `(i, j)` over `kb..kend`:
/// the accumulator lives in a stack array the autovectoriser maps onto
/// vector registers, loaded from and stored back to `out_band` once per
/// k-block. Accumulation is ascending-`k` per element, the association
/// every kernel here shares.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile_at<const W: usize>(
    a_band: &[f32],
    b: &[f32],
    out_band: &mut [f32],
    k: usize,
    n: usize,
    i: usize,
    rows: usize,
    j: usize,
    kb: usize,
    kend: usize,
) {
    for r in 0..rows {
        let row = (i + r) * n + j;
        let mut acc = [0.0f32; W];
        acc.copy_from_slice(&out_band[row..row + W]);
        for kk in kb..kend {
            let av = a_band[(i + r) * k + kk];
            let b_row: &[f32; W] = b[kk * n + j..kk * n + j + W].try_into().unwrap();
            for (o, &bv) in acc.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        out_band[row..row + W].copy_from_slice(&acc);
    }
}

/// Hand-written AVX-512 inner kernel for the full `MR`×`NR` tile.
///
/// The portable [`tile_at`] leans on the autovectoriser, which keeps the
/// 8×32 accumulator partly in memory; pinning it in 16 zmm registers
/// roughly doubles throughput. Each lane still computes
/// `acc = acc + (a * b)` with separate multiply and add roundings in
/// ascending-`k` order — the exact scalar operation sequence of
/// [`matmul_serial_ref`], so the result is bit-identical.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MR, NR};
    use core::arch::x86_64::*;

    /// Whether the running CPU supports the kernel (checked once, cached
    /// by `std` behind an atomic).
    #[inline]
    pub fn available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// # Safety
    /// Caller guarantees `avx512f` is available and the `MR`×`NR` tile at
    /// `(i, j)` is fully in bounds for `a_band`/`b`/`out_band`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tile_8x32(
        a_band: &[f32],
        b: &[f32],
        out_band: &mut [f32],
        k: usize,
        n: usize,
        i: usize,
        j: usize,
        kb: usize,
        kend: usize,
    ) {
        debug_assert!((i + MR - 1) * n + j + NR <= out_band.len());
        debug_assert!((kend - 1) * n + j + NR <= b.len());
        debug_assert!((i + MR - 1) * k + kend <= a_band.len());
        let a_ptr = a_band.as_ptr();
        let b_ptr = b.as_ptr();
        let o_ptr = out_band.as_mut_ptr();
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let p = o_ptr.add((i + r) * n + j);
            acc_r[0] = _mm512_loadu_ps(p);
            acc_r[1] = _mm512_loadu_ps(p.add(16));
        }
        for kk in kb..kend {
            let bp = b_ptr.add(kk * n + j);
            let b0 = _mm512_loadu_ps(bp);
            let b1 = _mm512_loadu_ps(bp.add(16));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a_ptr.add((i + r) * k + kk));
                acc_r[0] = _mm512_add_ps(acc_r[0], _mm512_mul_ps(av, b0));
                acc_r[1] = _mm512_add_ps(acc_r[1], _mm512_mul_ps(av, b1));
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let p = o_ptr.add((i + r) * n + j);
            _mm512_storeu_ps(p, acc_r[0]);
            _mm512_storeu_ps(p.add(16), acc_r[1]);
        }
    }
}

/// Register-tiled kernel over one row band: `a_band: [band_rows, k]`,
/// `out_band: [band_rows, n]`, shared `b: [k, n]`.
///
/// Columns are covered by `NR`-wide tiles (hand-written AVX-512 where the
/// CPU has it, portable autovectorised code otherwise), then an
/// `NR2`-wide tile for edges in `[16, 32)`, then a plain loop for the
/// last `< 16` columns; rows by `MR`-high tiles with a shorter tile on
/// the ragged edge. All paths accumulate each output element in
/// ascending-`k` order with separate multiply and add roundings, so the
/// result is bit-identical to [`matmul_serial_ref`] regardless of which
/// tiles a shape lands on.
fn tile_band(a_band: &[f32], b: &[f32], out_band: &mut [f32], k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    let use_avx512 = avx512::available();
    let band_rows = out_band.len() / n.max(1);
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KC).min(k);
        let mut i = 0;
        while i < band_rows {
            let mh = MR.min(band_rows - i);
            let mut j = 0;
            while j < n {
                let rem = n - j;
                if rem >= NR {
                    #[cfg(target_arch = "x86_64")]
                    if use_avx512 && mh == MR {
                        // SAFETY: avx512f checked above; the tile is in
                        // bounds because rem >= NR and mh == MR.
                        unsafe {
                            avx512::tile_8x32(a_band, b, out_band, k, n, i, j, kb, kend);
                        }
                        j += NR;
                        continue;
                    }
                    tile_at::<NR>(a_band, b, out_band, k, n, i, mh, j, kb, kend);
                    j += NR;
                } else if rem >= NR2 {
                    tile_at::<NR2>(a_band, b, out_band, k, n, i, mh, j, kb, kend);
                    j += NR2;
                } else {
                    for r in 0..mh {
                        let row = (i + r) * n + j;
                        let out_row = &mut out_band[row..row + rem];
                        for kk in kb..kend {
                            let av = a_band[(i + r) * k + kk];
                            let b_row = &b[kk * n + j..kk * n + j + rem];
                            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                                *o += av * bv;
                            }
                        }
                    }
                    j += rem;
                }
            }
            i += mh;
        }
        kb = kend;
    }
}

/// Production matmul: `out = a · b`, cache-blocked and parallelised over
/// row bands on up to `threads` workers. Bit-identical to
/// [`matmul_serial_ref`] for any thread count.
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    out.fill(0.0);
    if k == 0 {
        return;
    }
    let t = if m * k * n < PAR_THRESHOLD {
        1
    } else {
        threads.min(m.div_ceil(MR)).max(1)
    };
    par::for_rows_mut(out, n, t, |first_row, out_band| {
        let band_rows = out_band.len() / n;
        let a_band = &a[first_row * k..(first_row + band_rows) * k];
        tile_band(a_band, b, out_band, k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_util::Rng;

    fn random(len: usize, rng: &mut Rng) -> Vec<f32> {
        (0..len).map(|_| rng.normal(0.0, 1.0) as f32).collect()
    }

    /// Shapes chosen to exercise every edge: smaller than one tile, tile
    /// boundaries exactly, ragged in every dimension, k crossing KC.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (3, 5, 2),
        (MR, 4, NR),
        (MR + 1, 3, NR + 1),
        (2 * MR + 3, KC + 17, NR - 1),
        (17, 64, 65),
        (64, KC + 1, 33),
    ];

    #[test]
    fn tiled_matches_reference_bitwise_all_shapes_and_threads() {
        let mut rng = Rng::seed_from(7);
        for &(m, k, n) in SHAPES {
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            let mut reference = vec![0.0f32; m * n];
            matmul_serial_ref(&a, &b, &mut reference, m, k, n);
            for threads in [1usize, 2, 3, 4, 8] {
                let mut out = vec![f32::NAN; m * n];
                matmul_into(&a, &b, &mut out, m, k, n, threads);
                assert!(
                    out.iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "({m},{k},{n}) threads={threads} not bit-identical"
                );
            }
        }
    }

    #[test]
    fn sparse_skip_is_bitwise_harmless_on_finite_inputs() {
        let mut rng = Rng::seed_from(11);
        for &(m, k, n) in SHAPES {
            // Half the entries exactly zero, like post-ReLU activations.
            let a: Vec<f32> = random(m * k, &mut rng)
                .into_iter()
                .map(|v| if v < 0.0 { 0.0 } else { v })
                .collect();
            let b = random(k * n, &mut rng);
            let mut dense = vec![0.0f32; m * n];
            let mut sparse = vec![0.0f32; m * n];
            matmul_serial_ref(&a, &b, &mut dense, m, k, n);
            matmul_sparse_into(&a, &b, &mut sparse, m, k, n);
            assert!(
                dense.iter().zip(&sparse).all(|(x, y)| x.to_bits() == y.to_bits()),
                "({m},{k},{n}) sparse variant diverged"
            );
        }
    }

    #[test]
    fn degenerate_dims() {
        let mut out = vec![1.0f32; 6];
        // k == 0: product of [2,0] x [0,3] is the zero matrix.
        matmul_into(&[], &[], &mut out, 2, 0, 3, 4);
        assert_eq!(out, vec![0.0; 6]);
    }

    #[test]
    fn known_product() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut out = vec![0.0f32; 4];
        matmul_into(&a, &b, &mut out, 2, 3, 2, 4);
        assert_eq!(out, vec![58.0, 64.0, 139.0, 154.0]);
    }
}
