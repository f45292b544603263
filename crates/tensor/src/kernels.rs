//! Convolutional-network kernels with hand-derived gradients.
//!
//! Layout conventions:
//! * activations: `[N, C, H, W]` (batch, channels, height, width);
//! * convolution weights: `[F, C, KH, KW]`, bias `[F]`;
//! * convolution uses stride 1 and symmetric zero padding `pad`;
//! * pooling is 2×2, stride 2.
//!
//! The convolution is an im2col + matmul, the standard CPU formulation,
//! parallelised across the batch: samples are split into contiguous
//! bands, each worker owns a thread-local column buffer (the old single
//! shared `Vec<f32>` forced serialisation), lowers its samples with a
//! row-segment `im2col` (contiguous `copy_from_slice` runs instead of a
//! per-pixel bounds branch) and multiplies with the cache-blocked kernel
//! from [`crate::matmul`]. Gradients reduce per-sample partials in sample
//! order, so `dx`/`dw`/`db` are bit-identical for any worker count; the
//! serial baselines ([`conv2d_forward_ref`], [`conv2d_backward_ref`])
//! preserve the original one-sample-at-a-time formulation and the tests
//! compare raw bits against them. Every kernel also has a
//! finite-difference gradient check.

use crate::matmul;
use crate::tensor::Tensor;
use crate::TensorError;
use ee_util::par;

/// Output spatial size of a stride-1 convolution.
pub fn conv_out_size(h: usize, w: usize, kh: usize, kw: usize, pad: usize) -> (usize, usize) {
    (h + 2 * pad + 1 - kh, w + 2 * pad + 1 - kw)
}

/// Shared geometry of one convolution call.
#[derive(Clone, Copy)]
struct ConvGeom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    /// `C * KH * KW`, the column-matrix row count.
    rows: usize,
}

impl ConvGeom {
    fn new(c: usize, h: usize, w: usize, kh: usize, kw: usize, pad: usize) -> Self {
        let (oh, ow) = conv_out_size(h, w, kh, kw, pad);
        Self {
            c,
            h,
            w,
            kh,
            kw,
            pad,
            oh,
            ow,
            rows: c * kh * kw,
        }
    }
}

/// Lower one sample `[C, H, W]` into columns `[C*KH*KW, OH*OW]` using
/// contiguous row-segment copies (zero-fill at the padded borders).
/// Produces exactly the same values as [`im2col_ref`].
fn im2col_into(x_sample: &[f32], g: &ConvGeom, cols: &mut [f32]) {
    debug_assert_eq!(x_sample.len(), g.c * g.h * g.w);
    debug_assert_eq!(cols.len(), g.rows * g.oh * g.ow);
    let ohw = g.oh * g.ow;
    for ci in 0..g.c {
        let chan = &x_sample[ci * g.h * g.w..(ci + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (ci * g.kh + ki) * g.kw + kj;
                // Valid horizontal output range for this kernel column:
                // src_j = oj + kj - pad must land in [0, w).
                let lo = g.pad.saturating_sub(kj);
                let hi = (g.w + g.pad).saturating_sub(kj).min(g.ow);
                for oi in 0..g.oh {
                    let dst = &mut cols[row * ohw + oi * g.ow..row * ohw + (oi + 1) * g.ow];
                    let src_i = oi + ki;
                    if src_i < g.pad || src_i - g.pad >= g.h || hi <= lo {
                        dst.fill(0.0);
                    } else {
                        dst[..lo].fill(0.0);
                        let src = (src_i - g.pad) * g.w + lo + kj - g.pad;
                        dst[lo..hi].copy_from_slice(&chan[src..src + (hi - lo)]);
                        dst[hi..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// [`im2col_into`] writing the transposed layout `[OH*OW, C*KH*KW]`
/// directly — the backward pass needs only `colsᵀ` (for `dW = dOut ·
/// colsᵀ` through the tiled kernel), so materialising the transpose
/// without the intermediate saves a full pass over the buffer. Values
/// are identical to transposing [`im2col_into`]'s output.
fn im2col_t_into(x_sample: &[f32], g: &ConvGeom, cols_t: &mut [f32]) {
    debug_assert_eq!(x_sample.len(), g.c * g.h * g.w);
    debug_assert_eq!(cols_t.len(), g.rows * g.oh * g.ow);
    cols_t.fill(0.0);
    for ci in 0..g.c {
        let chan = &x_sample[ci * g.h * g.w..(ci + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (ci * g.kh + ki) * g.kw + kj;
                let lo = g.pad.saturating_sub(kj);
                let hi = (g.w + g.pad).saturating_sub(kj).min(g.ow);
                if hi <= lo {
                    continue;
                }
                for oi in 0..g.oh {
                    let src_i = oi + ki;
                    if src_i < g.pad || src_i - g.pad >= g.h {
                        continue;
                    }
                    let src = (src_i - g.pad) * g.w + lo + kj - g.pad;
                    let seg = &chan[src..src + (hi - lo)];
                    for (oj, &v) in seg.iter().enumerate() {
                        cols_t[(oi * g.ow + lo + oj) * g.rows + row] = v;
                    }
                }
            }
        }
    }
}

/// Scatter columns back into one sample's image gradient (transpose of
/// [`im2col_into`]), accumulating. Element-addition order matches
/// [`col2im_ref`] exactly.
fn col2im_into(cols: &[f32], g: &ConvGeom, dx_sample: &mut [f32]) {
    debug_assert_eq!(dx_sample.len(), g.c * g.h * g.w);
    let ohw = g.oh * g.ow;
    for ci in 0..g.c {
        let chan = &mut dx_sample[ci * g.h * g.w..(ci + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (ci * g.kh + ki) * g.kw + kj;
                let lo = g.pad.saturating_sub(kj);
                let hi = (g.w + g.pad).saturating_sub(kj).min(g.ow);
                if hi <= lo {
                    continue;
                }
                // Valid vertical output range: src_i = oi + ki - pad must
                // land in [0, h). Walking both sides in row chunks lets
                // the compiler hoist the bounds work out of the hot loop;
                // each dx element still receives exactly one add per
                // (ki, kj), in the same (ci, ki, kj, oi) order as the
                // reference.
                let oi0 = g.pad.saturating_sub(ki);
                let oi1 = (g.h + g.pad).saturating_sub(ki).min(g.oh);
                if oi1 <= oi0 {
                    continue;
                }
                let off = lo + kj - g.pad;
                let src_rows = cols[row * ohw + oi0 * g.ow..row * ohw + oi1 * g.ow]
                    .chunks_exact(g.ow);
                let dst_rows = chan[(oi0 + ki - g.pad) * g.w..]
                    .chunks_mut(g.w)
                    .take(oi1 - oi0);
                for (srow, drow) in src_rows.zip(dst_rows) {
                    for (d, &v) in drow[off..off + (hi - lo)].iter_mut().zip(&srow[lo..hi]) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Reference im2col: the original per-pixel formulation. Kept as the
/// baseline the fast path is tested (and benchmarked) against.
fn im2col_ref(
    x: &Tensor,
    n: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    cols: &mut Vec<f32>,
) -> (usize, usize) {
    let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = conv_out_size(h, w, kh, kw, pad);
    let rows = c * kh * kw;
    cols.clear();
    cols.resize(rows * oh * ow, 0.0);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oi in 0..oh {
                    let src_i = oi + ki;
                    for oj in 0..ow {
                        let src_j = oj + kj;
                        let v = if src_i >= pad && src_j >= pad && src_i - pad < h && src_j - pad < w
                        {
                            x.at4(n, ci, src_i - pad, src_j - pad)
                        } else {
                            0.0
                        };
                        cols[row * (oh * ow) + oi * ow + oj] = v;
                    }
                }
            }
        }
    }
    (oh, ow)
}

/// Reference col2im (transpose of [`im2col_ref`]).
#[allow(clippy::too_many_arguments)] // mirrors im2col's geometry parameters
fn col2im_ref(
    cols: &[f32],
    dx: &mut Tensor,
    n: usize,
    kh: usize,
    kw: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) {
    let (c, h, w) = (dx.shape()[1], dx.shape()[2], dx.shape()[3]);
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oi in 0..oh {
                    let src_i = oi + ki;
                    for oj in 0..ow {
                        let src_j = oj + kj;
                        if src_i >= pad && src_j >= pad && src_i - pad < h && src_j - pad < w {
                            let v = cols[row * (oh * ow) + oi * ow + oj];
                            let old = dx.at4(n, ci, src_i - pad, src_j - pad);
                            dx.set4(n, ci, src_i - pad, src_j - pad, old + v);
                        }
                    }
                }
            }
        }
    }
}

/// Clamp a requested worker count to the useful parallelism of a conv
/// problem: at least ~4M multiply-adds per worker (below that, handing
/// bands to pool helpers costs more than the work it buys), and never more
/// workers than samples. Results are bit-identical at any worker count,
/// so this only changes scheduling.
fn conv_workers(requested: usize, n: usize, madds: usize) -> usize {
    const MADDS_PER_WORKER: usize = 4 << 20;
    requested
        .min(n)
        .min((madds / MADDS_PER_WORKER).max(1))
        .max(1)
}

fn check_conv_shapes(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
) -> Result<(usize, usize), TensorError> {
    if x.shape().len() != 4 {
        return Err(TensorError::BadRank {
            expected: 4,
            actual: x.shape().to_vec(),
        });
    }
    let c = x.shape()[1];
    let (f, wc) = (weight.shape()[0], weight.shape()[1]);
    let bias_ok = bias.is_none_or(|b| b.shape() == [f]);
    if wc != c || !bias_ok {
        return Err(TensorError::ShapeMismatch {
            left: x.shape().to_vec(),
            right: weight.shape().to_vec(),
        });
    }
    Ok((x.shape()[0], f))
}

/// Forward convolution. `x: [N,C,H,W]`, `weight: [F,C,KH,KW]`, `bias: [F]`
/// → `[N,F,OH,OW]`. Batch-parallel with the default worker count.
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
) -> Result<Tensor, TensorError> {
    conv2d_forward_with_threads(x, weight, bias, pad, par::available_threads())
}

/// [`conv2d_forward`] with an explicit worker budget. Bit-identical to
/// [`conv2d_forward_ref`] for any thread count.
pub fn conv2d_forward_with_threads(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    threads: usize,
) -> Result<Tensor, TensorError> {
    let (n, f) = check_conv_shapes(x, weight, Some(bias))?;
    let g = ConvGeom::new(
        x.shape()[1],
        x.shape()[2],
        x.shape()[3],
        weight.shape()[2],
        weight.shape()[3],
        pad,
    );
    let ohw = g.oh * g.ow;
    let sample_in = g.c * g.h * g.w;
    let sample_out = f * ohw;
    let mut out = Tensor::zeros(&[n, f, g.oh, g.ow]);
    if n == 0 || sample_out == 0 {
        return Ok(out);
    }
    // weight is [F, C, KH, KW] row-major == [F, rows] flattened.
    let (w_flat, x_flat, b_flat) = (weight.data(), x.data(), bias.data());
    let threads = conv_workers(threads, n, n * f * g.rows * ohw);
    par::for_rows_mut(out.data_mut(), sample_out, threads, |first, band| {
        // Thread-local column buffer: workers never share im2col state.
        let mut cols = vec![0.0f32; g.rows * ohw];
        for (s, y) in band.chunks_mut(sample_out).enumerate() {
            let ni = first + s;
            im2col_into(&x_flat[ni * sample_in..(ni + 1) * sample_in], &g, &mut cols);
            matmul::matmul_into(w_flat, &cols, y, f, g.rows, ohw, 1);
            for fi in 0..f {
                let bv = b_flat[fi];
                for o in &mut y[fi * ohw..(fi + 1) * ohw] {
                    *o += bv;
                }
            }
        }
    });
    Ok(out)
}

/// Serial reference forward convolution: the original one-sample-at-a-time
/// shared-buffer formulation with the naive matmul. The parallel path is
/// tested bit-for-bit against this (and benchmarked against it in E-k0).
pub fn conv2d_forward_ref(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
) -> Result<Tensor, TensorError> {
    let (n, f) = check_conv_shapes(x, weight, Some(bias))?;
    let (h, w) = (x.shape()[2], x.shape()[3]);
    let (kh, kw) = (weight.shape()[2], weight.shape()[3]);
    let (oh, ow) = conv_out_size(h, w, kh, kw, pad);
    let rows = x.shape()[1] * kh * kw;
    let w_mat = weight.reshape(&[f, rows])?;
    let mut out = Tensor::zeros(&[n, f, oh, ow]);
    let mut cols = Vec::new();
    for ni in 0..n {
        im2col_ref(x, ni, kh, kw, pad, &mut cols);
        let col_t = Tensor::from_vec(&[rows, oh * ow], cols.clone())?;
        let y = w_mat.matmul_serial_ref(&col_t)?; // [F, OH*OW]
        for fi in 0..f {
            let b = bias.data()[fi];
            for p in 0..oh * ow {
                let v = y.data()[fi * oh * ow + p] + b;
                out.data_mut()[((ni * f + fi) * oh + p / ow) * ow + p % ow] = v;
            }
        }
    }
    Ok(out)
}

/// Gradients of a convolution: returns `(dx, dweight, dbias)`.
/// Batch-parallel with the default worker count.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    conv2d_backward_with_threads(x, weight, dout, pad, par::available_threads())
}

/// [`conv2d_backward`] with an explicit worker budget.
///
/// Workers compute per-sample `(dw, db)` partials which the caller
/// reduces in ascending sample order — the same association as the serial
/// reference — while `dx` is written into disjoint per-sample bands, so
/// all three gradients are bit-identical to [`conv2d_backward_ref`] for
/// any thread count.
pub fn conv2d_backward_with_threads(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    threads: usize,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    let (n, f) = check_conv_shapes(x, weight, None)?;
    let g = ConvGeom::new(
        x.shape()[1],
        x.shape()[2],
        x.shape()[3],
        weight.shape()[2],
        weight.shape()[3],
        pad,
    );
    let ohw = g.oh * g.ow;
    let sample_in = g.c * g.h * g.w;
    let sample_out = f * ohw;
    // wᵀ as [rows, F], shared read-only across workers.
    let mut w_t = vec![0.0f32; g.rows * f];
    for fi in 0..f {
        for r in 0..g.rows {
            w_t[r * f + fi] = weight.data()[fi * g.rows + r];
        }
    }
    let mut dx = Tensor::zeros(&[n, g.c, g.h, g.w]);
    let (x_flat, dout_flat) = (x.data(), dout.data());
    let threads = conv_workers(threads, n, 2 * n * f * g.rows * ohw);
    let per_sample: Vec<Vec<(Vec<f32>, Vec<f32>)>> = if n == 0 {
        Vec::new()
    } else {
        par::for_rows_mut(dx.data_mut(), sample_in, threads, |first, band| {
            let mut cols_t = vec![0.0f32; ohw * g.rows];
            let mut dcols = vec![0.0f32; g.rows * ohw];
            let mut partials = Vec::with_capacity(band.len() / sample_in);
            for (s, dxs) in band.chunks_mut(sample_in).enumerate() {
                let ni = first + s;
                // dOut for this sample is already a contiguous [F, OH*OW]
                // slice in [N,F,OH,OW] layout.
                let dslice = &dout_flat[ni * sample_out..(ni + 1) * sample_out];
                let mut db_n = vec![0.0f32; f];
                for (fi, dbv) in db_n.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for &v in &dslice[fi * ohw..(fi + 1) * ohw] {
                        acc += v;
                    }
                    *dbv = acc;
                }
                // dW_n = dOut · colsᵀ, through the tiled kernel over a
                // directly-materialised transposed im2col (thread-local
                // buffer): the tiled kernel accumulates each element in
                // ascending-k order, the same association as the
                // reference's naive matmul over its own materialised
                // transpose — and unlike an in-place row-dot it
                // autovectorises.
                im2col_t_into(&x_flat[ni * sample_in..(ni + 1) * sample_in], &g, &mut cols_t);
                let mut dw_n = vec![0.0f32; f * g.rows];
                matmul::matmul_into(dslice, &cols_t, &mut dw_n, f, ohw, g.rows, 1);
                // dCols = wᵀ · dOut, scattered back into this sample's dx.
                matmul::matmul_into(&w_t, dslice, &mut dcols, g.rows, f, ohw, 1);
                col2im_into(&dcols, &g, dxs);
                partials.push((dw_n, db_n));
            }
            partials
        })
    };
    // Fixed-order reduction: samples ascending, exactly the serial
    // association.
    let mut dw = vec![0.0f32; f * g.rows];
    let mut db = vec![0.0f32; f];
    for band in per_sample {
        for (dw_n, db_n) in band {
            for (a, b) in dw.iter_mut().zip(&dw_n) {
                *a += b;
            }
            for (a, b) in db.iter_mut().zip(&db_n) {
                *a += b;
            }
        }
    }
    Ok((
        dx,
        Tensor::from_vec(&[f, g.c, g.kh, g.kw], dw)?,
        Tensor::from_vec(&[f], db)?,
    ))
}

/// Serial reference backward convolution: one sample at a time with the
/// naive matmul and per-sample `(dw, db)` partials added in sample order.
pub fn conv2d_backward_ref(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (f, _, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    let (oh, ow) = conv_out_size(h, w, kh, kw, pad);
    let rows = c * kh * kw;
    let w_mat = weight.reshape(&[f, rows])?;
    let w_t = w_mat.transpose()?;
    let mut dw = Tensor::zeros(&[f, rows]);
    let mut db = Tensor::zeros(&[f]);
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let mut cols = Vec::new();
    for ni in 0..n {
        // dOut slice for this sample as [F, OH*OW]; db accumulates a
        // per-sample partial (summed from zero) so the association is
        // sample-major — the property the parallel reduction reproduces.
        let mut dslice = vec![0.0f32; f * oh * ow];
        let mut db_n = vec![0.0f32; f];
        for fi in 0..f {
            for p in 0..oh * ow {
                let v = dout.at4(ni, fi, p / ow, p % ow);
                dslice[fi * oh * ow + p] = v;
                db_n[fi] += v;
            }
        }
        for (acc, v) in db.data_mut().iter_mut().zip(&db_n) {
            *acc += v;
        }
        let d_mat = Tensor::from_vec(&[f, oh * ow], dslice)?;
        im2col_ref(x, ni, kh, kw, pad, &mut cols);
        let col_t = Tensor::from_vec(&[rows, oh * ow], cols.clone())?;
        // dW += dOut · colsᵀ
        let dw_n = d_mat.matmul_serial_ref(&col_t.transpose()?)?;
        dw.axpy(1.0, &dw_n)?;
        // dCols = Wᵀ · dOut, scattered back.
        let dcols = w_t.matmul_serial_ref(&d_mat)?;
        col2im_ref(dcols.data(), &mut dx, ni, kh, kw, pad, oh, ow);
    }
    Ok((dx, dw.reshape(&[f, c, kh, kw])?, db))
}

/// 2×2 max pooling, stride 2. Returns the pooled tensor and the flat
/// indices of each maximum (for the backward pass). Odd trailing rows or
/// columns are truncated, as most frameworks do.
pub fn maxpool2_forward(x: &Tensor) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut idx = vec![0usize; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_at = 0usize;
                    for di in 0..2 {
                        for dj in 0..2 {
                            let (i, j) = (oi * 2 + di, oj * 2 + dj);
                            let v = x.at4(ni, ci, i, j);
                            if v > best {
                                best = v;
                                best_at = ((ni * c + ci) * h + i) * w + j;
                            }
                        }
                    }
                    out.set4(ni, ci, oi, oj, best);
                    idx[((ni * c + ci) * oh + oi) * ow + oj] = best_at;
                }
            }
        }
    }
    (out, idx)
}

/// Backward of 2×2 max pooling: routes each output gradient to the input
/// position that won the max.
pub fn maxpool2_backward(dout: &Tensor, idx: &[usize], input_shape: &[usize]) -> Tensor {
    let mut dx = Tensor::zeros(input_shape);
    for (flat, &src) in idx.iter().enumerate() {
        dx.data_mut()[src] += dout.data()[flat];
    }
    dx
}

/// ReLU forward; returns activations and the pass-through mask.
pub fn relu_forward(x: &Tensor) -> (Tensor, Vec<bool>) {
    let mask: Vec<bool> = x.data().iter().map(|&v| v > 0.0).collect();
    let mut y = x.clone();
    for v in y.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    (y, mask)
}

/// ReLU backward.
pub fn relu_backward(dout: &Tensor, mask: &[bool]) -> Tensor {
    let mut dx = dout.clone();
    for (v, &m) in dx.data_mut().iter_mut().zip(mask) {
        if !m {
            *v = 0.0;
        }
    }
    dx
}

/// Row-wise softmax of logits `[N, K]`.
pub fn softmax(logits: &Tensor) -> Tensor {
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    let mut out = logits.clone();
    for i in 0..n {
        let row = &mut out.data_mut()[i * k..(i + 1) * k];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Mean cross-entropy of logits `[N, K]` against integer labels, plus the
/// gradient w.r.t. the logits (`(softmax − onehot) / N`).
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), n, "one label per row");
    let probs = softmax(logits);
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < k, "label {y} out of range {k}");
        let p = probs.data()[i * k + y].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[i * k + y] -= 1.0;
    }
    grad.scale_mut(1.0 / n as f32);
    (loss / n as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_util::Rng;

    fn random_tensor(shape: &[usize], rng: &mut Rng) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.normal(0.0, 1.0) as f32).collect()).unwrap()
    }

    #[test]
    fn conv_output_size() {
        assert_eq!(conv_out_size(8, 8, 3, 3, 1), (8, 8), "same-padding");
        assert_eq!(conv_out_size(8, 8, 3, 3, 0), (6, 6), "valid");
        assert_eq!(conv_out_size(5, 7, 1, 1, 0), (5, 7));
    }

    #[test]
    fn conv_identity_kernel() {
        // A single 1x1 identity filter reproduces the input channel.
        let mut rng = Rng::seed_from(1);
        let x = random_tensor(&[2, 1, 4, 4], &mut rng);
        let w = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]).unwrap();
        let b = Tensor::zeros(&[1]);
        let y = conv2d_forward(&x, &w, &b, 0).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_known_sum_kernel() {
        // 3x3 all-ones filter over a constant image = 9 * value inside,
        // less at padded borders.
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        let w = Tensor::full(&[1, 1, 3, 3], 1.0);
        let b = Tensor::zeros(&[1]);
        let y = conv2d_forward(&x, &w, &b, 1).unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
        assert_eq!(y.at4(0, 0, 1, 1), 9.0, "interior");
        assert_eq!(y.at4(0, 0, 0, 0), 4.0, "corner sees 2x2");
        assert_eq!(y.at4(0, 0, 0, 1), 6.0, "edge sees 2x3");
    }

    #[test]
    fn conv_bias_is_added() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(&[2], vec![0.5, -1.5]).unwrap();
        let y = conv2d_forward(&x, &w, &b, 0).unwrap();
        assert_eq!(y.at4(0, 0, 1, 1), 0.5);
        assert_eq!(y.at4(0, 1, 0, 0), -1.5);
    }

    /// Finite-difference gradient check for the full conv + loss chain.
    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut rng = Rng::seed_from(42);
        let x = random_tensor(&[2, 2, 5, 5], &mut rng);
        let w = random_tensor(&[3, 2, 3, 3], &mut rng).scale(0.3);
        let b = random_tensor(&[3], &mut rng).scale(0.1);
        let pad = 1;
        // Loss = sum of outputs (so dOut = ones).
        let y = conv2d_forward(&x, &w, &b, pad).unwrap();
        let dout = Tensor::full(y.shape(), 1.0);
        let (dx, dw, db) = conv2d_backward(&x, &w, &dout, pad).unwrap();
        let eps = 1e-2f32;
        let loss = |x: &Tensor, w: &Tensor, b: &Tensor| -> f32 {
            conv2d_forward(x, w, b, pad).unwrap().sum()
        };
        // Check a scattering of coordinates in each parameter.
        for &i in &[0usize, 7, 31, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let num = (loss(&xp, &w, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - dx.data()[i]).abs() < 0.05,
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
        for &i in &[0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - dw.data()[i]).abs() < 0.5,
                "dw[{i}]: numeric {num} vs analytic {}",
                dw.data()[i]
            );
        }
        for i in 0..3 {
            let mut bp = b.clone();
            bp.data_mut()[i] += eps;
            let num = (loss(&x, &w, &bp) - loss(&x, &w, &b)) / eps;
            assert!(
                (num - db.data()[i]).abs() < 0.5,
                "db[{i}]: numeric {num} vs analytic {}",
                db.data()[i]
            );
        }
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let (y, idx) = maxpool2_forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
        let dout = Tensor::full(&[1, 1, 2, 2], 1.0);
        let dx = maxpool2_backward(&dout, &idx, &[1, 1, 4, 4]);
        // Gradient lands exactly on the max positions.
        assert_eq!(dx.data()[5], 1.0); // value 4.0 at (1,1)
        assert_eq!(dx.data()[0], 0.0);
        assert_eq!(dx.sum(), 4.0);
    }

    #[test]
    fn maxpool_truncates_odd_sizes() {
        let x = Tensor::full(&[1, 1, 5, 5], 1.0);
        let (y, _) = maxpool2_forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn relu_masks_negatives() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let (y, mask) = relu_forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let dout = Tensor::full(&[4], 1.0);
        let dx = relu_backward(&dout, &mask);
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::seed_from(3);
        let logits = random_tensor(&[5, 7], &mut rng).scale(3.0);
        let p = softmax(&logits);
        for i in 0..5 {
            let s: f32 = p.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.data()[i * 7..(i + 1) * 7].iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(&[1, 3], vec![101.0, 102.0, 103.0]).unwrap();
        let (pa, pb) = (softmax(&a), softmax(&b));
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_of_confident_correct_is_small() {
        let logits = Tensor::from_vec(&[1, 3], vec![10.0, -10.0, -10.0]).unwrap();
        let (loss, _) = cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
        let (loss_bad, _) = cross_entropy(&logits, &[1]);
        assert!(loss_bad > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let mut rng = Rng::seed_from(9);
        let logits = random_tensor(&[4, 5], &mut rng);
        let labels = [0usize, 3, 2, 4];
        let (_, grad) = cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let (l1, _) = cross_entropy(&lp, &labels);
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (l0, _) = cross_entropy(&lm, &labels);
            let num = (l1 - l0) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "grad[{i}]: numeric {num} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        // Softmax-CE gradient rows sum to zero (probability simplex).
        let logits = Tensor::from_vec(&[2, 3], vec![0.3, -1.2, 0.8, 2.0, 0.0, -0.5]).unwrap();
        let (_, grad) = cross_entropy(&logits, &[1, 0]);
        for i in 0..2 {
            let s: f32 = grad.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }
}
