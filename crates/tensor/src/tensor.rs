//! The n-dimensional `f32` array.

use crate::TensorError;

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Wrap a buffer; its length must match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self, TensorError> {
        let n: usize = shape.iter().product();
        if data.len() != n {
            return Err(TensorError::BadReshape {
                elements: data.len(),
                requested: shape.to_vec(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterpret with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let n: usize = shape.iter().product();
        if n != self.data.len() {
            return Err(TensorError::BadReshape {
                elements: self.data.len(),
                requested: shape.to_vec(),
            });
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// 4-D element access (`[n, c, h, w]` layout).
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (_, cs, hs, ws) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cs + c) * hs + h) * ws + w]
    }

    /// 4-D element write.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 4);
        let (_, cs, hs, ws) = (self.shape[0], self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cs + c) * hs + h) * ws + w] = v;
    }

    fn check_same_shape(&self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok(())
    }

    /// Elementwise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }

    /// In-place `self += alpha * other` (the optimiser/allreduce hot path).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scalar multiply.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// In-place scalar multiply.
    pub fn scale_mut(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    fn check_matmul_shapes(&self, other: &Tensor) -> Result<(usize, usize, usize), TensorError> {
        if self.shape.len() != 2 {
            return Err(TensorError::BadRank {
                expected: 2,
                actual: self.shape.clone(),
            });
        }
        if other.shape.len() != 2 || self.shape[1] != other.shape[0] {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        Ok((self.shape[0], self.shape[1], other.shape[1]))
    }

    /// Matrix product of two rank-2 tensors: `[m, k] x [k, n] → [m, n]`.
    ///
    /// Dispatches to the cache-blocked, row-band-parallel kernel in
    /// [`crate::matmul`] with the default worker count
    /// ([`ee_util::par::available_threads`]). The result is bit-identical
    /// to [`Tensor::matmul_serial_ref`] for any thread count.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_with_threads(other, ee_util::par::available_threads())
    }

    /// [`Tensor::matmul`] with an explicit worker budget.
    pub fn matmul_with_threads(
        &self,
        other: &Tensor,
        threads: usize,
    ) -> Result<Tensor, TensorError> {
        let (m, k, n) = self.check_matmul_shapes(other)?;
        let mut out = vec![0.0f32; m * n];
        crate::matmul::matmul_into(&self.data, &other.data, &mut out, m, k, n, threads);
        Ok(Tensor {
            shape: vec![m, n],
            data: out,
        })
    }

    /// The naive single-thread ikj reference matmul. Kept (and exported)
    /// as the bit-identity baseline for the blocked/parallel kernel; use
    /// [`Tensor::matmul`] everywhere else.
    pub fn matmul_serial_ref(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k, n) = self.check_matmul_shapes(other)?;
        let mut out = vec![0.0f32; m * n];
        crate::matmul::matmul_serial_ref(&self.data, &other.data, &mut out, m, k, n);
        Ok(Tensor {
            shape: vec![m, n],
            data: out,
        })
    }

    /// Sparsity-aware matmul that skips zero entries of `self`. Only
    /// worth it when `self` has structural zeros (post-ReLU activations,
    /// one-hot targets); bit-identical to the dense kernels on finite
    /// inputs.
    pub fn matmul_sparse(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k, n) = self.check_matmul_shapes(other)?;
        let mut out = vec![0.0f32; m * n];
        crate::matmul::matmul_sparse_into(&self.data, &other.data, &mut out, m, k, n);
        Ok(Tensor {
            shape: vec![m, n],
            data: out,
        })
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape.len() != 2 {
            return Err(TensorError::BadRank {
                expected: 2,
                actual: self.shape.clone(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Tensor {
            shape: vec![n, m],
            data: out,
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element of a 1-D view of row `i` of a rank-2
    /// tensor (classification argmax over logits).
    pub fn argmax_row(&self, i: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        let row = &self.data[i * n..(i + 1) * n];
        row.iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(j, _)| j)
            .unwrap_or(0)
    }

    /// Copy rows `[start, end)` of a rank-2 tensor (mini-batch slicing).
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor, TensorError> {
        if self.shape.len() < 2 {
            return Err(TensorError::BadRank {
                expected: 2,
                actual: self.shape.clone(),
            });
        }
        let row: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Ok(Tensor {
            shape,
            data: self.data[start * row..end * row].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.data()[2], 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data()[5], 5.0);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::full(&[2, 2], 2.0);
        assert_eq!(a.add(&b).unwrap().data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.scale(0.5).data(), &[0.5, 1.0, 1.5, 2.0]);
        let c = Tensor::zeros(&[2, 3]);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut acc = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        acc.axpy(0.5, &g).unwrap();
        acc.axpy(0.5, &g).unwrap();
        assert_eq!(acc.data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
        assert!(b.matmul(&b).is_err(), "inner dims must agree");
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![3.0, 1.0, 4.0, 1.0]).unwrap();
        let i = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data()[2 * 2 + 1], 5.0);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn matmul_transpose_identity_property() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_vec(&[2, 3], vec![1.0, -2.0, 0.5, 3.0, 1.0, -1.0]).unwrap();
        let b = Tensor::from_vec(&[3, 4], (0..12).map(|i| (i as f32) * 0.3 - 1.0).collect())
            .unwrap();
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn argmax_row_picks_peak() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.8]).unwrap();
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 2);
    }

    #[test]
    fn slice_rows_takes_batches() {
        let t = Tensor::from_vec(&[4, 2], (0..8).map(|i| i as f32).collect()).unwrap();
        let s = t.slice_rows(1, 3).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[2.0, 3.0, 4.0, 5.0]);
        // Works on rank-4 too (batch of images).
        let img = Tensor::zeros(&[4, 3, 2, 2]);
        let s = img.slice_rows(0, 2).unwrap();
        assert_eq!(s.shape(), &[2, 3, 2, 2]);
    }

    #[test]
    fn index4_layout() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        t.set4(1, 2, 3, 4, 42.0);
        assert_eq!(t.at4(1, 2, 3, 4), 42.0);
        // Row-major: last axis contiguous.
        #[allow(clippy::identity_op)] // spell out the full row-major index formula
        let flat = ((1 * 3 + 2) * 4 + 3) * 5 + 4;
        assert_eq!(t.data()[flat], 42.0);
    }
}
