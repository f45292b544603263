//! Sequential models: forward/backward across a layer stack, flat
//! parameter/gradient vectors for the distributed strategies, and
//! evaluation helpers.

use crate::layer::Layer;
use crate::DlError;
use ee_tensor::{kernels, Tensor};
use ee_util::stats::ConfusionMatrix;

/// A feed-forward stack of layers ending in `num_classes` logits.
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Layer>,
    num_classes: usize,
}

impl Sequential {
    /// Build from layers. `num_classes` is the logit width, used by the
    /// loss and evaluation helpers.
    pub fn new(layers: Vec<Layer>, num_classes: usize) -> Self {
        Self {
            layers,
            num_classes,
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, DlError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, training)?;
        }
        Ok(cur)
    }

    /// One training step's gradient computation: forward, softmax
    /// cross-entropy, backward. Leaves parameter gradients in the layers
    /// and returns the mean loss.
    pub fn compute_gradients(&mut self, x: &Tensor, labels: &[usize]) -> Result<f32, DlError> {
        let logits = self.forward(x, true)?;
        let (loss, dlogits) = kernels::cross_entropy(&logits, labels);
        let mut d = dlogits;
        for layer in self.layers.iter_mut().rev() {
            d = layer.backward(&d)?;
        }
        Ok(loss)
    }

    /// Predicted class per row.
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>, DlError> {
        let logits = self.forward(x, false)?;
        Ok((0..logits.shape()[0]).map(|i| logits.argmax_row(i)).collect())
    }

    /// Evaluate on a labelled set, producing a confusion matrix.
    /// Batched to bound memory.
    pub fn evaluate(&mut self, x: &Tensor, labels: &[usize]) -> Result<ConfusionMatrix, DlError> {
        let n = x.shape()[0];
        if labels.len() != n {
            return Err(DlError::Data(format!(
                "{} labels for {} samples",
                labels.len(),
                n
            )));
        }
        let mut cm = ConfusionMatrix::new(self.num_classes);
        let batch = 256;
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            let xs = x.slice_rows(start, end)?;
            let preds = self.predict(&xs)?;
            for (p, &t) in preds.iter().zip(&labels[start..end]) {
                cm.record(t, *p);
            }
            start = end;
        }
        Ok(cm)
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|t| t.len())
            .sum()
    }

    /// Gradient payload size in bytes (what distributed training ships).
    pub fn gradient_bytes(&self) -> u64 {
        (self.num_params() * std::mem::size_of::<f32>()) as u64
    }

    /// Concatenate all parameter gradients into one flat vector.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// Overwrite all parameter gradients from a flat vector (the inverse
    /// of [`Sequential::flat_grads`]).
    pub fn set_flat_grads(&mut self, flat: &[f32]) -> Result<(), DlError> {
        let mut offset = 0;
        for layer in &mut self.layers {
            for g in layer.grads_mut() {
                let n = g.len();
                if offset + n > flat.len() {
                    return Err(DlError::Data("flat gradient vector too short".into()));
                }
                g.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        if offset != flat.len() {
            return Err(DlError::Data("flat gradient vector too long".into()));
        }
        Ok(())
    }

    /// Concatenate all parameters into a flat vector.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Overwrite all parameters from a flat vector.
    pub fn set_flat_params(&mut self, flat: &[f32]) -> Result<(), DlError> {
        let mut offset = 0;
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let n = p.len();
                if offset + n > flat.len() {
                    return Err(DlError::Data("flat parameter vector too short".into()));
                }
                p.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        }
        if offset != flat.len() {
            return Err(DlError::Data("flat parameter vector too long".into()));
        }
        Ok(())
    }
}

/// The crop/land-cover patch CNN of Challenge C1: two conv blocks and a
/// small dense head. `bands` input channels, `patch` pixels square.
pub fn patch_cnn(bands: usize, patch: usize, num_classes: usize, rng: &mut ee_util::Rng) -> Sequential {
    let after_pool = patch / 2 / 2;
    Sequential::new(
        vec![
            Layer::conv2d(bands, 16, 3, 1, rng),
            Layer::relu(),
            Layer::maxpool2(),
            Layer::conv2d(16, 32, 3, 1, rng),
            Layer::relu(),
            Layer::maxpool2(),
            Layer::flatten(),
            Layer::dense(32 * after_pool * after_pool, 64, rng),
            Layer::relu(),
            Layer::dense(64, num_classes, rng),
        ],
        num_classes,
    )
}

/// A small multilayer perceptron over flat feature vectors (the per-pixel
/// spectral/temporal classifier variant).
pub fn mlp(in_features: usize, hidden: usize, num_classes: usize, rng: &mut ee_util::Rng) -> Sequential {
    Sequential::new(
        vec![
            Layer::dense(in_features, hidden, rng),
            Layer::relu(),
            Layer::dense(hidden, num_classes, rng),
        ],
        num_classes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ee_util::Rng;

    #[test]
    fn flat_roundtrip_params_and_grads() {
        let mut rng = Rng::seed_from(1);
        let mut m = mlp(4, 8, 3, &mut rng);
        let p = m.flat_params();
        assert_eq!(p.len(), m.num_params());
        assert_eq!(m.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut doubled = p.clone();
        for v in &mut doubled {
            *v *= 2.0;
        }
        m.set_flat_params(&doubled).unwrap();
        assert_eq!(m.flat_params(), doubled);
        assert!(m.set_flat_params(&p[..10]).is_err());
        // Gradients roundtrip after a step.
        let x = Tensor::full(&[2, 4], 0.5);
        m.compute_gradients(&x, &[0, 2]).unwrap();
        let g = m.flat_grads();
        assert_eq!(g.len(), m.num_params());
        m.set_flat_grads(&g).unwrap();
        assert_eq!(m.flat_grads(), g);
    }

    #[test]
    fn gradient_bytes_counts_f32() {
        let mut rng = Rng::seed_from(2);
        let m = mlp(10, 5, 2, &mut rng);
        assert_eq!(m.gradient_bytes(), (m.num_params() * 4) as u64);
    }

    #[test]
    fn loss_decreases_under_manual_sgd() {
        // Sanity: a few hand-rolled SGD steps reduce training loss.
        let mut rng = Rng::seed_from(3);
        let mut m = mlp(2, 16, 2, &mut rng);
        // Linearly separable blob data.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..64 {
            let cls = i % 2;
            let cx = if cls == 0 { -1.0 } else { 1.0 };
            xs.push(cx + rng.normal(0.0, 0.3) as f32);
            xs.push(cx + rng.normal(0.0, 0.3) as f32);
            ys.push(cls);
        }
        let x = Tensor::from_vec(&[64, 2], xs).unwrap();
        let first = m.compute_gradients(&x, &ys).unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = m.compute_gradients(&x, &ys).unwrap();
            let grads = m.flat_grads();
            let mut params = m.flat_params();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= 0.5 * g;
            }
            m.set_flat_params(&params).unwrap();
        }
        assert!(last < first * 0.5, "loss {first} → {last}");
        // And accuracy is high.
        let cm = m.evaluate(&x, &ys).unwrap();
        assert!(cm.accuracy() > 0.9, "accuracy {}", cm.accuracy());
    }

    #[test]
    fn patch_cnn_shapes() {
        let mut rng = Rng::seed_from(4);
        let mut m = patch_cnn(13, 8, 10, &mut rng);
        let x = Tensor::full(&[2, 13, 8, 8], 0.1);
        let logits = m.forward(&x, false).unwrap();
        assert_eq!(logits.shape(), &[2, 10]);
        let loss = m.compute_gradients(&x, &[3, 7]).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn evaluate_rejects_label_mismatch() {
        let mut rng = Rng::seed_from(5);
        let mut m = mlp(2, 4, 2, &mut rng);
        let x = Tensor::zeros(&[3, 2]);
        assert!(m.evaluate(&x, &[0, 1]).is_err());
    }

    #[test]
    fn identical_seeds_give_identical_models() {
        let m1 = mlp(3, 5, 2, &mut Rng::seed_from(9));
        let m2 = mlp(3, 5, 2, &mut Rng::seed_from(9));
        assert_eq!(m1.flat_params(), m2.flat_params());
    }
}
