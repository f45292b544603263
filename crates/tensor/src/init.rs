//! Parameter initialisation schemes.

use crate::tensor::Tensor;
use ee_util::Rng;

/// He (Kaiming) normal initialisation for ReLU networks: `N(0, 2/fan_in)`.
pub fn he_normal(shape: &[usize], fan_in: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f64).sqrt();
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|_| rng.normal(0.0, std) as f32).collect())
        .expect("shape/product consistent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_variance_matches_fan_in() {
        let mut rng = Rng::seed_from(4);
        let t = he_normal(&[100, 100], 100, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 0.02).abs() < 0.005, "var {var} expected 2/100");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = he_normal(&[10], 10, &mut Rng::seed_from(7));
        let b = he_normal(&[10], 10, &mut Rng::seed_from(7));
        assert_eq!(a, b);
    }
}
