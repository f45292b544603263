//! Optimisers and learning-rate schedules.
//!
//! [`LrSchedule::LinearScalingWarmup`] implements the rule of the paper's
//! ref \[8\] (Goyal et al., "Accurate, Large Minibatch SGD: Training
//! ImageNet in 1 Hour"): when the effective batch grows by `k` (data
//! parallelism over `k` workers), multiply the learning rate by `k`, and
//! ramp up to it linearly over a warmup period to avoid early divergence.

use crate::model::Sequential;
use crate::DlError;

/// Learning-rate schedule, evaluated per training step.
#[derive(Debug, Clone, Copy)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant(f32),
    /// Step decay: `base * gamma^(step / every)`.
    StepDecay {
        /// Initial learning rate.
        base: f32,
        /// Multiplier applied at each decay.
        gamma: f32,
        /// Steps between decays.
        every: usize,
    },
    /// Goyal et al. linear scaling with warmup: target rate is
    /// `base * scale`; during the first `warmup_steps` the rate ramps
    /// linearly from `base` to the target.
    LinearScalingWarmup {
        /// Single-worker reference rate.
        base: f32,
        /// Batch-size multiplier `k` (number of workers).
        scale: f32,
        /// Ramp length in steps.
        warmup_steps: usize,
    },
}

impl LrSchedule {
    /// The learning rate at a 0-based step index.
    pub fn at(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay { base, gamma, every } => {
                base * gamma.powi((step / every.max(1)) as i32)
            }
            LrSchedule::LinearScalingWarmup {
                base,
                scale,
                warmup_steps,
            } => {
                let target = base * scale;
                if warmup_steps == 0 || step >= warmup_steps {
                    target
                } else {
                    base + (target - base) * (step as f32 + 1.0) / warmup_steps as f32
                }
            }
        }
    }
}

/// Stochastic gradient descent with (optional) Polyak momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: Vec<f32>,
    step: usize,
}

impl Sgd {
    /// New optimiser.
    pub fn new(schedule: LrSchedule, momentum: f32) -> Self {
        Self {
            schedule,
            momentum,
            velocity: Vec::new(),
            step: 0,
        }
    }

    /// Apply the model's current gradients to its parameters.
    pub fn step(&mut self, model: &mut Sequential) -> Result<(), DlError> {
        let grads = model.flat_grads();
        let mut params = model.flat_params();
        if self.velocity.len() != grads.len() {
            self.velocity = vec![0.0; grads.len()];
        }
        let lr = self.schedule.at(self.step);
        if self.momentum > 0.0 {
            for ((p, g), v) in params.iter_mut().zip(&grads).zip(&mut self.velocity) {
                *v = self.momentum * *v + g;
                *p -= lr * *v;
            }
        } else {
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= lr * g;
            }
        }
        model.set_flat_params(&params)?;
        self.step += 1;
        Ok(())
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    step: usize,
}

impl Adam {
    /// Adam with the conventional defaults.
    pub fn new(schedule: LrSchedule) -> Self {
        Self {
            schedule,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            step: 0,
        }
    }

    /// Apply the model's gradients.
    pub fn step(&mut self, model: &mut Sequential) -> Result<(), DlError> {
        let grads = model.flat_grads();
        let mut params = model.flat_params();
        if self.m.len() != grads.len() {
            self.m = vec![0.0; grads.len()];
            self.v = vec![0.0; grads.len()];
        }
        self.step += 1;
        let lr = self.schedule.at(self.step - 1);
        let b1t = 1.0 - self.beta1.powi(self.step as i32);
        let b2t = 1.0 - self.beta2.powi(self.step as i32);
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(&grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / b1t;
            let vhat = *v / b2t;
            *p -= lr * mhat / (vhat.sqrt() + self.eps);
        }
        model.set_flat_params(&params)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mlp;
    use ee_tensor::Tensor;
    use ee_util::Rng;

    fn toy_problem() -> (Sequential, Tensor, Vec<usize>) {
        let mut rng = Rng::seed_from(11);
        let m = mlp(2, 12, 2, &mut rng);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..128 {
            let cls = i % 2;
            let c = if cls == 0 { -1.0 } else { 1.0 };
            xs.push(c + rng.normal(0.0, 0.4) as f32);
            xs.push(-c + rng.normal(0.0, 0.4) as f32);
            ys.push(cls);
        }
        (m, Tensor::from_vec(&[128, 2], xs).unwrap(), ys)
    }

    #[test]
    fn constant_schedule() {
        let s = LrSchedule::Constant(0.1);
        assert_eq!(s.at(0), 0.1);
        assert_eq!(s.at(1000), 0.1);
    }

    #[test]
    fn step_decay_schedule() {
        let s = LrSchedule::StepDecay {
            base: 1.0,
            gamma: 0.1,
            every: 10,
        };
        assert_eq!(s.at(0), 1.0);
        assert_eq!(s.at(9), 1.0);
        assert!((s.at(10) - 0.1).abs() < 1e-7);
        assert!((s.at(25) - 0.01).abs() < 1e-8);
    }

    #[test]
    fn linear_scaling_warmup_ramps_to_scaled_rate() {
        // The ref [8] rule: 8 workers → 8x rate after warmup.
        let s = LrSchedule::LinearScalingWarmup {
            base: 0.1,
            scale: 8.0,
            warmup_steps: 10,
        };
        assert!(s.at(0) < 0.2, "starts near base");
        assert!((s.at(9) - 0.8).abs() < 1e-6, "ends at base*scale");
        assert_eq!(s.at(10), 0.8);
        assert_eq!(s.at(500), 0.8);
        // Monotone ramp.
        for i in 1..10 {
            assert!(s.at(i) > s.at(i - 1));
        }
        // Degenerate warmup.
        let s0 = LrSchedule::LinearScalingWarmup {
            base: 0.1,
            scale: 4.0,
            warmup_steps: 0,
        };
        assert_eq!(s0.at(0), 0.4);
    }

    #[test]
    fn sgd_reduces_loss() {
        let (mut m, x, y) = toy_problem();
        let mut opt = Sgd::new(LrSchedule::Constant(0.3), 0.0);
        let first = m.compute_gradients(&x, &y).unwrap();
        for _ in 0..40 {
            m.compute_gradients(&x, &y).unwrap();
            opt.step(&mut m).unwrap();
        }
        let last = m.compute_gradients(&x, &y).unwrap();
        assert!(last < first * 0.3, "{first} → {last}");
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let (m0, x, y) = toy_problem();
        let run = |mut m: Sequential, momentum: f32| -> f32 {
            let mut opt = Sgd::new(LrSchedule::Constant(0.05), momentum);
            for _ in 0..30 {
                m.compute_gradients(&x, &y).unwrap();
                opt.step(&mut m).unwrap();
            }
            m.compute_gradients(&x, &y).unwrap()
        };
        let plain = run(m0.clone(), 0.0);
        let heavy = run(m0, 0.9);
        assert!(heavy < plain, "momentum {heavy} vs plain {plain}");
    }

    #[test]
    fn adam_reduces_loss() {
        let (mut m, x, y) = toy_problem();
        let mut opt = Adam::new(LrSchedule::Constant(0.01));
        let first = m.compute_gradients(&x, &y).unwrap();
        for _ in 0..40 {
            m.compute_gradients(&x, &y).unwrap();
            opt.step(&mut m).unwrap();
        }
        let last = m.compute_gradients(&x, &y).unwrap();
        assert!(last < first * 0.3, "{first} → {last}");
    }

    #[test]
    fn optimizers_are_deterministic() {
        let (m, x, y) = toy_problem();
        let run = |mut m: Sequential| -> Vec<f32> {
            let mut opt = Sgd::new(LrSchedule::Constant(0.1), 0.9);
            for _ in 0..5 {
                m.compute_gradients(&x, &y).unwrap();
                opt.step(&mut m).unwrap();
            }
            m.flat_params()
        };
        assert_eq!(run(m.clone()), run(m));
    }
}
