//! AdaScale SGD learning-rate scaling (Sec. 2.2, Eqn 5).
//!
//! When a job trained at `(m0, η0)` runs with a larger batch size
//! `m > m0`, AdaScale scales the learning rate at iteration `t` by the
//! gain
//!
//! ```text
//! r_t = (φ_t / m0 + 1) / (φ_t / m + 1)   ∈ [1, m / m0]
//! ```
//!
//! One iteration at batch size `m` then makes the same progress as
//! `r_t` iterations at `m0`; summing `r_t` yields the *scale-invariant
//! iteration count* that Pollux uses for progress accounting (the
//! "statistical epochs" of Fig 2a).

use crate::efficiency::EfficiencyModel;

/// AdaScale state for one training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaScale {
    /// User-submitted initial learning rate η0.
    eta0: f64,
    /// User-submitted initial batch size m0.
    m0: u64,
    /// Accumulated scale-invariant iterations Σ r_t.
    scale_invariant_iters: f64,
}

impl AdaScale {
    /// Creates AdaScale state. Returns `None` when `η0 ≤ 0`, non-finite,
    /// or `m0 == 0`.
    pub fn new(eta0: f64, m0: u64) -> Option<Self> {
        if eta0 > 0.0 && eta0.is_finite() && m0 >= 1 {
            Some(Self {
                eta0,
                m0,
                scale_invariant_iters: 0.0,
            })
        } else {
            None
        }
    }

    /// Initial learning rate η0.
    pub fn eta0(&self) -> f64 {
        self.eta0
    }

    /// Initial batch size m0.
    pub fn m0(&self) -> u64 {
        self.m0
    }

    /// The gain `r_t` for batch size `m` given the current efficiency
    /// snapshot (which carries φ_t).
    ///
    /// `eff` must share this job's `m0`; debug builds assert it.
    pub fn gain(&self, eff: &EfficiencyModel, m: u64) -> f64 {
        debug_assert_eq!(eff.m0(), self.m0, "efficiency model belongs to another job");
        eff.gain(m)
    }

    /// The scaled learning rate `η = r_t · η0` for batch size `m`.
    ///
    /// At `m = m0` the gain is exactly 1 and the original `η0` is
    /// recovered; the gain is capped by the linear-scaling value
    /// `m / m0`.
    pub fn learning_rate(&self, eff: &EfficiencyModel, m: u64) -> f64 {
        self.eta0 * self.gain(eff, m)
    }

    /// Records one completed iteration at batch size `m`, accumulating
    /// `r_t` scale-invariant iterations.
    pub fn step(&mut self, eff: &EfficiencyModel, m: u64) {
        self.scale_invariant_iters += self.gain(eff, m);
    }

    /// Accumulated scale-invariant iterations Σ r_t (progress measured
    /// in units of m0-iterations).
    pub fn scale_invariant_iters(&self) -> f64 {
        self.scale_invariant_iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn eff(phi: f64) -> EfficiencyModel {
        EfficiencyModel::from_noise_scale(100, phi).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(AdaScale::new(0.1, 100).is_some());
        assert!(AdaScale::new(0.0, 100).is_none());
        assert!(AdaScale::new(-0.1, 100).is_none());
        assert!(AdaScale::new(f64::NAN, 100).is_none());
        assert!(AdaScale::new(0.1, 0).is_none());
    }

    #[test]
    fn lr_at_m0_is_eta0() {
        let a = AdaScale::new(0.05, 100).unwrap();
        let e = eff(1234.0);
        assert!((a.learning_rate(&e, 100) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn lr_bounded_by_linear_scaling() {
        let a = AdaScale::new(0.05, 100).unwrap();
        let e = eff(500.0);
        for m in [100u64, 200, 800, 6400] {
            let lr = a.learning_rate(&e, m);
            assert!(lr >= 0.05 - 1e-12);
            let linear = 0.05 * m as f64 / 100.0;
            assert!(lr <= linear + 1e-12, "m = {m}: lr {lr} > linear {linear}");
        }
    }

    #[test]
    fn high_noise_scale_approaches_linear_scaling() {
        // With huge φ, AdaScale reduces to the linear scaling rule.
        let a = AdaScale::new(0.1, 100).unwrap();
        let e = eff(1e12);
        let lr = a.learning_rate(&e, 800);
        assert!((lr - 0.8).abs() < 1e-6, "lr = {lr}");
    }

    #[test]
    fn low_noise_scale_keeps_lr_flat() {
        // With φ → 0 the gain stays ~1: larger batches don't help, and
        // cranking the LR would hurt.
        let a = AdaScale::new(0.1, 100).unwrap();
        let e = eff(1e-9);
        let lr = a.learning_rate(&e, 6400);
        assert!((lr - 0.1).abs() < 1e-6, "lr = {lr}");
    }

    #[test]
    fn step_accumulates_gain() {
        let mut a = AdaScale::new(0.1, 100).unwrap();
        let e = eff(100.0);
        // gain(200) = (1 + 1)/(0.5 + 1) = 4/3.
        a.step(&e, 200);
        a.step(&e, 200);
        assert!((a.scale_invariant_iters() - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn step_at_m0_counts_one() {
        let mut a = AdaScale::new(0.1, 100).unwrap();
        let e = eff(777.0);
        for _ in 0..10 {
            a.step(&e, 100);
        }
        assert!((a.scale_invariant_iters() - 10.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn gain_equivalence_with_efficiency(
            phi in 0.0f64..1e6,
            m in 100u64..1_000_000,
        ) {
            // r_t · m0 = EFFICIENCY(m) · m  (both equal progress/iter).
            let a = AdaScale::new(0.1, 100).unwrap();
            let e = eff(phi);
            let lhs = a.gain(&e, m) * 100.0;
            let rhs = e.efficiency(m) * m as f64;
            prop_assert!((lhs - rhs).abs() / rhs.max(1.0) < 1e-9);
        }
    }
}
