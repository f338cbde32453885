//! Gradient accumulation: batch sizes beyond GPU memory.
//!
//! The deployed Pollux system (AdaptDL) extends the goodput search
//! with *accumulation steps* `s`: each replica computes gradients over
//! `s` micro-batches before synchronizing once, so the effective total
//! batch size is `m = K · per_gpu · s` even when `m / K` no longer
//! fits in GPU memory. The iteration-time model becomes
//!
//! ```text
//! T_grad^micro = α_grad + β_grad · m / (s · K)
//! T_iter(a, m, s) = (s − 1) · T_grad^micro
//!                 + (T_grad^micro^γ + T_sync^γ)^(1/γ)
//! ```
//!
//! — only the final micro-batch overlaps with synchronization; the
//! first `s − 1` are pure compute. Statistical efficiency is unchanged
//! (it depends on `m` only), so accumulation trades per-iteration
//! overhead (`s · α_grad`) for access to large, late-training batch
//! sizes on memory-constrained models.

use crate::goodput::GoodputModel;
use crate::throughput::{gamma_norm, PlacementShape};
use pollux_opt::golden_section_max_int;

/// Goodput model extended with gradient accumulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccumulatedGoodput {
    /// The base (single-step) goodput model.
    pub base: GoodputModel,
    /// Largest accumulation step count to consider (AdaptDL caps this
    /// at a small constant; 8 is typical).
    pub max_accum_steps: u32,
}

impl AccumulatedGoodput {
    /// Wraps a goodput model. Returns `None` when `max_accum_steps`
    /// is 0.
    pub fn new(base: GoodputModel, max_accum_steps: u32) -> Option<Self> {
        if max_accum_steps == 0 {
            None
        } else {
            Some(Self {
                base,
                max_accum_steps,
            })
        }
    }

    /// The feasible total-batch interval under `shape` with `s`
    /// accumulation steps: memory now caps the *micro* batch.
    pub fn range(&self, shape: PlacementShape, steps: u32) -> Option<(u64, u64)> {
        if steps == 0 || steps > self.max_accum_steps {
            return None;
        }
        let limits = self.base.limits;
        let cap = limits
            .max_per_gpu
            .saturating_mul(shape.gpus as u64)
            .saturating_mul(steps as u64);
        let hi = cap.min(limits.max_global);
        if hi >= limits.min {
            Some((limits.min, hi))
        } else {
            None
        }
    }

    /// `T_iter` with accumulation.
    pub fn t_iter(&self, shape: PlacementShape, m: u64, steps: u32) -> f64 {
        let s = steps.max(1) as f64;
        let p = &self.base.throughput;
        let micro_grad = p.alpha_grad + p.beta_grad * m as f64 / (s * shape.gpus as f64);
        let sync = p.t_sync(shape);
        (s - 1.0) * micro_grad + gamma_norm(micro_grad, sync, p.gamma)
    }

    /// `GOODPUT(a, m, s)`; 0 when `(m, s)` is infeasible under `shape`.
    pub fn goodput(&self, shape: PlacementShape, m: u64, steps: u32) -> f64 {
        match self.range(shape, steps) {
            Some((lo, hi)) if m >= lo && m <= hi => {
                let t = self.t_iter(shape, m, steps);
                if t > 0.0 {
                    (m as f64 / t) * self.base.efficiency.efficiency(m)
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    }

    /// The most efficient `(m*, s*)` under `shape` and the goodput
    /// achieved: golden-section over `m` inside each step count.
    ///
    /// Returns `None` when no feasible configuration exists.
    pub fn optimal(&self, shape: PlacementShape) -> Option<(u64, u32, f64)> {
        let mut best: Option<(u64, u32, f64)> = None;
        for steps in 1..=self.max_accum_steps {
            let Some((lo, hi)) = self.range(shape, steps) else {
                continue;
            };
            if let Ok((m, g)) = golden_section_max_int(|m| self.goodput(shape, m, steps), lo, hi) {
                if best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((m, steps, g));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::EfficiencyModel;
    use crate::goodput::BatchSizeLimits;
    use crate::throughput::ThroughputParams;

    /// A memory-constrained, sync-heavy model (DeepSpeech2-like):
    /// per-GPU cap 64, so large batches require accumulation.
    fn constrained_model(phi: f64) -> GoodputModel {
        let tp = ThroughputParams::new(0.05, 1.0e-2, 0.10, 0.005, 0.30, 0.010, 1.6).unwrap();
        let eff = EfficiencyModel::from_noise_scale(32, phi).unwrap();
        let limits = BatchSizeLimits::new(32, 4096, 64).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(AccumulatedGoodput::new(constrained_model(100.0), 0).is_none());
        assert!(AccumulatedGoodput::new(constrained_model(100.0), 8).is_some());
    }

    #[test]
    fn single_step_matches_base_model() {
        let base = constrained_model(500.0);
        let acc = AccumulatedGoodput::new(base, 8).unwrap();
        for (g, n) in [(1u32, 1u32), (4, 1), (8, 2)] {
            let shape = PlacementShape::new(g, n).unwrap();
            assert_eq!(acc.range(shape, 1), base.limits.range(shape));
            for m in [32u64, 64, 128, 256] {
                let a = acc.goodput(shape, m, 1);
                let b = base.goodput(shape, m);
                assert!((a - b).abs() < 1e-9, "({g},{n},{m}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn accumulation_extends_the_feasible_range() {
        let acc = AccumulatedGoodput::new(constrained_model(500.0), 8).unwrap();
        let shape = PlacementShape::new(4, 1).unwrap();
        let (_, hi1) = acc.range(shape, 1).unwrap();
        let (_, hi4) = acc.range(shape, 4).unwrap();
        assert_eq!(hi1, 256); // 4 GPUs x 64.
        assert_eq!(hi4, 1024); // 4 GPUs x 64 x 4 steps.
    }

    #[test]
    fn accumulation_wins_when_sync_dominates() {
        // Accumulation pays when synchronization is expensive relative
        // to the per-micro-batch overhead (α_grad): each extra step
        // amortizes one T_sync at the cost of one α_grad. Cross-node
        // placement, cheap α_grad, late training (huge φ).
        let tp = ThroughputParams::new(0.01, 1.0e-2, 0.10, 0.005, 0.50, 0.010, 1.6).unwrap();
        let eff = EfficiencyModel::from_noise_scale(32, 50_000.0).unwrap();
        let limits = BatchSizeLimits::new(32, 8192, 64).unwrap();
        let base = GoodputModel::new(tp, eff, limits).unwrap();
        let acc = AccumulatedGoodput::new(base, 8).unwrap();
        let shape = PlacementShape::new(8, 2).unwrap();
        let (m, s, g) = acc.optimal(shape).unwrap();
        assert!(s > 1, "expected accumulation, got s = {s}");
        assert!(m > 512, "m = {m} does not exceed the no-accum cap");
        // Strictly better than the best single-step configuration.
        let (_, hi1) = acc.range(shape, 1).unwrap();
        let mut best1 = 0.0f64;
        let mut mm = 32;
        while mm <= hi1 {
            best1 = best1.max(acc.goodput(shape, mm, 1));
            mm += 8;
        }
        assert!(g > best1 * 1.1, "accum {g} vs single-step {best1}");
    }

    #[test]
    fn accumulation_loses_for_low_noise_scale() {
        // Early in training small batches are optimal; paying s·α_grad
        // for a bigger batch is a pure loss, so s* = 1.
        let acc = AccumulatedGoodput::new(constrained_model(20.0), 8).unwrap();
        let shape = PlacementShape::new(4, 1).unwrap();
        let (_, s, _) = acc.optimal(shape).unwrap();
        assert_eq!(s, 1);
    }

    #[test]
    fn t_iter_grows_with_steps_at_fixed_batch() {
        // At fixed m, more steps = more fixed per-micro-batch overhead.
        let acc = AccumulatedGoodput::new(constrained_model(500.0), 8).unwrap();
        let shape = PlacementShape::new(4, 1).unwrap();
        let t1 = acc.t_iter(shape, 256, 1);
        let t2 = acc.t_iter(shape, 256, 2);
        let t4 = acc.t_iter(shape, 256, 4);
        assert!(t1 < t2 && t2 < t4, "{t1} {t2} {t4}");
    }

    #[test]
    fn infeasible_configurations_return_zero() {
        let acc = AccumulatedGoodput::new(constrained_model(500.0), 4).unwrap();
        let shape = PlacementShape::new(1, 1).unwrap();
        // Above the s=2 cap of 128.
        assert_eq!(acc.goodput(shape, 256, 2), 0.0);
        // Steps beyond the configured maximum.
        assert_eq!(acc.goodput(shape, 64, 5), 0.0);
        assert_eq!(acc.range(shape, 0), None);
    }
}
