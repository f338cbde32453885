//! User-side job configurations for the baseline schedulers.
//!
//! Pollux decides GPUs and batch sizes itself, but Tiresias and
//! Optimus need them from the user:
//!
//! - [`tuned_config`] reproduces the idealized **TunedJobs** setup of
//!   Sec. 5.2: a GPU count is *valid* if, using its optimal batch
//!   size, the job achieves 50–80 % of the ideal (linear) speedup over
//!   one GPU; the configuration is drawn uniformly from the valid set.
//! - [`realistic_config`] reproduces Sec. 5.3.1: the GPU count comes
//!   from the (user-chosen, often poor) Microsoft-trace distribution
//!   and the batch size is drawn within 2× of the most efficient batch
//!   size for that GPU count.

use crate::models::ModelProfile;
use pollux_models::{EfficiencyModel, GoodputModel, PlacementShape};
use rand::Rng;

/// A user-submitted `(GPUs, batch size)` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserConfig {
    /// Requested number of GPUs (fixed for the job's lifetime under
    /// non-adaptive schedulers).
    pub gpus: u32,
    /// Total batch size.
    pub batch_size: u64,
}

/// Builds the goodput model of `profile` at mid-training (the φ a
/// careful user would have measured when tuning).
fn midtraining_model(profile: &ModelProfile) -> GoodputModel {
    let phi = profile.phi_at(0.5);
    let eff =
        EfficiencyModel::from_noise_scale(profile.m0, phi).expect("profile m0 and phi are valid");
    GoodputModel::new(profile.params, eff, profile.limits)
        .expect("profile limits.min == m0 by test invariant")
}

/// The placement shape a job with `gpus` GPUs gets on 4-GPU nodes,
/// packed as tightly as possible (the assumption behind the paper's
/// tuning procedure).
pub(crate) fn packed_shape(gpus: u32, gpus_per_node: u32) -> PlacementShape {
    let nodes = gpus.div_ceil(gpus_per_node).max(1);
    PlacementShape::new(gpus, nodes).expect("nodes <= gpus for gpus >= 1")
}

/// What a careful user knows about one model on `gpus_per_node`-GPU
/// nodes: the goodput-optimal batch size of every GPU count asked
/// about so far (Eqn 13 at mid-training φ, packed placement) and the
/// TunedJobs validity set up to `max_gpus`. Every job of a trace that
/// trains the model draws its configurations from the same answers,
/// so each is solved once, when first needed, and kept.
#[derive(Debug, Clone)]
pub struct UserConfigTable {
    model: GoodputModel,
    max_gpus: u32,
    gpus_per_node: u32,
    /// `optimal_batch_size` of the packed shape of `K` GPUs at index
    /// `K − 1`, once asked for; the inner `None` is an infeasible `K`.
    optimal: Vec<Option<Option<(u64, f64)>>>,
    /// [`valid_tuned_gpu_counts`], once asked for.
    valid: Option<Vec<u32>>,
    solves: u64,
}

impl UserConfigTable {
    /// An empty table for `profile`; nothing is solved yet.
    pub fn new(profile: &ModelProfile, max_gpus: u32, gpus_per_node: u32) -> Self {
        Self {
            model: midtraining_model(profile),
            max_gpus,
            gpus_per_node,
            optimal: Vec::new(),
            valid: None,
            solves: 0,
        }
    }

    /// Eqn-13 solves performed so far.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// `(m*, GOODPUT)` of `gpus` GPUs packed onto as few nodes as
    /// possible, or `None` when `m0` does not fit on them.
    fn optimal(&mut self, gpus: u32) -> Option<(u64, f64)> {
        let idx = gpus as usize - 1;
        if self.optimal.len() <= idx {
            self.optimal.resize(idx + 1, None);
        }
        if self.optimal[idx].is_none() {
            self.solves += 1;
            let shape = packed_shape(gpus, self.gpus_per_node);
            self.optimal[idx] = Some(self.model.optimal_batch_size(shape));
        }
        self.optimal[idx].expect("solved above")
    }

    /// `max_m GOODPUT` of the model's reference shape, the denominator
    /// of its speedups.
    fn reference_goodput(&mut self) -> f64 {
        let reference = self.model.reference_shape();
        let solve = if reference == packed_shape(reference.gpus, self.gpus_per_node) {
            self.optimal(reference.gpus)
        } else {
            // `m0` needs more than a node's GPUs, co-located.
            self.solves += 1;
            self.model.optimal_batch_size(reference)
        };
        solve.map_or(0.0, |(_, goodput)| goodput)
    }

    /// See [`valid_tuned_gpu_counts`].
    fn valid(&mut self) -> &[u32] {
        if self.valid.is_none() {
            self.valid = Some(self.solve_valid());
        }
        self.valid.as_deref().expect("solved above")
    }

    fn solve_valid(&mut self) -> Vec<u32> {
        let base = self.reference_goodput();
        let mut valid = vec![1];
        if base <= 0.0 {
            return valid;
        }
        for k in 2..=self.max_gpus {
            let speedup = self.optimal(k).map_or(0.0, |(_, goodput)| goodput) / base;
            let frac = speedup / k as f64;
            if (0.5..=0.8).contains(&frac) {
                valid.push(k);
            }
        }
        valid
    }

    /// See [`tuned_config`].
    pub fn tuned<R: Rng>(&mut self, rng: &mut R) -> UserConfig {
        let valid = self.valid();
        let gpus = valid[rng.gen_range(0..valid.len())];
        let batch_size = self.optimal(gpus).map_or(self.model.limits.min, |(m, _)| m);
        UserConfig { gpus, batch_size }
    }

    /// See [`realistic_config`].
    pub fn realistic<R: Rng>(&mut self, trace_gpus: u32, rng: &mut R) -> UserConfig {
        let m0 = self.model.limits.min;
        let gpus = trace_gpus.max(1);
        let m_opt = self.optimal(gpus).map_or(m0, |(m, _)| m);
        let (lo_bound, hi_bound) = self
            .model
            .limits
            .range(packed_shape(gpus, self.gpus_per_node))
            .unwrap_or((m0, m0));
        let lo = (m_opt / 2).clamp(lo_bound, hi_bound);
        let hi = (m_opt * 2).clamp(lo_bound, hi_bound);
        let batch_size = if lo >= hi { lo } else { rng.gen_range(lo..=hi) };
        UserConfig { gpus, batch_size }
    }
}

/// GPU counts whose optimally-batched goodput achieves 50–80 % of the
/// ideal linear speedup (Sec. 5.2's validity criterion), evaluated at
/// mid-training φ on `gpus_per_node`-GPU nodes up to `max_gpus`.
///
/// One GPU is always valid (its "speedup" is exactly 1).
pub fn valid_tuned_gpu_counts(
    profile: &ModelProfile,
    max_gpus: u32,
    gpus_per_node: u32,
) -> Vec<u32> {
    UserConfigTable::new(profile, max_gpus, gpus_per_node)
        .valid()
        .to_vec()
}

/// Draws an idealized TunedJobs configuration (Sec. 5.2): a uniformly
/// random valid GPU count, with the goodput-optimal batch size for it.
///
/// One draw solves the whole validity set; a caller drawing many
/// configurations of one model keeps a [`UserConfigTable`].
pub fn tuned_config<R: Rng>(
    profile: &ModelProfile,
    max_gpus: u32,
    gpus_per_node: u32,
    rng: &mut R,
) -> UserConfig {
    UserConfigTable::new(profile, max_gpus, gpus_per_node).tuned(rng)
}

/// Draws a realistic user configuration (Sec. 5.3.1): `gpus` comes from
/// the trace (the caller samples it from the Microsoft distribution)
/// and the batch size is uniform within a factor of 2 of the most
/// efficient batch size for that GPU count.
pub fn realistic_config<R: Rng>(
    profile: &ModelProfile,
    trace_gpus: u32,
    gpus_per_node: u32,
    rng: &mut R,
) -> UserConfig {
    UserConfigTable::new(profile, 0, gpus_per_node).realistic(trace_gpus, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn packed_shape_fills_nodes() {
        assert_eq!(packed_shape(1, 4), PlacementShape::new(1, 1).unwrap());
        assert_eq!(packed_shape(4, 4), PlacementShape::new(4, 1).unwrap());
        assert_eq!(packed_shape(5, 4), PlacementShape::new(5, 2).unwrap());
        assert_eq!(packed_shape(16, 4), PlacementShape::new(16, 4).unwrap());
    }

    #[test]
    fn valid_counts_always_include_one() {
        for kind in ModelKind::ALL {
            let p = kind.profile();
            let v = valid_tuned_gpu_counts(&p, 16, 4);
            assert!(v.contains(&1), "{}: {:?}", p.name, v);
            // Counts are sorted and unique by construction.
            for w in v.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn some_model_scales_beyond_one_gpu() {
        // At least the scalable models must have multi-GPU valid
        // configurations, otherwise the TunedJobs baseline degenerates.
        let scalable = [ModelKind::ResNet18Cifar10, ModelKind::ResNet50ImageNet];
        for kind in scalable {
            let p = kind.profile();
            let v = valid_tuned_gpu_counts(&p, 16, 4);
            assert!(
                v.iter().any(|&k| k > 1),
                "{}: no multi-GPU valid config: {:?}",
                p.name,
                v
            );
        }
    }

    #[test]
    fn tuned_config_is_valid_and_batch_feasible() {
        let mut rng = StdRng::seed_from_u64(5);
        for kind in ModelKind::ALL {
            let p = kind.profile();
            let valid = valid_tuned_gpu_counts(&p, 16, 4);
            for _ in 0..20 {
                let c = tuned_config(&p, 16, 4, &mut rng);
                assert!(
                    valid.contains(&c.gpus),
                    "{}: {:?} not in {:?}",
                    p.name,
                    c,
                    valid
                );
                let shape = packed_shape(c.gpus, 4);
                let (lo, hi) = p.limits.range(shape).unwrap();
                assert!(c.batch_size >= lo && c.batch_size <= hi);
            }
        }
    }

    #[test]
    fn realistic_config_within_2x_of_optimal() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = ModelKind::ResNet18Cifar10.profile();
        let model = midtraining_model(&p);
        for gpus in [1u32, 2, 4, 8] {
            let shape = packed_shape(gpus, 4);
            let (m_opt, _) = model.optimal_batch_size(shape).unwrap();
            for _ in 0..20 {
                let c = realistic_config(&p, gpus, 4, &mut rng);
                assert_eq!(c.gpus, gpus);
                assert!(
                    c.batch_size * 2 >= m_opt && c.batch_size <= m_opt * 2,
                    "batch {} vs optimal {m_opt}",
                    c.batch_size
                );
            }
        }
    }

    #[test]
    fn realistic_config_respects_memory_limits() {
        let mut rng = StdRng::seed_from_u64(7);
        for kind in ModelKind::ALL {
            let p = kind.profile();
            for gpus in [1u32, 2, 8, 16] {
                let c = realistic_config(&p, gpus, 4, &mut rng);
                let shape = packed_shape(c.gpus, 4);
                let (lo, hi) = p.limits.range(shape).unwrap();
                assert!(
                    c.batch_size >= lo && c.batch_size <= hi,
                    "{}: {:?}",
                    p.name,
                    c
                );
            }
        }
    }

    #[test]
    fn zero_trace_gpus_clamped_to_one() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = ModelKind::NeuMFMovieLens.profile();
        let c = realistic_config(&p, 0, 4, &mut rng);
        assert_eq!(c.gpus, 1);
    }
}
