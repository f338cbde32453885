//! The data-parallel adaptive training loop.
//!
//! Each step samples a mini-batch of `m` examples, splits it across
//! `K` simulated replicas, computes per-replica gradients, estimates
//! the gradient noise scale from the inter-replica spread (or from
//! consecutive gradients when `K = 1`), averages the gradients, and
//! applies an SGD update whose learning rate AdaScale scales by the
//! gain `r_t` (Eqn 5). Progress is accounted in scale-invariant
//! iterations, i.e. "statistical epochs".

use crate::dataset::Dataset;
use crate::model::LinearModel;
use pollux_agent::{DifferencedGns, ReplicaGns};
use pollux_models::{AdaScale, EfficiencyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// EWMA smoothing of the noise-scale estimators.
const GNS_SMOOTHING: f64 = 0.05;

/// Trainer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Number of simulated data-parallel replicas `K ≥ 1`.
    pub replicas: usize,
    /// Total mini-batch size `m ≥ replicas`.
    pub batch_size: u64,
    /// Reference batch size `m0` (AdaScale's normalization point).
    pub m0: u64,
    /// Base learning rate η0 (the rate used at `m0`).
    pub eta0: f64,
    /// Scale the learning rate by AdaScale's gain (`false` = fixed
    /// η0, the naive large-batch baseline).
    pub use_adascale: bool,
    /// RNG seed for batch sampling.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            replicas: 1,
            batch_size: 32,
            m0: 32,
            eta0: 0.05,
            use_adascale: true,
            seed: 0,
        }
    }
}

/// Per-step training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mini-batch loss before the update.
    pub loss: f64,
    /// Learning rate applied.
    pub lr: f64,
    /// AdaScale gain `r_t` of this step.
    pub gain: f64,
    /// Current smoothed noise-scale estimate, if available.
    pub phi: Option<f64>,
    /// Examples consumed by this step.
    pub examples: u64,
}

/// Data-parallel SGD trainer with GNS measurement and AdaScale.
///
/// # Examples
///
/// ```
/// use pollux_trainer::{AdaptiveTrainer, Dataset, LinearModel, TrainerConfig};
///
/// let (data, _) = Dataset::linear_regression(1000, 4, 0.3, 42).unwrap();
/// let mut trainer = AdaptiveTrainer::new(
///     LinearModel::new(4),
///     data,
///     TrainerConfig {
///         replicas: 4,
///         batch_size: 128,
///         m0: 32,
///         eta0: 0.05,
///         ..Default::default()
///     },
/// )
/// .unwrap();
/// let first = trainer.step().loss;
/// for _ in 0..200 {
///     trainer.step();
/// }
/// assert!(trainer.full_loss() < first);           // training works
/// assert!(trainer.phi().unwrap() > 0.0);          // φ̂ measured en route
/// assert!(trainer.scale_invariant_iters() > 201.0); // batch 128 > m0 gains
/// ```
#[derive(Clone)]
pub struct AdaptiveTrainer {
    model: LinearModel,
    data: Dataset,
    config: TrainerConfig,
    replica_gns: ReplicaGns,
    diff_gns: DifferencedGns,
    adascale: AdaScale,
    rng: StdRng,
    total_examples: u64,
    steps: u64,
}

impl AdaptiveTrainer {
    /// Creates a trainer. Returns `None` for degenerate configs
    /// (`replicas = 0`, `batch < replicas`, `m0 = 0`, `η0 ≤ 0`).
    pub fn new(model: LinearModel, data: Dataset, config: TrainerConfig) -> Option<Self> {
        if config.replicas == 0 || config.batch_size < config.replicas as u64 {
            return None;
        }
        Some(Self {
            model,
            data,
            replica_gns: ReplicaGns::new(config.m0, GNS_SMOOTHING)?,
            diff_gns: DifferencedGns::new(config.m0, GNS_SMOOTHING)?,
            adascale: AdaScale::new(config.eta0, config.m0)?,
            rng: StdRng::seed_from_u64(config.seed),
            total_examples: 0,
            steps: 0,
            config,
        })
    }

    /// The trained model.
    pub fn model(&self) -> &LinearModel {
        &self.model
    }

    /// The training dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Mean loss over the full training dataset.
    pub fn full_loss(&self) -> f64 {
        self.model.full_loss(&self.data)
    }

    /// Total examples consumed.
    pub fn total_examples(&self) -> u64 {
        self.total_examples
    }

    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Scale-invariant progress Σ r_t (iterations at `m0`).
    pub fn scale_invariant_iters(&self) -> f64 {
        self.adascale.scale_invariant_iters()
    }

    /// The current smoothed noise-scale estimate φ̂ (examples), from
    /// the replica estimator when `K ≥ 2`, else the differenced one.
    pub fn phi(&self) -> Option<f64> {
        if self.config.replicas >= 2 {
            self.replica_gns.noise_scale()
        } else {
            self.diff_gns.noise_scale()
        }
    }

    /// Changes the total batch size mid-training (as `PolluxAgent`
    /// does after a re-allocation). Returns `false` when smaller than
    /// the replica count.
    pub fn set_batch_size(&mut self, m: u64) -> bool {
        if m < self.config.replicas as u64 {
            return false;
        }
        self.config.batch_size = m;
        true
    }

    /// The current efficiency snapshot from the measured φ̂
    /// (conservative `φ = 0` before estimates exist).
    pub fn efficiency_model(&self) -> EfficiencyModel {
        let phi = self.phi().unwrap_or(0.0).max(0.0);
        EfficiencyModel::from_noise_scale(self.config.m0, phi).expect("m0 >= 1 and phi >= 0")
    }

    /// Measures the gradient noise scale **at the current parameters**
    /// without updating the model: samples `iters` mini-batches of
    /// `probe_batch` split across 4 virtual replicas and feeds a fresh
    /// replica estimator. This is how a fixed-checkpoint φ_t (e.g. the
    /// paper's "measured at epoch 15") is obtained.
    ///
    /// Returns `None` when no estimate could be formed.
    pub fn measure_phi_static(&mut self, iters: usize, probe_batch: u64) -> Option<f64> {
        let k = 4usize;
        let per = (probe_batch / k as u64).max(1) as usize;
        let mut gns = ReplicaGns::new(self.config.m0, 0.1)?;
        for _ in 0..iters {
            let indices = self.data.sample_indices(per * k, &mut self.rng);
            let grads: Vec<Vec<f64>> = (0..k)
                .map(|r| {
                    let mut g = vec![0.0; self.model.num_params()];
                    self.model
                        .grad_mean(&self.data, &indices[r * per..(r + 1) * per], &mut g);
                    g
                })
                .collect();
            gns.update(&grads, (per * k) as u64);
        }
        gns.noise_scale()
    }

    /// Runs one training step.
    pub fn step(&mut self) -> StepStats {
        let m = self.config.batch_size;
        let k = self.config.replicas;
        let per = (m / k as u64).max(1) as usize;

        // Per-replica gradients on disjoint shards of the mini-batch.
        let indices = self.data.sample_indices(per * k, &mut self.rng);
        let mut replica_grads: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut grad = vec![0.0; self.model.num_params()];
        for r in 0..k {
            let shard = &indices[r * per..(r + 1) * per];
            let mut g = vec![0.0; self.model.num_params()];
            self.model.grad_mean(&self.data, shard, &mut g);
            replica_grads.push(g);
        }
        for g in &replica_grads {
            for (acc, v) in grad.iter_mut().zip(g) {
                *acc += v / k as f64;
            }
        }

        // Noise-scale measurement.
        if k >= 2 {
            self.replica_gns.update(&replica_grads, m);
        } else {
            self.diff_gns.update(&grad, m);
        }

        let eff = self.efficiency_model();
        let gain = self.adascale.gain(&eff, m);
        let lr = if self.config.use_adascale {
            self.adascale.learning_rate(&eff, m)
        } else {
            self.config.eta0
        };

        let loss = self.model.mean_loss(&self.data, &indices);
        self.model.sgd_step(&grad, lr);
        self.adascale.step(&eff, m);
        self.total_examples += (per * k) as u64;
        self.steps += 1;

        StepStats {
            loss,
            lr,
            gain,
            phi: self.phi(),
            examples: (per * k) as u64,
        }
    }

    /// Trains until the full-dataset loss falls below `target`,
    /// checking every `check_every` steps. Returns
    /// `(steps, examples)` on success, `None` if `max_steps` elapse
    /// first.
    pub fn train_until_loss(
        &mut self,
        target: f64,
        max_steps: u64,
        check_every: u64,
    ) -> Option<(u64, u64)> {
        let check = check_every.max(1);
        for s in 1..=max_steps {
            self.step();
            if s % check == 0 && self.model.full_loss(&self.data) <= target {
                return Some((self.steps, self.total_examples));
            }
        }
        if self.model.full_loss(&self.data) <= target {
            Some((self.steps, self.total_examples))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regression_data(seed: u64) -> Dataset {
        Dataset::linear_regression(4000, 8, 0.5, seed).unwrap().0
    }

    fn trainer(replicas: usize, batch: u64, adascale: bool, seed: u64) -> AdaptiveTrainer {
        let data = regression_data(100);
        AdaptiveTrainer::new(
            LinearModel::new(8),
            data,
            TrainerConfig {
                replicas,
                batch_size: batch,
                m0: 32,
                eta0: 0.05,
                use_adascale: adascale,
                seed,
            },
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let data = regression_data(1);
        let bad = TrainerConfig {
            replicas: 0,
            ..Default::default()
        };
        assert!(AdaptiveTrainer::new(LinearModel::new(8), data.clone(), bad).is_none());
        let bad = TrainerConfig {
            replicas: 64,
            batch_size: 32,
            ..Default::default()
        };
        assert!(AdaptiveTrainer::new(LinearModel::new(8), data.clone(), bad).is_none());
        let bad = TrainerConfig {
            eta0: 0.0,
            ..Default::default()
        };
        assert!(AdaptiveTrainer::new(LinearModel::new(8), data, bad).is_none());
    }

    #[test]
    fn training_reduces_loss() {
        let mut t = trainer(4, 64, true, 0);
        let first = t.step().loss;
        for _ in 0..500 {
            t.step();
        }
        let last = t.model().full_loss(&regression_data(100));
        assert!(last < first * 0.5, "loss {first} -> {last}");
        assert_eq!(t.steps(), 501);
        assert_eq!(t.total_examples(), 501 * 64);
    }

    #[test]
    fn phi_estimates_become_available_and_positive() {
        let mut t = trainer(4, 128, true, 1);
        for _ in 0..300 {
            t.step();
        }
        let phi = t.phi().unwrap();
        assert!(phi.is_finite() && phi > 0.0, "phi = {phi}");
    }

    #[test]
    fn single_replica_uses_differenced_estimator() {
        // Compare estimators mid-training, before SGD oscillates
        // around the optimum (where φ legitimately diverges). Batch 64
        // gives the replica estimator 16 examples per replica; at 8 the
        // inter-replica variance estimate transiently degenerates
        // (|G|² ≤ 0 ⇒ φ = ∞) on some RNG streams.
        let mut t1 = trainer(1, 64, true, 2);
        let mut t4 = trainer(4, 64, true, 2);
        for _ in 0..120 {
            t1.step();
            t4.step();
        }
        let p1 = t1.phi().unwrap();
        let p4 = t4.phi().unwrap();
        assert!(p1 > 0.0 && p4 > 0.0);
        assert!(p1.is_finite() && p4.is_finite(), "p1 = {p1}, p4 = {p4}");
        // Same workload: the two estimators agree within a small factor
        // (both are noisy).
        let ratio = p1.max(p4) / p1.min(p4);
        assert!(ratio < 4.0, "p1 = {p1}, p4 = {p4}");
    }

    #[test]
    fn phi_diverges_near_convergence() {
        // Once the model oscillates around the optimum, the measured
        // noise scale grows very large — the Sec. 2.2 behavior that
        // lets Pollux use big batches late in training.
        // Sample "mid" early enough that the batch-64 run is still far
        // from the optimum; by ~250 steps φ has already started its
        // climb and the late/mid contrast washes out.
        let mut t = trainer(4, 64, true, 2);
        for _ in 0..120 {
            t.step();
        }
        let mid = t.phi().unwrap();
        for _ in 0..4000 {
            t.step();
        }
        let late = t.phi().unwrap();
        assert!(
            late > 3.0 * mid || late.is_infinite(),
            "mid {mid}, late {late}"
        );
    }

    #[test]
    fn adascale_gain_exceeds_one_for_large_batches() {
        let mut t = trainer(4, 512, true, 3);
        for _ in 0..300 {
            t.step();
        }
        let s = t.step();
        assert!(s.gain > 1.0, "gain = {}", s.gain);
        assert!(s.lr > 0.05, "lr = {}", s.lr);
        // Gain is bounded by linear scaling m/m0 = 16.
        assert!(s.gain <= 16.0 + 1e-9);
    }

    #[test]
    fn adascale_large_batch_matches_small_batch_progress() {
        // The core AdaScale property (Sec. 2.2): a batch-256 run with
        // AdaScale reaches the same loss in roughly the predicted
        // number of examples: 1/EFFICIENCY(m) times the m0 run's
        // examples, not m/m0 times.
        // Check frequently: at batch 256 a coarse check interval
        // quantizes the measured examples (25 steps = 6400 examples)
        // enough to mask the efficiency gap this test asserts on.
        let target = 0.18;
        let (_, ex_small) = trainer(1, 32, true, 4)
            .train_until_loss(target, 60_000, 5)
            .expect("small-batch run must converge");

        let mut big = trainer(4, 256, true, 4);
        let (_, ex_big) = big
            .train_until_loss(target, 60_000, 5)
            .expect("large-batch run must converge");
        let eff = big.efficiency_model().efficiency(256);
        let predicted = ex_small as f64 / eff;
        let ratio = ex_big as f64 / predicted;
        assert!(
            (0.3..3.0).contains(&ratio),
            "examples: small {ex_small}, big {ex_big}, eff {eff:.3}, ratio {ratio:.2}"
        );
        // And AdaScale's examples must be far below naive linear
        // scaling of the step count (which would be 8x the examples).
        assert!(ex_big < ex_small * 8, "big {ex_big} vs small {ex_small}");
    }

    #[test]
    fn adascale_beats_fixed_lr_at_large_batch() {
        // With fixed η0 at batch 512, each step makes m0-step-sized
        // progress: examples consumed explode versus AdaScale.
        let target = 0.2;
        let with = trainer(4, 512, true, 5).train_until_loss(target, 40_000, 25);
        let without = trainer(4, 512, false, 5).train_until_loss(target, 40_000, 25);
        let (_, ex_with) = with.expect("adascale run converges");
        match without {
            Some((_, ex_without)) => {
                assert!(
                    ex_with as f64 <= 0.7 * ex_without as f64,
                    "adascale {ex_with} vs fixed {ex_without}"
                );
            }
            None => {
                // Fixed-LR didn't converge within budget: also a pass.
            }
        }
    }

    #[test]
    fn batch_size_changes_midtraining() {
        let mut t = trainer(4, 64, true, 6);
        for _ in 0..50 {
            t.step();
        }
        assert!(t.set_batch_size(256));
        let s = t.step();
        assert_eq!(s.examples, 256);
        assert!(!t.set_batch_size(2), "below replica count must fail");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = trainer(2, 64, true, 7);
        let mut b = trainer(2, 64, true, 7);
        for _ in 0..100 {
            a.step();
            b.step();
        }
        assert_eq!(a.model().params(), b.model().params());
        assert_eq!(a.phi(), b.phi());
    }
}
