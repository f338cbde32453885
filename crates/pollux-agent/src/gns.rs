//! Gradient-noise-scale estimation (Sec. 3.1).
//!
//! The noise scale needs two statistics measured during training: the
//! per-example gradient-noise magnitude `S = tr(Σ)` and the squared
//! true-gradient norm `µ² = |g|²`. Two estimators are provided:
//!
//! - [`ReplicaGns`] — the standard estimator when `K ≥ 2` data-parallel
//!   replicas exist: it contrasts the per-replica gradients `ĝ_k`
//!   (computed on `m/K` examples each) with their average (computed on
//!   `m` examples), following McCandlish et al.'s unbiased two-batch
//!   construction.
//! - [`DifferencedGns`] — when only one replica exists, contrasts
//!   consecutive gradients `ĝ(t−1)` and `ĝ(t)` instead (a differenced
//!   variance estimator, Wang & Yu 2017): the paper's single-process
//!   fallback.
//!
//! Both feed exponentially-weighted moving averages ([`Ewma`]) with
//! bias correction, because the raw per-iteration estimates are
//! extremely noisy.

use pollux_models::GradientStats;

/// Exponentially-weighted moving average with warm-up bias correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    weighted_sum: f64,
    weight: f64,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha ∈ (0, 1]`
    /// (larger = less smoothing). Returns `None` for invalid factors.
    pub fn new(alpha: f64) -> Option<Self> {
        if alpha > 0.0 && alpha <= 1.0 {
            Some(Self {
                alpha,
                weighted_sum: 0.0,
                weight: 0.0,
            })
        } else {
            None
        }
    }

    /// Folds a new observation into the average.
    pub fn update(&mut self, value: f64) {
        self.weighted_sum = (1.0 - self.alpha) * self.weighted_sum + self.alpha * value;
        self.weight = (1.0 - self.alpha) * self.weight + self.alpha;
    }

    /// The bias-corrected average, or `None` before any update.
    pub fn value(&self) -> Option<f64> {
        if self.weight > 0.0 {
            Some(self.weighted_sum / self.weight)
        } else {
            None
        }
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        self.weighted_sum = 0.0;
        self.weight = 0.0;
    }
}

/// Multi-replica gradient-noise-scale estimator.
///
/// Accumulates smoothed estimates of the per-example noise `S` and the
/// squared gradient norm `µ²`, and converts them into [`GradientStats`]
/// normalized to the job's initial batch size `m0` (i.e.
/// `variance = S / m0`), matching the `φ_t = m0 σ²/µ²` convention of
/// the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaGns {
    m0: u64,
    noise: Ewma,
    sqr_norm: Ewma,
}

impl ReplicaGns {
    /// Creates an estimator for a job with initial batch size `m0`.
    pub fn new(m0: u64, smoothing: f64) -> Option<Self> {
        if m0 == 0 {
            return None;
        }
        Some(Self {
            m0,
            noise: Ewma::new(smoothing)?,
            sqr_norm: Ewma::new(smoothing)?,
        })
    }

    /// Updates from the per-replica local gradients of one iteration.
    ///
    /// `local_grads` are the `K ≥ 2` per-replica gradient vectors (each
    /// computed on `total_batch / K` examples); all must share one
    /// dimension. Returns `false` (no update) for fewer than two
    /// replicas, inconsistent dimensions, or a degenerate batch split.
    pub fn update(&mut self, local_grads: &[Vec<f64>], total_batch: u64) -> bool {
        let k = local_grads.len();
        if k < 2 || total_batch < k as u64 {
            return false;
        }
        let dim = local_grads[0].len();
        if dim == 0 || local_grads.iter().any(|g| g.len() != dim) {
            return false;
        }
        let b_small = total_batch as f64 / k as f64;
        let b_big = total_batch as f64;

        // Mean gradient across replicas (the batch-m gradient).
        let mut mean = vec![0.0; dim];
        for g in local_grads {
            for (m, v) in mean.iter_mut().zip(g) {
                *m += v / k as f64;
            }
        }
        let norm_big: f64 = mean.iter().map(|v| v * v).sum();
        let norm_small: f64 = local_grads
            .iter()
            .map(|g| g.iter().map(|v| v * v).sum::<f64>())
            .sum::<f64>()
            / k as f64;

        // Unbiased estimates (McCandlish et al., Appendix A):
        //   |G|² ≈ (B_big |g_big|² − B_small |g_small|²) / (B_big − B_small)
        //   S    ≈ (|g_small|² − |g_big|²) / (1/B_small − 1/B_big)
        let mu2 = (b_big * norm_big - b_small * norm_small) / (b_big - b_small);
        let s = (norm_small - norm_big) / (1.0 / b_small - 1.0 / b_big);
        if !mu2.is_finite() || !s.is_finite() {
            return false;
        }
        // Individual estimates can be negative from sampling noise; the
        // EWMA of the signed values remains unbiased, so feed them as-is.
        self.noise.update(s);
        self.sqr_norm.update(mu2);
        true
    }

    /// The smoothed gradient statistics normalized to `m0`, or `None`
    /// before enough updates.
    ///
    /// A non-positive smoothed `µ²` estimate (common near convergence,
    /// where the true gradient vanishes into the noise) is clamped to
    /// zero, which yields an infinite noise scale — the physically
    /// correct limit (Sec. 2.2: φ grows as training converges).
    pub fn gradient_stats(&self) -> Option<GradientStats> {
        let s = self.noise.value()?;
        let mu2 = self.sqr_norm.value()?;
        GradientStats::new((s / self.m0 as f64).max(0.0), mu2.max(0.0))
    }

    /// The smoothed noise scale `φ_t` in examples, or `None` before
    /// enough data.
    pub fn noise_scale(&self) -> Option<f64> {
        self.gradient_stats().map(|g| g.noise_scale(self.m0))
    }
}

/// Single-replica differenced gradient-noise-scale estimator.
///
/// With one replica there are no independent same-iteration gradients
/// to contrast, so consecutive gradients are used instead: assuming the
/// true gradient varies slowly between adjacent iterations,
///
/// ```text
/// Var[ĝ]  ≈ |ĝ(t) − ĝ(t−1)|² / 2         (noise of a batch-m gradient)
/// µ²      ≈ ĝ(t) · ĝ(t−1)                 (noise cancels in expectation)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DifferencedGns {
    m0: u64,
    noise: Ewma,
    sqr_norm: Ewma,
    prev: Option<(Vec<f64>, u64)>,
}

impl DifferencedGns {
    /// Creates an estimator for a job with initial batch size `m0`.
    pub fn new(m0: u64, smoothing: f64) -> Option<Self> {
        if m0 == 0 {
            return None;
        }
        Some(Self {
            m0,
            noise: Ewma::new(smoothing)?,
            sqr_norm: Ewma::new(smoothing)?,
            prev: None,
        })
    }

    /// Feeds the single-replica gradient of one iteration, computed on
    /// `batch` examples. The first call only primes the estimator.
    /// Returns `true` when an estimate was produced.
    pub fn update(&mut self, grad: &[f64], batch: u64) -> bool {
        if grad.is_empty() || batch == 0 {
            return false;
        }
        let current = grad.to_vec();
        let produced = if let Some((prev, prev_batch)) = &self.prev {
            if prev.len() == current.len() && *prev_batch == batch {
                let diff2: f64 = prev
                    .iter()
                    .zip(&current)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                let dot: f64 = prev.iter().zip(&current).map(|(a, b)| a * b).sum();
                // Per-example noise: S = batch · Var[ĝ_batch].
                let s = batch as f64 * diff2 / 2.0;
                self.noise.update(s);
                self.sqr_norm.update(dot);
                true
            } else {
                false
            }
        } else {
            false
        };
        self.prev = Some((current, batch));
        produced
    }

    /// The smoothed gradient statistics normalized to `m0`.
    ///
    /// As with [`ReplicaGns::gradient_stats`], a non-positive smoothed
    /// `µ²` (the differenced dot-product turns negative once SGD
    /// oscillates around the optimum) is clamped to zero, yielding an
    /// infinite noise scale — the correct near-convergence limit.
    pub fn gradient_stats(&self) -> Option<GradientStats> {
        let s = self.noise.value()?;
        let mu2 = self.sqr_norm.value()?;
        GradientStats::new((s / self.m0 as f64).max(0.0), mu2.max(0.0))
    }

    /// The smoothed noise scale `φ_t` in examples.
    pub fn noise_scale(&self) -> Option<f64> {
        self.gradient_stats().map(|g| g.noise_scale(self.m0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rand_distr::{Distribution, Normal};

    #[test]
    fn ewma_validation_and_bias_correction() {
        assert!(Ewma::new(0.0).is_none());
        assert!(Ewma::new(1.5).is_none());
        let mut e = Ewma::new(0.1).unwrap();
        assert_eq!(e.value(), None);
        e.update(10.0);
        // With bias correction, a single observation is returned exactly.
        assert!((e.value().unwrap() - 10.0).abs() < 1e-12);
        for _ in 0..200 {
            e.update(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-9);
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    fn ewma_tracks_level_changes() {
        let mut e = Ewma::new(0.3).unwrap();
        for _ in 0..50 {
            e.update(1.0);
        }
        for _ in 0..50 {
            e.update(5.0);
        }
        let v = e.value().unwrap();
        assert!(v > 4.5 && v <= 5.0, "v = {v}");
    }

    /// Simulates data-parallel gradients: true gradient `mu_vec`, and
    /// per-replica noise with per-example trace `s_true`, local batch
    /// `b = m / k`.
    fn synth_replica_grads(
        rng: &mut StdRng,
        mu_vec: &[f64],
        s_true: f64,
        m: u64,
        k: usize,
    ) -> Vec<Vec<f64>> {
        let dim = mu_vec.len();
        let b = m as f64 / k as f64;
        // Per-coordinate noise std so the total trace is s_true / b.
        let std = (s_true / b / dim as f64).sqrt();
        let n = Normal::new(0.0, std).unwrap();
        (0..k)
            .map(|_| mu_vec.iter().map(|&mu| mu + n.sample(rng)).collect())
            .collect()
    }

    #[test]
    fn replica_estimator_recovers_known_noise_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let dim = 64;
        let mu_vec: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mu2: f64 = mu_vec.iter().map(|v| v * v).sum();
        let s_true = 50.0 * mu2; // φ(m0) = S/µ² · ... in examples: S/µ².
        let m0 = 32u64;
        let m = 128u64;
        let mut est = ReplicaGns::new(m0, 0.05).unwrap();
        for _ in 0..3000 {
            let grads = synth_replica_grads(&mut rng, &mu_vec, s_true, m, 4);
            assert!(est.update(&grads, m));
        }
        let phi = est.noise_scale().unwrap();
        let phi_true = s_true / mu2;
        assert!(
            (phi - phi_true).abs() / phi_true < 0.15,
            "phi = {phi}, true = {phi_true}"
        );
    }

    #[test]
    fn replica_estimator_rejects_degenerate_input() {
        let mut est = ReplicaGns::new(32, 0.1).unwrap();
        // One replica.
        assert!(!est.update(&[vec![1.0, 2.0]], 128));
        // Mismatched dims.
        assert!(!est.update(&[vec![1.0], vec![1.0, 2.0]], 128));
        // Empty gradients.
        assert!(!est.update(&[vec![], vec![]], 128));
        // Batch smaller than replica count.
        assert!(!est.update(&[vec![1.0], vec![1.0], vec![1.0]], 2));
        assert!(est.gradient_stats().is_none());
    }

    #[test]
    fn replica_estimator_zero_noise_gives_zero_phi() {
        let mut est = ReplicaGns::new(32, 0.5).unwrap();
        let g = vec![1.0, -2.0, 0.5];
        for _ in 0..10 {
            assert!(est.update(&[g.clone(), g.clone()], 64));
        }
        let phi = est.noise_scale().unwrap();
        assert!(phi.abs() < 1e-9, "phi = {phi}");
    }

    #[test]
    fn differenced_estimator_recovers_known_noise_scale() {
        let mut rng = StdRng::seed_from_u64(11);
        let dim = 64;
        let mu_vec: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mu2: f64 = mu_vec.iter().map(|v| v * v).sum();
        let s_true = 30.0 * mu2;
        let m0 = 32u64;
        let batch = 64u64;
        let std = (s_true / batch as f64 / dim as f64).sqrt();
        let n = Normal::new(0.0, std).unwrap();
        let mut est = DifferencedGns::new(m0, 0.02).unwrap();
        for _ in 0..5000 {
            let g: Vec<f64> = mu_vec.iter().map(|&mu| mu + n.sample(&mut rng)).collect();
            est.update(&g, batch);
        }
        let phi = est.noise_scale().unwrap();
        let phi_true = s_true / mu2;
        assert!(
            (phi - phi_true).abs() / phi_true < 0.15,
            "phi = {phi}, true = {phi_true}"
        );
    }

    #[test]
    fn differenced_estimator_needs_two_gradients() {
        let mut est = DifferencedGns::new(32, 0.1).unwrap();
        assert!(!est.update(&[1.0, 2.0], 64));
        assert!(est.gradient_stats().is_none());
        assert!(est.update(&[1.1, 2.1], 64));
        assert!(est.gradient_stats().is_some());
    }

    #[test]
    fn differenced_estimator_skips_batch_changes() {
        let mut est = DifferencedGns::new(32, 0.1).unwrap();
        assert!(!est.update(&[1.0, 2.0], 64));
        // Batch size changed: differencing across it would be invalid.
        assert!(!est.update(&[1.0, 2.0], 128));
        // Same batch size again: produces an estimate.
        assert!(est.update(&[1.0, 2.0], 128));
    }

    #[test]
    fn estimators_agree_on_shared_workload() {
        // Both estimators should converge to similar φ on the same
        // gradient stream (replica one sees the split, differenced one
        // sees the average).
        let mut rng = StdRng::seed_from_u64(13);
        let dim = 32;
        let mu_vec: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mu2: f64 = mu_vec.iter().map(|v| v * v).sum();
        let s_true = 20.0 * mu2;
        let m = 64u64;
        let k = 4usize;
        let mut rep = ReplicaGns::new(32, 0.02).unwrap();
        let mut dif = DifferencedGns::new(32, 0.02).unwrap();
        for _ in 0..4000 {
            let grads = synth_replica_grads(&mut rng, &mu_vec, s_true, m, k);
            rep.update(&grads, m);
            let mean: Vec<f64> = (0..dim)
                .map(|i| grads.iter().map(|g| g[i]).sum::<f64>() / k as f64)
                .collect();
            dif.update(&mean, m);
        }
        let a = rep.noise_scale().unwrap();
        let b = dif.noise_scale().unwrap();
        assert!(
            (a - b).abs() / a.max(b) < 0.25,
            "replica {a} vs differenced {b}"
        );
    }
}
