//! Online fitting of the θsys throughput parameters (Sec. 4.1).
//!
//! `PolluxAgent` records `(placement shape, batch size, T_iter)` triples
//! for every configuration its job runs under, and periodically re-fits
//! θsys by minimizing the root-mean-squared *logarithmic* error between
//! the model (Eqn 11) and the observations, subject to the box
//! constraints `α, β ≥ 0`, `γ ∈ [1, 10]`.
//!
//! **Prior-driven exploration** (Sec. 4.1): while some configurations
//! remain unexplored, the corresponding parameters are pinned to zero so
//! the model optimistically predicts perfect scaling, which encourages
//! `PolluxSched` to try larger allocations:
//!
//! - no multi-GPU observation yet → all four sync parameters pinned to 0;
//! - no multi-node observation yet → `α_sync^node`, `β_sync^node`
//!   pinned to 0;
//! - no observation with more than two GPUs yet → both retrogression
//!   slopes `β_sync^·` pinned to 0 (they multiply `K − 2` and are
//!   unidentifiable otherwise).
//!
//! **The solve.** Projected L-BFGS with the exact gradient, on the
//! *mean squared* log error `L = (1/n) Σ dᵢ²`,
//! `dᵢ = ln(1 + T_iter(θ; aᵢ, mᵢ)) − ln(1 + tᵢ)`. `L` has the argmin of
//! the RMSLE `√L` but stays smooth at a perfect fit, where `√L` has a
//! kink (every one-observation fit ends there); the root is taken only
//! to report [`FitReport::rmsle`]. With `g = T_grad`, `s = T_sync`,
//! `h = max(g, s)`, `l = min(g, s)`, `r = l / h`, `S = 1 + r^γ` and
//! `T = T_iter = h · S^{1/γ}`:
//!
//! ```text
//! ∂L/∂θⱼ = (2/n) Σ dᵢ / (1 + Tᵢ) · ∂Tᵢ/∂θⱼ
//! ∂T/∂h  = S^{1/γ} / S                  (= (h/T)^{γ−1})
//! ∂T/∂l  = r^{γ−1} · ∂T/∂h              (= (l/T)^{γ−1})
//! ∂T/∂γ  = T · ( r^γ ln r / (γ S) − ln S / γ² )
//! ∂g/∂α_grad = 1,  ∂g/∂β_grad = m/K,  ∂s/∂α_sync = 1,  ∂s/∂β_sync = K − 2
//! ```
//!
//! where `α_sync`, `β_sync` are the local or the node pair by the
//! observation's locality. When `s = 0` (one GPU, or sync parameters
//! pinned by a prior) `T = g` and `r^γ ln r` takes its limit 0, so
//! `∂T/∂γ = 0`.

use crate::bounds::Bounds;
use crate::lbfgsb::lbfgsb_minimize;
use crate::throughput::{PlacementShape, ThroughputParams};

/// One throughput observation collected during training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitObservation {
    /// Placement shape the job ran under.
    pub shape: PlacementShape,
    /// Total batch size used.
    pub batch_size: u64,
    /// Measured time per iteration in seconds (noisy).
    pub t_iter: f64,
}

/// Exploration state driving the prior masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FitPriors {
    /// Largest GPU count among observations.
    pub max_gpus_seen: u32,
    /// Largest node count among observations.
    pub max_nodes_seen: u32,
}

impl FitPriors {
    /// Derives the priors from a set of observations.
    pub fn from_observations(obs: &[FitObservation]) -> Self {
        let mut p = Self::default();
        for o in obs {
            p.max_gpus_seen = p.max_gpus_seen.max(o.shape.gpus);
            p.max_nodes_seen = p.max_nodes_seen.max(o.shape.nodes);
        }
        p
    }

    /// Per-parameter mask: `true` means the parameter is free,
    /// `false` means pinned to its prior value (0 for α/β).
    fn free_mask(&self) -> [bool; ThroughputParams::DIM] {
        let multi_gpu = self.max_gpus_seen >= 2;
        let multi_node = self.max_nodes_seen >= 2;
        let beyond_two = self.max_gpus_seen > 2;
        [
            true,                     // alpha_grad
            true,                     // beta_grad
            multi_gpu,                // alpha_sync_local
            multi_gpu && beyond_two,  // beta_sync_local
            multi_node,               // alpha_sync_node
            multi_node && beyond_two, // beta_sync_node
            true,                     // gamma
        ]
    }
}

/// Outcome of a θsys fit.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Fitted parameters (valid under the box constraints).
    pub params: ThroughputParams,
    /// Final RMSLE loss value.
    pub rmsle: f64,
    /// Number of observations used.
    pub num_observations: usize,
    /// The priors that masked the fit.
    pub priors: FitPriors,
    /// Whether the fit converged from a warm start (previous round's
    /// parameters), skipping the multi-start restarts.
    pub used_warm_start: bool,
}

/// Solver work one fit spent, summed over its quasi-Newton solves.
/// Travels beside the [`FitReport`], never inside it: it describes the
/// computation, not the result, and must not reach a serialized form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FitWork {
    /// Value-and-gradient evaluations of the objective.
    pub evals: u64,
    /// Quasi-Newton iterations.
    pub iters: u64,
}

/// Root-mean-squared logarithmic error between the model and the
/// observations; the paper's fitting objective.
pub fn rmsle(params: &ThroughputParams, obs: &[FitObservation]) -> f64 {
    if obs.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for o in obs {
        let pred = params.t_iter(o.shape, o.batch_size);
        let d = (pred.max(0.0).ln_1p()) - (o.t_iter.max(0.0).ln_1p());
        acc += d * d;
    }
    (acc / obs.len() as f64).sqrt()
}

/// Fits θsys to the observations under the given priors.
///
/// Runs a small multi-start of bound-constrained quasi-Newton solves
/// with exact gradients (over the free parameters only) and returns
/// the best feasible parameters found.
///
/// Returns `None` when `obs` is empty or contains no finite `t_iter`.
pub fn fit_throughput_params(obs: &[FitObservation], priors: FitPriors) -> Option<FitReport> {
    fit_throughput_params_warm(obs, priors, None)
}

/// RMSLE at which a warm-started solve is accepted without running the
/// multi-start restarts. The agent's own observation noise dominates
/// below this level, so multi-start would spend 4x the solver budget to
/// reshuffle noise.
const WARM_ACCEPT_RMSLE: f64 = 0.02;

/// Like [`fit_throughput_params`] but seeded from the previous round's
/// fitted parameters.
///
/// Consecutive refits see nearly the same observation set, so the old
/// optimum almost always lies in the new optimum's basin: one
/// quasi-Newton solve from `warm` typically converges immediately. When
/// that solve reaches an RMSLE of at most `WARM_ACCEPT_RMSLE` the
/// multi-start restarts are skipped entirely
/// ([`FitReport::used_warm_start`] is set); otherwise the warm
/// candidate merely competes with the cold-start seeds, so the result
/// is never worse than a cold fit. A `warm` the objective is not finite
/// at (NaN or infinite coordinates) is ignored. `warm = None` is exactly
/// [`fit_throughput_params`].
pub fn fit_throughput_params_warm(
    obs: &[FitObservation],
    priors: FitPriors,
    warm: Option<&ThroughputParams>,
) -> Option<FitReport> {
    fit_throughput_params_counted(obs, priors, warm).map(|(report, _)| report)
}

/// [`fit_throughput_params_warm`] that also returns the solver work the
/// fit spent, for telemetry.
pub fn fit_throughput_params_counted(
    obs: &[FitObservation],
    priors: FitPriors,
    warm: Option<&ThroughputParams>,
) -> Option<(FitReport, FitWork)> {
    fit_impl(obs, priors, (1.0, ThroughputParams::GAMMA_MAX), warm)
}

/// Like [`fit_throughput_params`] but with an explicit γ range.
///
/// Used by the overlap-model ablation: pinning γ to `(1, 1)` forces
/// the no-overlap model `T_iter = T_grad + T_sync`, and pinning it to
/// `(10, 10)` approximates the perfect-overlap model
/// `T_iter = max(T_grad, T_sync)` (Sec. 3.2).
pub fn fit_throughput_params_constrained(
    obs: &[FitObservation],
    priors: FitPriors,
    gamma_range: (f64, f64),
) -> Option<FitReport> {
    fit_impl(obs, priors, gamma_range, None).map(|(report, _)| report)
}

/// Index of γ in the canonical θsys order.
const GAMMA: usize = ThroughputParams::DIM - 1;

/// One observation reduced to what the objective needs, so that an
/// evaluation touches no `PlacementShape` and takes no logarithm of
/// data.
struct Row {
    /// Local batch size `m / K`, the coefficient of `β_grad`, over
    /// [`Objective::scale`]'s entry for `β_grad`.
    local_batch: f64,
    /// θsys index of the `α_sync` this shape pays (`β_sync` follows
    /// it); `None` for a single GPU, where `T_sync = 0`.
    sync: Option<usize>,
    /// `K − 2`, the coefficient of `β_sync`, over its scale.
    extra_gpus: f64,
    /// `ln(1 + t_obs)`.
    ln_obs: f64,
}

/// Observations the fit uses: a finite positive `t_iter`.
fn usable(o: &FitObservation) -> bool {
    o.t_iter.is_finite() && o.t_iter > 0.0
}

/// The fitting objective over the free coordinates of θsys.
///
/// The solver's variables are `θ · scale`: each β is multiplied by the
/// mean of its coefficient over the observations (and the coefficients
/// in the rows divided by it), so that a unit step in any coordinate
/// moves the predictions by a comparable amount. Unscaled, `β_grad`
/// (seconds per example, times a local batch in the hundreds) makes
/// the problem too ill-conditioned for the iteration budget.
struct Objective {
    rows: Vec<Row>,
    /// θsys indices of the free parameters, ascending (γ is last).
    free_idx: Vec<usize>,
    scale: [f64; ThroughputParams::DIM],
}

impl Objective {
    /// Keeps the observations with a finite positive `t_iter`; `None`
    /// when there are none.
    fn new(obs: &[FitObservation], priors: FitPriors) -> Option<Self> {
        let mut rows: Vec<Row> = obs
            .iter()
            .filter(|o| usable(o))
            .map(|o| {
                let k = o.shape.gpus;
                Row {
                    local_batch: o.batch_size as f64 / k as f64,
                    sync: (k > 1).then_some(if o.shape.nodes == 1 { 2 } else { 4 }),
                    extra_gpus: k.saturating_sub(2) as f64,
                    ln_obs: o.t_iter.ln_1p(),
                }
            })
            .collect();
        if rows.is_empty() {
            return None;
        }
        // Mean of `f` over the rows where it is positive, or 1.
        let mean_positive = |f: fn(&Row) -> f64| {
            let (sum, count) = rows
                .iter()
                .map(f)
                .filter(|&v| v > 0.0)
                .fold((0.0, 0.0), |(s, c), v| (s + v, c + 1.0));
            if count > 0.0 {
                sum / count
            } else {
                1.0
            }
        };
        let batch_scale = mean_positive(|r| r.local_batch);
        let gpus_scale = mean_positive(|r| r.extra_gpus);
        for row in &mut rows {
            row.local_batch /= batch_scale;
            row.extra_gpus /= gpus_scale;
        }
        let mask = priors.free_mask();
        Some(Self {
            rows,
            free_idx: (0..ThroughputParams::DIM).filter(|&i| mask[i]).collect(),
            scale: [1.0, batch_scale, 1.0, gpus_scale, 1.0, gpus_scale, 1.0],
        })
    }

    /// The solver's starting point for a full θsys vector.
    fn to_free(&self, theta: &[f64; ThroughputParams::DIM]) -> Vec<f64> {
        self.free_idx
            .iter()
            .map(|&i| theta[i] * self.scale[i])
            .collect()
    }

    /// Embeds the solver's free variables into a full (still scaled)
    /// θsys vector; pinned parameters stay at their prior, 0.
    fn embed(&self, free: &[f64]) -> [f64; ThroughputParams::DIM] {
        let mut theta = [0.0; ThroughputParams::DIM];
        for (&i, &v) in self.free_idx.iter().zip(free) {
            theta[i] = v;
        }
        theta
    }

    /// θsys at the solver's free variables.
    fn params(&self, free: &[f64]) -> ThroughputParams {
        let mut theta = self.embed(free);
        for (t, s) in theta.iter_mut().zip(&self.scale) {
            *t /= s;
        }
        ThroughputParams::from_slice_unchecked(&theta)
    }

    /// Mean squared log error at the solver's variables `free`; writes
    /// its gradient with respect to them into `grad` (derivation in
    /// the module documentation).
    fn msle_and_grad(&self, free: &[f64], grad: &mut [f64]) -> f64 {
        let theta = self.embed(free);
        let gamma = theta[GAMMA];
        let mut full_grad = [0.0; ThroughputParams::DIM];
        let mut acc = 0.0;
        for row in &self.rows {
            let t_grad = theta[0] + theta[1] * row.local_batch;
            let t_sync = row
                .sync
                .map_or(0.0, |a| theta[a] + theta[a + 1] * row.extra_gpus);
            let (hi, lo) = if t_grad >= t_sync {
                (t_grad, t_sync)
            } else {
                (t_sync, t_grad)
            };
            // (T_iter, ∂T/∂hi, ∂T/∂lo, ∂T/∂γ).
            let r = lo / hi;
            let (t_iter, d_hi, d_lo, d_gamma) = if r > 0.0 {
                let r_gamma = r.powf(gamma);
                let s = 1.0 + r_gamma;
                let root = s.powf(1.0 / gamma);
                let t_iter = hi * root;
                let d_hi = root / s;
                let d_gamma = t_iter * (r_gamma * r.ln() / (gamma * s) - s.ln() / (gamma * gamma));
                (t_iter, d_hi, d_hi * r_gamma / r, d_gamma)
            } else {
                // r = 0 (one GPU, sync parameters at their pinned prior,
                // or a ratio that underflows): T = hi, r^γ ln r → 0,
                // and r^{γ−1} → 1 only at γ = 1.
                (hi, 1.0, if gamma == 1.0 { 1.0 } else { 0.0 }, 0.0)
            };
            let d = t_iter.ln_1p() - row.ln_obs;
            acc += d * d;
            let w = d / (1.0 + t_iter);
            let (w_grad, w_sync) = if t_grad >= t_sync {
                (w * d_hi, w * d_lo)
            } else {
                (w * d_lo, w * d_hi)
            };
            full_grad[0] += w_grad;
            full_grad[1] += w_grad * row.local_batch;
            if let Some(a) = row.sync {
                full_grad[a] += w_sync;
                full_grad[a + 1] += w_sync * row.extra_gpus;
            }
            full_grad[GAMMA] += w * d_gamma;
        }
        let n = self.rows.len() as f64;
        for (g, &i) in grad.iter_mut().zip(&self.free_idx) {
            *g = 2.0 * full_grad[i] / n;
        }
        acc / n
    }

    /// Box constraints on the free coordinates.
    fn bounds(&self, gamma_range: (f64, f64)) -> Bounds {
        let (lo, hi) = self
            .free_idx
            .iter()
            .map(|&i| {
                if i == GAMMA {
                    gamma_range
                } else {
                    (ThroughputParams::LOWER[i], f64::INFINITY)
                }
            })
            .unzip();
        Bounds::new(lo, hi).expect("the γ range was checked and the α/β bounds are static")
    }
}

fn fit_impl(
    obs: &[FitObservation],
    priors: FitPriors,
    gamma_range: (f64, f64),
    warm: Option<&ThroughputParams>,
) -> Option<(FitReport, FitWork)> {
    let (gamma_lo, gamma_hi) = gamma_range;
    // Written so that a NaN end fails it.
    if !(1.0 <= gamma_lo && gamma_lo <= gamma_hi && gamma_hi <= ThroughputParams::GAMMA_MAX) {
        return None;
    }
    let objective = Objective::new(obs, priors)?;
    let bounds = objective.bounds(gamma_range);
    let mut work = FitWork::default();
    // One quasi-Newton solve from a full θsys seed: `(x, MSLE)`, or
    // `None` when the objective is not finite at the projected seed.
    let mut solve = |seed_full: &[f64; ThroughputParams::DIM]| -> Option<(Vec<f64>, f64)> {
        let r = lbfgsb_minimize(
            |x, g| objective.msle_and_grad(x, g),
            &objective.to_free(seed_full),
            &bounds,
            // 7 parameters: quasi-Newton converges in a few dozen
            // steps; the agent refits often, so the budget is tight.
            80,
        )?;
        work.evals += r.evals as u64;
        work.iters += r.iters as u64;
        Some((r.x, r.fx))
    };
    let report = |(x, msle): (Vec<f64>, f64), used_warm_start: bool| {
        let params = objective.params(&x);
        debug_assert!(params.is_valid(), "fit produced invalid params: {params:?}");
        FitReport {
            params,
            rmsle: msle.sqrt(),
            num_observations: objective.rows.len(),
            priors,
            used_warm_start,
        }
    };

    // Heuristic multi-starts derived from the data scale: the mean
    // iteration time and per-example time seed α and β.
    let n = objective.rows.len() as f64;
    let (sum_t, sum_per_example) =
        obs.iter()
            .filter(|o| usable(o))
            .fold((0.0, 0.0), |(t, per_example), o| {
                let gpu_time = o.t_iter * o.shape.gpus as f64;
                (
                    t + o.t_iter,
                    per_example + gpu_time / o.batch_size.max(1) as f64,
                )
            });
    let (mean_t, mean_per_example) = (sum_t / n, sum_per_example / n);
    let seeds_full: [[f64; ThroughputParams::DIM]; 4] = [
        [
            0.5 * mean_t,
            0.5 * mean_per_example,
            0.1 * mean_t,
            0.01 * mean_t,
            0.2 * mean_t,
            0.02 * mean_t,
            2.0f64.clamp(gamma_range.0, gamma_range.1),
        ],
        [
            0.1 * mean_t,
            mean_per_example,
            0.0,
            0.0,
            0.0,
            0.0,
            gamma_range.0,
        ],
        [
            mean_t,
            0.1 * mean_per_example,
            mean_t,
            0.0,
            mean_t,
            0.0,
            4.0f64.clamp(gamma_range.0, gamma_range.1),
        ],
        [
            1e-3,
            1e-5,
            1e-3,
            1e-4,
            1e-2,
            1e-3,
            1.5f64.clamp(gamma_range.0, gamma_range.1),
        ],
    ];

    // Warm start: one quasi-Newton solve from the previous round's
    // optimum before spending any restarts. Where T_sync ≪ T_grad the
    // objective is flat in the sync parameters at every γ > 1
    // (∂T/∂T_sync = r^{γ−1} → 0), so an α_sync that was pinned last
    // round, or fitted to next to nothing, would never grow from
    // there and the solve would stop early on a vanishing gradient:
    // below 1 % of the first seed's value it starts from that value.
    let warm_candidate = warm.and_then(|w| {
        let mut seed = w.to_vec();
        for i in [2, 4] {
            if seed[i] <= 0.01 * seeds_full[0][i] {
                seed[i] = seeds_full[0][i];
            }
        }
        solve(&seed)
    });
    let mut best = match warm_candidate {
        Some(cand) if cand.1.sqrt() <= WARM_ACCEPT_RMSLE => {
            return Some((report(cand, true), work));
        }
        other => other,
    };

    // A warm candidate that failed the early-accept threshold still
    // competes with the cold-start restarts.
    for seed_full in &seeds_full {
        if let Some(cand) = solve(seed_full) {
            if best.as_ref().is_none_or(|(_, msle)| cand.1 < *msle) {
                best = Some(cand);
            }
        }
    }
    Some((report(best?, false), work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn truth() -> ThroughputParams {
        ThroughputParams::new(0.08, 8.0e-4, 0.05, 0.002, 0.25, 0.008, 1.8).unwrap()
    }

    /// Generates observations over a grid of placements and batch sizes,
    /// with multiplicative noise of the given relative magnitude.
    fn synth_observations(noise: f64, seed: u64) -> Vec<FitObservation> {
        let p = truth();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = Vec::new();
        for (gpus, nodes) in [
            (1u32, 1u32),
            (2, 1),
            (4, 1),
            (4, 2),
            (8, 2),
            (8, 4),
            (16, 4),
        ] {
            for m in [128u64, 256, 512, 1024, 2048] {
                let shape = PlacementShape::new(gpus, nodes).unwrap();
                let t = p.t_iter(shape, m);
                let eps: f64 = rng.gen_range(-noise..=noise);
                obs.push(FitObservation {
                    shape,
                    batch_size: m,
                    t_iter: t * (1.0 + eps),
                });
            }
        }
        obs
    }

    #[test]
    fn priors_derived_from_observations() {
        let obs = synth_observations(0.0, 1);
        let p = FitPriors::from_observations(&obs);
        assert_eq!(p.max_gpus_seen, 16);
        assert_eq!(p.max_nodes_seen, 4);
        assert_eq!(p.free_mask(), [true; 7]);
    }

    #[test]
    fn prior_masks_progressively_unlock() {
        let single = FitPriors {
            max_gpus_seen: 1,
            max_nodes_seen: 1,
        };
        assert_eq!(
            single.free_mask(),
            [true, true, false, false, false, false, true]
        );
        let two_gpu = FitPriors {
            max_gpus_seen: 2,
            max_nodes_seen: 1,
        };
        assert_eq!(
            two_gpu.free_mask(),
            [true, true, true, false, false, false, true]
        );
        let two_node = FitPriors {
            max_gpus_seen: 4,
            max_nodes_seen: 2,
        };
        assert_eq!(two_node.free_mask(), [true; 7]);
        let two_gpu_two_node = FitPriors {
            max_gpus_seen: 2,
            max_nodes_seen: 2,
        };
        assert_eq!(
            two_gpu_two_node.free_mask(),
            [true, true, true, false, true, false, true]
        );
    }

    #[test]
    fn rmsle_zero_for_exact_model() {
        let obs = synth_observations(0.0, 2);
        assert!(rmsle(&truth(), &obs) < 1e-12);
    }

    #[test]
    fn fit_recovers_noiseless_predictions() {
        let obs = synth_observations(0.0, 3);
        let report = fit_throughput_params(&obs, FitPriors::from_observations(&obs)).unwrap();
        assert!(report.rmsle < 5e-3, "rmsle = {}", report.rmsle);
        // Predictions (not necessarily parameters — the model can be
        // weakly identified) must match on held-out configurations.
        let p = truth();
        for (gpus, nodes, m) in [(3u32, 1u32, 384u64), (12, 3, 1536), (6, 2, 768)] {
            let shape = PlacementShape::new(gpus, nodes).unwrap();
            let a = report.params.t_iter(shape, m);
            let b = p.t_iter(shape, m);
            assert!(
                (a - b).abs() / b < 0.15,
                "held-out ({gpus},{nodes},{m}): fit {a} vs truth {b}"
            );
        }
    }

    #[test]
    fn fit_is_robust_to_noise() {
        let obs = synth_observations(0.10, 4);
        let report = fit_throughput_params(&obs, FitPriors::from_observations(&obs)).unwrap();
        let p = truth();
        let shape = PlacementShape::new(8, 2).unwrap();
        let a = report.params.throughput(shape, 1024);
        let b = p.throughput(shape, 1024);
        assert!((a - b).abs() / b < 0.2, "fit {a} vs truth {b}");
    }

    #[test]
    fn fit_with_single_gpu_data_predicts_perfect_scaling() {
        // Only single-GPU observations: priors pin all sync params to 0,
        // so predicted throughput scales ~linearly with GPUs (the
        // optimistic prior that drives exploration).
        let p = truth();
        let obs: Vec<FitObservation> = [128u64, 256, 512]
            .iter()
            .map(|&m| FitObservation {
                shape: PlacementShape::single(),
                batch_size: m,
                t_iter: p.t_iter(PlacementShape::single(), m),
            })
            .collect();
        let report = fit_throughput_params(&obs, FitPriors::from_observations(&obs)).unwrap();
        assert_eq!(report.params.alpha_sync_local, 0.0);
        assert_eq!(report.params.alpha_sync_node, 0.0);
        let t1 = report.params.throughput(PlacementShape::single(), 512);
        let t8 = report
            .params
            .throughput(PlacementShape::new(8, 2).unwrap(), 4096);
        // With 8 GPUs and 8x the batch, predicted throughput is ~8x:
        // T_iter is unchanged (same local batch), m is 8x.
        assert!(t8 / t1 > 6.0, "scaling = {}", t8 / t1);
    }

    #[test]
    fn fit_rejects_empty_and_degenerate_input() {
        assert!(fit_throughput_params(&[], FitPriors::default()).is_none());
        let bad = [FitObservation {
            shape: PlacementShape::single(),
            batch_size: 128,
            t_iter: f64::NAN,
        }];
        assert!(fit_throughput_params(&bad, FitPriors::default()).is_none());
    }

    #[test]
    fn fit_params_always_satisfy_box() {
        let obs = synth_observations(0.3, 7);
        let report = fit_throughput_params(&obs, FitPriors::from_observations(&obs)).unwrap();
        assert!(report.params.is_valid());
    }

    #[test]
    fn warm_start_converges_and_skips_restarts() {
        // Cold fit once, then refit the slightly grown observation set
        // warm: the solve from the previous optimum converges below the
        // acceptance threshold.
        let obs = synth_observations(0.0, 8);
        let priors = FitPriors::from_observations(&obs);
        let cold = fit_throughput_params(&obs, priors).unwrap();
        assert!(!cold.used_warm_start);

        let mut grown = obs.clone();
        let p = truth();
        let shape = PlacementShape::new(6, 2).unwrap();
        grown.push(FitObservation {
            shape,
            batch_size: 768,
            t_iter: p.t_iter(shape, 768),
        });
        let warm = fit_throughput_params_warm(
            &grown,
            FitPriors::from_observations(&grown),
            Some(&cold.params),
        )
        .unwrap();
        assert!(warm.used_warm_start, "rmsle = {}", warm.rmsle);
        assert!(warm.rmsle <= WARM_ACCEPT_RMSLE);
        assert!(warm.params.is_valid());
        // The warm fit predicts as well as the cold one on held-out
        // configurations.
        for (gpus, nodes, m) in [(3u32, 1u32, 384u64), (12, 3, 1536)] {
            let s = PlacementShape::new(gpus, nodes).unwrap();
            let a = warm.params.t_iter(s, m);
            let b = p.t_iter(s, m);
            assert!((a - b).abs() / b < 0.15, "held-out: warm {a} vs truth {b}");
        }
    }

    #[test]
    fn warm_none_matches_cold_fit_exactly() {
        let obs = synth_observations(0.05, 9);
        let priors = FitPriors::from_observations(&obs);
        let cold = fit_throughput_params(&obs, priors).unwrap();
        let warm = fit_throughput_params_warm(&obs, priors, None).unwrap();
        assert_eq!(cold, warm);
    }

    #[test]
    fn counted_fit_is_the_same_fit_and_sums_its_solves() {
        let obs = synth_observations(0.05, 11);
        let priors = FitPriors::from_observations(&obs);
        let (cold, cold_work) = fit_throughput_params_counted(&obs, priors, None).unwrap();
        assert_eq!(cold, fit_throughput_params(&obs, priors).unwrap());
        // Four seeds, each at least one evaluation and one iteration,
        // and no iteration without an evaluation.
        assert!(cold_work.iters >= 4, "{cold_work:?}");
        assert!(cold_work.evals >= cold_work.iters, "{cold_work:?}");
        // An accepted warm start is one solve from the optimum.
        let (warm, warm_work) =
            fit_throughput_params_counted(&obs, priors, Some(&cold.params)).unwrap();
        assert!(warm.used_warm_start);
        assert!(warm_work.evals >= 1 && warm_work.evals < cold_work.evals);
    }

    #[test]
    fn bad_warm_start_falls_back_to_multi_start() {
        // Absurd warm parameters: the warm solve cannot reach the
        // acceptance threshold from there... but the multi-start must
        // still rescue the fit, no worse than cold.
        let obs = synth_observations(0.0, 10);
        let priors = FitPriors::from_observations(&obs);
        let junk = ThroughputParams::new(500.0, 50.0, 400.0, 90.0, 300.0, 80.0, 10.0).unwrap();
        let warm = fit_throughput_params_warm(&obs, priors, Some(&junk)).unwrap();
        let cold = fit_throughput_params(&obs, priors).unwrap();
        assert!(
            warm.rmsle <= cold.rmsle + 1e-9,
            "warm {} vs cold {}",
            warm.rmsle,
            cold.rmsle
        );
        assert!(warm.params.is_valid());
    }

    #[test]
    fn warm_start_respects_prior_masks() {
        // Warm params with non-zero sync costs, but priors that pin all
        // sync parameters: the warm path must not leak them through.
        let p = truth();
        let obs: Vec<FitObservation> = [128u64, 256, 512]
            .iter()
            .map(|&m| FitObservation {
                shape: PlacementShape::single(),
                batch_size: m,
                t_iter: p.t_iter(PlacementShape::single(), m),
            })
            .collect();
        let report =
            fit_throughput_params_warm(&obs, FitPriors::from_observations(&obs), Some(&p)).unwrap();
        assert_eq!(report.params.alpha_sync_local, 0.0);
        assert_eq!(report.params.alpha_sync_node, 0.0);
        assert_eq!(report.params.beta_sync_local, 0.0);
        assert_eq!(report.params.beta_sync_node, 0.0);
    }

    /// The four masks the priors can produce: all sync parameters
    /// pinned; `α_sync^local` free; both `α_sync` free; everything free.
    const MASK_PRIORS: [(u32, u32); 4] = [(1, 1), (2, 1), (2, 2), (4, 2)];

    /// Shapes for the gradient check: one GPU (`T_sync = 0`), two GPUs
    /// (`K − 2 = 0`), and local and multi-node shapes beyond two.
    const GRADIENT_SHAPES: [(u32, u32); 6] = [(1, 1), (2, 1), (2, 2), (4, 1), (8, 2), (16, 4)];

    #[test]
    fn gradient_at_a_zero_sync_time_is_the_one_sided_derivative() {
        // A free α_sync at its bound 0 on a two-GPU row: the box only
        // admits steps up, where T = (T_grad^γ + α_sync^γ)^{1/γ} has
        // slope 1 at γ = 1 and slope 0 above it.
        let shape = PlacementShape::new(2, 1).unwrap();
        let obs = [FitObservation {
            shape,
            batch_size: 256,
            t_iter: 0.4,
        }];
        let objective = Objective::new(&obs, FitPriors::from_observations(&obs)).unwrap();
        assert_eq!(objective.free_idx, [0, 1, 2, GAMMA]);
        for gamma in [1.0, 2.0] {
            let x = [0.1, 0.1, 0.0, gamma];
            let mut grad = [0.0; 4];
            let fx = objective.msle_and_grad(&x, &mut grad);
            let h = 1e-7;
            let mut scratch = [0.0; 4];
            let forward = (objective.msle_and_grad(&[0.1, 0.1, h, gamma], &mut scratch) - fx) / h;
            assert!(
                (grad[2] - forward).abs() < 1e-6,
                "γ = {gamma}: analytic {} vs forward {forward}",
                grad[2]
            );
            assert_eq!(grad[2] == 0.0, gamma > 1.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The analytic gradient against the central-difference oracle,
        /// in the solver's variables. Free α/β are drawn away from 0 so
        /// that the oracle's probes stay where the objective is smooth
        /// (at an α_sync of exactly 0 only the one-sided derivative
        /// exists, which is the one the solver needs and the analytic
        /// gradient returns).
        #[test]
        fn analytic_gradient_matches_central_differences(
            rows in proptest::collection::vec((0usize..6, 16u64..8192, 0.01f64..5.0), 1..10),
            mask in 0usize..4,
            alphas in proptest::collection::vec(0.02f64..0.6, 3),
            betas in proptest::collection::vec(0.01f64..0.4, 3),
            // γ at 1, at 10, inside, or pinned by the ablation's
            // degenerate range (g, g).
            gamma_case in 0usize..4,
            gamma_inside in 1.0f64..10.0,
            equalise in 0usize..3,
        ) {
            let obs: Vec<FitObservation> = rows
                .iter()
                .map(|&(shape, batch_size, t_iter)| {
                    let (gpus, nodes) = GRADIENT_SHAPES[shape];
                    FitObservation {
                        shape: PlacementShape::new(gpus, nodes).unwrap(),
                        batch_size,
                        t_iter,
                    }
                })
                .collect();
            let (max_gpus_seen, max_nodes_seen) = MASK_PRIORS[mask];
            let priors = FitPriors { max_gpus_seen, max_nodes_seen };
            let objective = Objective::new(&obs, priors).unwrap();
            let full = (1.0, ThroughputParams::GAMMA_MAX);
            let (gamma, gamma_range) = match gamma_case {
                0 => (full.0, full),
                1 => (full.1, full),
                2 => (gamma_inside, full),
                // Projected onto the degenerate range below.
                _ => (5.5, (gamma_inside, gamma_inside)),
            };
            let mut theta = [
                alphas[0], betas[0], alphas[1], betas[1], alphas[2], betas[2], gamma,
            ];
            // Every third case: make T_grad = T_sync on a multi-GPU row
            // whose α_sync is free (r = 1, where hi and lo swap roles).
            if equalise == 0 {
                if let Some((row, a)) = objective
                    .rows
                    .iter()
                    .find_map(|r| r.sync.filter(|a| objective.free_idx.contains(a)).map(|a| (r, a)))
                {
                    let beta_sync = if objective.free_idx.contains(&(a + 1)) { theta[a + 1] } else { 0.0 };
                    theta[a] = theta[0] + theta[1] * row.local_batch - beta_sync * row.extra_gpus;
                }
            }
            let mut x: Vec<f64> = objective.free_idx.iter().map(|&i| theta[i]).collect();
            objective.bounds(gamma_range).project(&mut x);
            if x.iter().take(x.len() - 1).any(|&v| v < 0.01) {
                continue; // Equalising pushed an α_sync to the boundary.
            }

            let mut analytic = vec![0.0; x.len()];
            let value = objective.msle_and_grad(&x, &mut analytic);
            let mut scratch = vec![0.0; x.len()];
            let mut value_only = |p: &[f64]| objective.msle_and_grad(p, &mut scratch);
            prop_assert_eq!(value.to_bits(), value_only(&x).to_bits());
            let numeric = central_gradient(&mut value_only, &x, 1e-6);
            for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
                prop_assert!(
                    (a - n).abs() <= 1e-9 + 1e-5 * a.abs().max(n.abs()),
                    "coordinate {} (θ index {}): analytic {a} vs numeric {n} at {x:?}, {obs:?}",
                    i, objective.free_idx[i]
                );
            }
        }
    }

    /// Central-difference gradient of `f` at `x`: the independent oracle
    /// the analytic θsys gradient is checked against.
    ///
    /// The step for each coordinate is `eps * max(1, |x[i]|)`, a standard
    /// relative step that behaves well for both tiny and large parameter
    /// magnitudes.
    fn central_gradient<F>(f: &mut F, x: &[f64], eps: f64) -> Vec<f64>
    where
        F: FnMut(&[f64]) -> f64,
    {
        let mut grad = vec![0.0; x.len()];
        let mut xp = x.to_vec();
        for i in 0..x.len() {
            let h = eps * x[i].abs().max(1.0);
            let orig = xp[i];
            xp[i] = orig + h;
            let fp = f(&xp);
            xp[i] = orig - h;
            let fm = f(&xp);
            xp[i] = orig;
            grad[i] = (fp - fm) / (2.0 * h);
        }
        grad
    }

    #[test]
    fn gradient_of_quadratic() {
        // f(x) = sum x_i^2, grad = 2x.
        let mut f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let x = [1.0, -2.0, 3.5];
        let g = central_gradient(&mut f, &x, 1e-6);
        for (gi, xi) in g.iter().zip(&x) {
            assert!((gi - 2.0 * xi).abs() < 1e-6, "{gi} vs {}", 2.0 * xi);
        }
    }

    #[test]
    fn gradient_of_exp_cross_terms() {
        // f(x, y) = exp(x) * y; df/dx = exp(x) y, df/dy = exp(x).
        let mut f = |x: &[f64]| x[0].exp() * x[1];
        let g = central_gradient(&mut f, &[0.5, 2.0], 1e-6);
        assert!((g[0] - 0.5f64.exp() * 2.0).abs() < 1e-5);
        assert!((g[1] - 0.5f64.exp()).abs() < 1e-5);
    }

    proptest! {
        #[test]
        fn linear_functions_have_exact_gradients(
            coeffs in proptest::collection::vec(-10.0f64..10.0, 1..6),
            point in proptest::collection::vec(-10.0f64..10.0, 1..6),
        ) {
            let dim = coeffs.len().min(point.len());
            let c = coeffs[..dim].to_vec();
            let x = point[..dim].to_vec();
            let mut f = |v: &[f64]| v.iter().zip(&c).map(|(a, b)| a * b).sum::<f64>();
            let g = central_gradient(&mut f, &x, 1e-6);
            for (gi, ci) in g.iter().zip(&c) {
                prop_assert!((gi - ci).abs() < 1e-6);
            }
        }
    }
}
