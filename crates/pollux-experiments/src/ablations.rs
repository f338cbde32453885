//! Ablation studies of Pollux's design choices (beyond the paper's own
//! Table 3 / Fig 9 ablations):
//!
//! 1. **Overlap model (γ-norm)** — Sec. 3.2 interpolates between
//!    `T_grad + T_sync` (γ = 1) and `max(T_grad, T_sync)` (γ → ∞).
//!    How much fit accuracy does the learnable γ buy over either
//!    extreme?
//! 2. **Restart penalty** — Sec. 4.2.1 subtracts 0.25 from re-placed
//!    jobs' speedups. What happens to restarts and JCT at 0 / 0.25 /
//!    1.0?
//! 3. **Co-adaptation** — the same genetic allocator with the agents'
//!    batch-size tuning on and off.

use crate::cell::simulate;
use crate::common::{mean, recorder, render_table};
use pollux_cluster::ClusterSpec;
use pollux_core::{ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_models::{
    fit_throughput_params_constrained, FitObservation, FitPriors, PlacementShape, ThroughputParams,
};
use pollux_sched::{FitnessConfig, GaConfig};
use pollux_simulator::SimConfig;
use pollux_workload::{ModelKind, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of the overlap-model ablation.
#[derive(Debug, Clone)]
pub struct OverlapAblation {
    /// Held-out relative throughput error with learnable γ.
    pub gamma_free: f64,
    /// Error with γ pinned to 1 (no overlap).
    pub gamma_sum: f64,
    /// Error with γ pinned to 10 (≈ perfect overlap).
    pub gamma_max: f64,
}

/// Fits the three overlap variants against noisy data from a γ = 2.2
/// ground truth (the ResNet-50 profile) and evaluates held-out error.
pub fn overlap_ablation(seed: u64) -> OverlapAblation {
    let profile = ModelKind::ResNet50ImageNet.profile();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut obs = Vec::new();
    for (gpus, nodes) in [(1u32, 1u32), (2, 1), (4, 1), (4, 2), (8, 2), (16, 4)] {
        let shape = PlacementShape::new(gpus, nodes).expect("static");
        for mult in [1u64, 2, 4, 8] {
            let m = profile.m0 * mult;
            if profile
                .limits
                .range(shape)
                .is_some_and(|(lo, hi)| m >= lo && m <= hi)
            {
                let eps: f64 = rng.gen_range(-0.05..=0.05);
                obs.push(FitObservation {
                    shape,
                    batch_size: m,
                    t_iter: profile.params.t_iter(shape, m) * (1.0 + eps),
                });
            }
        }
    }
    let priors = FitPriors::from_observations(&obs);

    // Held-out configurations (not in the training grid).
    let held_out: Vec<(PlacementShape, u64)> = [(3u32, 1u32, 3u64), (6, 2, 6), (12, 3, 12)]
        .iter()
        .map(|&(g, n, mult)| {
            (
                PlacementShape::new(g, n).expect("static"),
                profile.m0 * mult,
            )
        })
        .collect();
    let error = |params: &ThroughputParams| -> f64 {
        let errs: Vec<f64> = held_out
            .iter()
            .map(|&(shape, m)| {
                let truth = profile.params.throughput(shape, m);
                let pred = params.throughput(shape, m);
                (pred - truth).abs() / truth
            })
            .collect();
        mean(&errs).unwrap_or(f64::INFINITY)
    };

    let fit = |range: (f64, f64)| -> f64 {
        fit_throughput_params_constrained(&obs, priors, range)
            .map(|r| error(&r.params))
            .unwrap_or(f64::INFINITY)
    };
    OverlapAblation {
        gamma_free: fit((1.0, 10.0)),
        gamma_sum: fit((1.0, 1.0)),
        gamma_max: fit((10.0, 10.0)),
    }
}

/// One restart-penalty ablation row.
#[derive(Debug, Clone, Copy)]
pub struct RestartPenaltyPoint {
    /// The penalty value.
    pub penalty: f64,
    /// Average JCT (hours).
    pub avg_jct_hours: f64,
    /// Total checkpoint-restarts across all jobs.
    pub total_restarts: u32,
}

/// Runs Pollux on a small workload with different restart penalties.
pub fn restart_penalty_ablation(seed: u64) -> Vec<RestartPenaltyPoint> {
    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 40,
        duration_hours: 2.0,
        seed,
        ..Default::default()
    })
    .expect("static config")
    .generate();
    let spec = ClusterSpec::homogeneous(8, 4).expect("static");
    [0.0, 0.25, 1.0]
        .iter()
        .map(|&penalty| {
            let mut cfg = PolluxConfig::default();
            cfg.sched.ga = GaConfig {
                population: 32,
                generations: 15,
                fitness: FitnessConfig {
                    restart_penalty: penalty,
                },
                ..Default::default()
            };
            let policy = PolluxPolicy::new(cfg).expect("valid config");
            let sim = SimConfig {
                max_sim_time: 48.0 * 3600.0,
                seed,
                ..Default::default()
            };
            let res = simulate(
                policy,
                &trace,
                ConfigChoice::Tuned,
                spec.clone(),
                sim,
                recorder(),
            )
            .expect("valid inputs");
            RestartPenaltyPoint {
                penalty,
                avg_jct_hours: res.avg_jct().unwrap_or(f64::NAN) / 3600.0,
                total_restarts: res.records.iter().map(|r| r.num_restarts).sum(),
            }
        })
        .collect()
}

/// Result of the co-adaptation ablation.
#[derive(Debug, Clone, Copy)]
pub struct CoAdaptationAblation {
    /// Avg JCT with full co-adaptation (hours).
    pub pollux_jct_hours: f64,
    /// Avg JCT with the GA allocator but *fixed* user batch sizes.
    pub fixed_batch_jct_hours: f64,
    /// Cluster statistical efficiency, full Pollux.
    pub pollux_efficiency: f64,
    /// Cluster statistical efficiency, fixed batches.
    pub fixed_batch_efficiency: f64,
}

/// Isolates the value of batch-size co-adaptation: the same genetic
/// allocator with agents' batch tuning disabled (jobs keep their tuned
/// user batch sizes). The gap between the two rows is the part of
/// Pollux's win that *only* co-adaptation delivers.
pub fn coadaptation_ablation(seed: u64) -> CoAdaptationAblation {
    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 60,
        duration_hours: 3.0,
        seed,
        ..Default::default()
    })
    .expect("static config")
    .generate();
    let spec = ClusterSpec::homogeneous(8, 4).expect("static");
    let run_variant = |adapt: bool| {
        let mut cfg = PolluxConfig::default();
        cfg.sched.ga = GaConfig {
            population: 32,
            generations: 15,
            ..Default::default()
        };
        cfg.adapt_batch_size = adapt;
        let policy = PolluxPolicy::new(cfg).expect("valid config");
        let sim = SimConfig {
            max_sim_time: 72.0 * 3600.0,
            seed,
            ..Default::default()
        };
        simulate(
            policy,
            &trace,
            ConfigChoice::Tuned,
            spec.clone(),
            sim,
            recorder(),
        )
        .expect("valid inputs")
    };
    let full = run_variant(true);
    let fixed = run_variant(false);
    CoAdaptationAblation {
        pollux_jct_hours: full.avg_jct().unwrap_or(f64::NAN) / 3600.0,
        fixed_batch_jct_hours: fixed.avg_jct().unwrap_or(f64::NAN) / 3600.0,
        pollux_efficiency: full.avg_cluster_efficiency().unwrap_or(0.0),
        fixed_batch_efficiency: fixed.avg_cluster_efficiency().unwrap_or(0.0),
    }
}

/// Combined ablation report.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// γ-norm overlap-model ablation.
    pub overlap: OverlapAblation,
    /// Restart-penalty sweep.
    pub restart: Vec<RestartPenaltyPoint>,
    /// Co-adaptation (batch tuning) on/off.
    pub coadaptation: CoAdaptationAblation,
}

/// Runs all three ablations.
pub fn run(seed: u64) -> AblationResult {
    AblationResult {
        overlap: overlap_ablation(seed),
        restart: restart_penalty_ablation(seed),
        coadaptation: coadaptation_ablation(seed),
    }
}

impl std::fmt::Display for AblationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation 1: overlap model — held-out relative throughput error"
        )?;
        let rows = vec![
            vec![
                "γ learnable (Eqn 11)".into(),
                format!("{:.1}%", self.overlap.gamma_free * 100.0),
            ],
            vec![
                "γ = 1 (sum)".into(),
                format!("{:.1}%", self.overlap.gamma_sum * 100.0),
            ],
            vec![
                "γ = 10 (≈max)".into(),
                format!("{:.1}%", self.overlap.gamma_max * 100.0),
            ],
        ];
        write!(f, "{}", render_table(&["overlap model", "error"], &rows))?;

        writeln!(
            f,
            "\nAblation 2: restart penalty (Pollux, 40 jobs, 8x4 GPUs)"
        )?;
        let rows: Vec<Vec<String>> = self
            .restart
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.penalty),
                    format!("{:.2}", p.avg_jct_hours),
                    p.total_restarts.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["penalty", "avg JCT (h)", "restarts"], &rows)
        )?;

        writeln!(
            f,
            "\nAblation 3: co-adaptation (batch tuning) on vs off, same GA allocator"
        )?;
        let rows = vec![
            vec![
                "pollux (co-adaptive)".into(),
                format!("{:.2}", self.coadaptation.pollux_jct_hours),
                format!("{:.1}%", self.coadaptation.pollux_efficiency * 100.0),
            ],
            vec![
                "pollux-fixed-batch".into(),
                format!("{:.2}", self.coadaptation.fixed_batch_jct_hours),
                format!("{:.1}%", self.coadaptation.fixed_batch_efficiency * 100.0),
            ],
        ];
        write!(
            f,
            "{}",
            render_table(&["variant", "avg JCT (h)", "stat. eff."], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learnable_gamma_beats_pinned_extremes() {
        let a = overlap_ablation(3);
        assert!(a.gamma_free < a.gamma_sum, "{a:?}");
        assert!(a.gamma_free < a.gamma_max, "{a:?}");
        assert!(a.gamma_free < 0.1, "free-γ error too large: {a:?}");
    }

    #[test]
    #[ignore = "runs three full simulations; run by `cargo test --release -q -- --include-ignored`"]
    fn restart_penalty_reduces_restarts() {
        let pts = restart_penalty_ablation(2);
        assert_eq!(pts.len(), 3);
        // More penalty, fewer restarts.
        assert!(pts[0].total_restarts >= pts[1].total_restarts);
        assert!(pts[1].total_restarts >= pts[2].total_restarts);
    }
}
