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
//! 3. **Genetic algorithm vs random search** — the GA's operators vs
//!    an equal-budget random sampler on the same allocation problem.

use crate::cell::simulate;
use crate::common::{mean, recorder, render_table};
use pollux_cluster::{ClusterSpec, JobId};
use pollux_core::{ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_models::{
    fit_throughput_params_constrained, EfficiencyModel, FitObservation, FitPriors, GoodputModel,
    PlacementShape, ThroughputParams,
};
use pollux_sched::{fitness, FitnessConfig, GaConfig, GeneticAlgorithm, SchedJob, SpeedupTable};
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

/// Result of the allocation-search ablation.
#[derive(Debug, Clone, Copy)]
pub struct SearchAblation {
    /// Best fitness found by the genetic algorithm.
    pub ga_fitness: f64,
    /// Best fitness from equal-budget greedy hill climbing.
    pub local_search_fitness: f64,
    /// Best fitness from equal-budget uniform random sampling.
    pub random_fitness: f64,
}

fn ablation_jobs(n: u32) -> Vec<SchedJob> {
    let kinds = [
        ModelKind::ResNet18Cifar10,
        ModelKind::NeuMFMovieLens,
        ModelKind::DeepSpeech2Arctic,
        ModelKind::Yolov3Voc,
    ];
    (0..n)
        .map(|i| {
            let profile = kinds[i as usize % kinds.len()].profile();
            let phi = profile.phi_at(0.3 + 0.1 * (i % 5) as f64);
            let eff = EfficiencyModel::from_noise_scale(profile.m0, phi).expect("phi > 0");
            SchedJob {
                id: JobId(i),
                model: GoodputModel::new(profile.params, eff, profile.limits)
                    .expect("m0 == limits.min"),
                min_gpus: 1,
                gpu_cap: 16,
                weight: 1.0,
                current_placement: vec![],
            }
        })
        .collect()
}

/// Compares the GA against random search with the same number of
/// fitness evaluations.
pub fn search_ablation(seed: u64) -> SearchAblation {
    let jobs = ablation_jobs(24);
    let spec = ClusterSpec::homogeneous(16, 4).expect("static");
    let ga_cfg = GaConfig {
        population: 40,
        generations: 20,
        early_stop_gens: 0,
        ..Default::default()
    };
    // GA budget: initial pop + gens × (2 × pop) evaluations.
    let budget = ga_cfg.population + ga_cfg.generations * 2 * ga_cfg.population;

    let ga = GeneticAlgorithm::new(ga_cfg);
    // One dense table shared by all three search arms: every arm pays
    // the same (zero) per-lookup cost, so the comparison isolates the
    // search strategies themselves.
    let table = SpeedupTable::build(&jobs, &spec, 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let (out, _) = ga.evolve(&jobs, &spec, vec![], &table, &mut rng);

    // Local search: same evaluation budget, first-improvement moves.
    let ls = pollux_sched::LocalSearch::new(pollux_sched::LocalSearchConfig {
        iterations: budget / 2,
        restarts: 2,
        ..Default::default()
    });
    let mut rng_ls = StdRng::seed_from_u64(seed ^ 0x5151);
    let (_, local_search_fitness) = ls.optimize(&jobs, &spec, &table, &mut rng_ls);

    // Random search: sample, repair, evaluate.
    let mut best_random = f64::NEG_INFINITY;
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xABCD);
    let fitness_cfg = FitnessConfig::default();
    let mut ws = pollux_sched::GaWorkspace::default();
    let avoid = ga_cfg.interference_avoidance;
    for _ in 0..budget {
        let mut m = pollux_cluster::AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
        for j in 0..jobs.len() {
            for n in 0..spec.num_nodes() {
                m.set(j, n, rng2.gen_range(0..=4));
            }
        }
        pollux_sched::repair_matrix(&mut m, &jobs, &spec, avoid, &mut rng2, &mut ws);
        let f = fitness(&jobs, &m, &table, &fitness_cfg);
        if f > best_random {
            best_random = f;
        }
    }

    SearchAblation {
        ga_fitness: out.best_fitness,
        local_search_fitness,
        random_fitness: best_random,
    }
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
    /// GA vs random search.
    pub search: SearchAblation,
    /// Co-adaptation (batch tuning) on/off.
    pub coadaptation: CoAdaptationAblation,
}

/// Runs all four ablations.
pub fn run(seed: u64) -> AblationResult {
    AblationResult {
        overlap: overlap_ablation(seed),
        restart: restart_penalty_ablation(seed),
        search: search_ablation(seed),
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
            "\nAblation 3: allocation search, equal budgets (24 jobs, 64 GPUs)"
        )?;
        let rows = vec![
            vec![
                "genetic algorithm".into(),
                format!("{:.3}", self.search.ga_fitness),
            ],
            vec![
                "hill climbing".into(),
                format!("{:.3}", self.search.local_search_fitness),
            ],
            vec![
                "random search".into(),
                format!("{:.3}", self.search.random_fitness),
            ],
        ];
        write!(f, "{}", render_table(&["search", "best fitness"], &rows))?;

        writeln!(
            f,
            "\nAblation 4: co-adaptation (batch tuning) on vs off, same GA allocator"
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
    fn ga_beats_random_search() {
        let s = search_ablation(1);
        assert!(
            s.ga_fitness > s.random_fitness,
            "GA {} vs random {}",
            s.ga_fitness,
            s.random_fitness
        );
        // Hill climbing also beats blind sampling.
        assert!(
            s.local_search_fitness > s.random_fitness,
            "local {} vs random {}",
            s.local_search_fitness,
            s.random_fitness
        );
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
