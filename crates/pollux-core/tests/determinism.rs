//! Determinism regression tests for parallel fitness evaluation.
//!
//! The parallel GA's contract is that results are a pure function of
//! the seed — never of the worker-thread count. These tests pin that
//! contract at two levels:
//!
//! - `PolluxSched::optimize` must return a byte-identical
//!   `AllocationMatrix` (and population) at 1 vs. N threads;
//! - a full `Simulation::run` must produce an identical `SimResult`
//!   (compared through its serialized form, which covers every f64 bit
//!   pattern) when only `GaConfig::threads` changes.

use pollux_cluster::{ClusterSpec, JobId};
use pollux_core::{ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_models::{
    BatchSizeLimits, EfficiencyModel, GoodputModel, PlacementShape, ThroughputParams,
};
use pollux_sched::{GaConfig, PolluxSched, SchedConfig, SchedJob};
use pollux_simulator::SimConfig;
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn goodput_model(phi: f64) -> GoodputModel {
    let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
    let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
    let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
    GoodputModel::new(tp, eff, limits).unwrap()
}

fn sched_jobs(n: u32, nodes: usize) -> Vec<SchedJob> {
    (0..n)
        .map(|i| {
            let mut current = vec![0u32; nodes];
            // A few jobs start "running" so the restart penalty and the
            // retained-placement seeding paths are both exercised.
            if i % 3 == 0 {
                current[i as usize % nodes] = 2;
            }
            SchedJob {
                id: JobId(i),
                model: goodput_model(600.0 + 250.0 * i as f64),
                min_gpus: 1,
                gpu_cap: 32,
                weight: 1.0 + (i % 4) as f64 * 0.3,
                current_placement: current,
            }
        })
        .collect()
}

fn sched_with_threads(threads: usize) -> PolluxSched {
    let config = SchedConfig {
        ga: GaConfig {
            population: 24,
            generations: 10,
            threads,
            ..Default::default()
        },
        ..Default::default()
    };
    PolluxSched::new(config)
}

#[test]
fn optimize_is_identical_across_thread_counts() {
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let jobs = sched_jobs(12, 8);

    let mut reference = None;
    for threads in [1usize, 2, 4, 8] {
        let mut sched = sched_with_threads(threads);
        let mut rng = StdRng::seed_from_u64(41);
        let outcome = sched.optimize(&jobs, &spec, &mut rng);
        match &reference {
            None => reference = Some(outcome),
            Some(base) => {
                assert_eq!(
                    base.best, outcome.best,
                    "best allocation differs at {threads} threads"
                );
                assert_eq!(
                    base.best_fitness.to_bits(),
                    outcome.best_fitness.to_bits(),
                    "fitness bits differ at {threads} threads"
                );
                assert_eq!(
                    base.population, outcome.population,
                    "population differs at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn optimize_is_repeatable_for_a_fixed_seed() {
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let jobs = sched_jobs(12, 8);
    let run = |threads| {
        let mut sched = sched_with_threads(threads);
        let mut rng = StdRng::seed_from_u64(99);
        sched.optimize(&jobs, &spec, &mut rng).best
    };
    assert_eq!(run(4), run(4), "same seed, same threads must repeat");
    assert_eq!(run(1), run(4), "serial and parallel must agree");
}

fn tiny_trace() -> Vec<JobSpec> {
    TraceGenerator::new(TraceConfig {
        num_jobs: 6,
        duration_hours: 0.5,
        seed: 11,
        ..Default::default()
    })
    .unwrap()
    .generate()
    .into_iter()
    .filter(|j| {
        matches!(
            j.kind,
            ModelKind::ResNet18Cifar10 | ModelKind::NeuMFMovieLens
        )
    })
    .collect()
}

fn run_sim(ga_threads: usize) -> String {
    let mut c = PolluxConfig::default();
    c.sched.ga = GaConfig {
        population: 16,
        generations: 8,
        threads: ga_threads,
        ..Default::default()
    };
    let policy = PolluxPolicy::new(c).unwrap();
    let trace = tiny_trace();
    assert!(!trace.is_empty());
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let sim = SimConfig {
        max_sim_time: 10.0 * 3600.0,
        ..Default::default()
    };
    let result = pollux_core::run_trace(policy, &trace, ConfigChoice::Tuned, spec, sim).unwrap();
    serde_json::to_string(&result).expect("SimResult serializes")
}

/// A live telemetry recorder must not change a single byte of the
/// serialized full-stack result: same trace, same seed, with and
/// without a `MemorySink`-backed recorder attached through
/// `run_trace_recorded`. Recorder state (wall-clock spans, counters)
/// never touches the simulation's RNG or float accumulation order.
#[test]
fn simulation_result_is_identical_with_telemetry_enabled() {
    use std::sync::Arc;
    let run = |recorded: bool| -> String {
        let mut c = PolluxConfig::default();
        c.sched.ga = GaConfig {
            population: 16,
            generations: 8,
            ..Default::default()
        };
        let policy = PolluxPolicy::new(c).unwrap();
        let trace = tiny_trace();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let sim = SimConfig {
            max_sim_time: 10.0 * 3600.0,
            ..Default::default()
        };
        let result = if recorded {
            let sink = Arc::new(pollux_telemetry::MemorySink::new(1 << 16));
            let recorder = pollux_telemetry::Recorder::new(sink.clone());
            let res = pollux_core::run_trace_recorded(
                policy,
                &trace,
                ConfigChoice::Tuned,
                spec,
                sim,
                recorder,
            )
            .unwrap();
            assert!(!sink.is_empty(), "recorder attached but nothing captured");
            res
        } else {
            pollux_core::run_trace(policy, &trace, ConfigChoice::Tuned, spec, sim).unwrap()
        };
        serde_json::to_string(&result).expect("SimResult serializes")
    };
    let plain = run(false);
    let recorded = run(true);
    if plain != recorded {
        let pos = plain
            .bytes()
            .zip(recorded.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(plain.len().min(recorded.len()));
        let lo = pos.saturating_sub(200);
        panic!(
            "SimResult bytes differ with telemetry enabled at byte {pos}:\nplain:    ...{}...\nrecorded: ...{}...",
            &plain[lo..(pos + 200).min(plain.len())],
            &recorded[lo..(pos + 200).min(recorded.len())]
        );
    }
}

#[test]
fn simulation_result_is_identical_across_ga_threads() {
    let serial = run_sim(1);
    let parallel = run_sim(4);
    if serial != parallel {
        let pos = serial
            .bytes()
            .zip(parallel.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(serial.len().min(parallel.len()));
        let lo = pos.saturating_sub(200);
        panic!(
            "SimResult bytes differ between GaConfig::threads 1 and 4 at byte {pos}:\nserial:   ...{}...\nparallel: ...{}...",
            &serial[lo..(pos + 200).min(serial.len())],
            &parallel[lo..(pos + 200).min(parallel.len())]
        );
    }
}

#[test]
fn macro_stepped_engine_matches_reference_with_pollux_policy() {
    // The engine-level determinism suite (pollux-simulator's
    // tests/macro_step.rs) covers synthetic policies; this pins the
    // same bit-identity contract under the real Pollux stack — GA
    // scheduling draws, batch-size adaptation, restarts, the works.
    use pollux_simulator::Simulation;
    let run = |reference: bool| {
        let mut c = PolluxConfig::default();
        c.sched.ga = GaConfig {
            population: 16,
            generations: 8,
            ..Default::default()
        };
        let policy = PolluxPolicy::new(c).unwrap();
        let trace = tiny_trace();
        let workload = trace.iter().map(|j| (j.clone(), j.tuned)).collect();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let sim = SimConfig {
            max_sim_time: 10.0 * 3600.0,
            interference_slowdown: 0.3,
            ..Default::default()
        };
        let sim = Simulation::new(sim, spec, policy, workload).unwrap();
        let result = if reference {
            sim.run_reference()
        } else {
            sim.run()
        };
        serde_json::to_string(&result).expect("SimResult serializes")
    };
    let macro_stepped = run(false);
    let reference = run(true);
    if macro_stepped != reference {
        let pos = macro_stepped
            .bytes()
            .zip(reference.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(macro_stepped.len().min(reference.len()));
        let lo = pos.saturating_sub(200);
        panic!(
            "SimResult bytes differ between run() and run_reference() at byte {pos}:\nmacro: ...{}...\nref:   ...{}...",
            &macro_stepped[lo..(pos + 200).min(macro_stepped.len())],
            &reference[lo..(pos + 200).min(reference.len())]
        );
    }
}

#[test]
fn incremental_fitness_matches_full_recompute_on_optimize() {
    // The GA carries per-job contribution vectors and recomputes only
    // touched rows; the winning chromosome's fitness must still equal a
    // from-scratch evaluation, bit for bit.
    use pollux_sched::{fitness, FitnessConfig, SpeedupTable};
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let jobs = sched_jobs(12, 8);
    let mut sched = sched_with_threads(2);
    let mut rng = StdRng::seed_from_u64(17);
    let outcome = sched.optimize(&jobs, &spec, &mut rng);
    assert!(outcome.stats.incremental_evals > 0, "{:?}", outcome.stats);
    let table = SpeedupTable::build(&jobs, &spec, 1);
    let full = fitness(&jobs, &outcome.best, &table, &FitnessConfig::default());
    assert_eq!(
        outcome.best_fitness.to_bits(),
        full.to_bits(),
        "incremental {} vs full {}",
        outcome.best_fitness,
        full
    );
}

#[test]
fn interval_stats_are_identical_across_thread_counts() {
    // Every deterministic counter in the per-interval breakdown (GA
    // evaluations, table lookups, solves) must be a pure function of
    // the seed — only the wall-clock nanos may differ.
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let jobs = sched_jobs(12, 8);
    let mut reference = None;
    for threads in [1usize, 2, 4] {
        let mut sched = sched_with_threads(threads);
        let mut rng = StdRng::seed_from_u64(23);
        let _ = sched.optimize(&jobs, &spec, &mut rng);
        let stats = sched.take_interval_stats().expect("interval recorded");
        match &reference {
            None => reference = Some(stats),
            Some(base) => {
                assert_eq!(base.ga, stats.ga, "GA counters differ at {threads} threads");
                assert_eq!(
                    base.speedup, stats.speedup,
                    "table counters differ at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn dense_table_matches_model_bitwise_at_any_thread_count() {
    use pollux_sched::SpeedupTable;
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let jobs = sched_jobs(6, 8);
    for threads in [1usize, 2, 4] {
        let table = SpeedupTable::build(&jobs, &spec, threads);
        for (j, job) in jobs.iter().enumerate() {
            for gpus in 1..=spec.total_gpus() {
                for nodes in [1u32, 2, 4] {
                    if nodes > gpus {
                        continue;
                    }
                    let shape = PlacementShape::new(gpus, nodes).unwrap();
                    let expect = if gpus < job.min_gpus || gpus > job.gpu_cap {
                        0.0
                    } else {
                        job.model
                            .speedup(PlacementShape::new(gpus, nodes.min(2)).unwrap())
                    };
                    assert_eq!(
                        table.speedup(j, shape).to_bits(),
                        expect.to_bits(),
                        "job {j} shape ({gpus},{nodes}) at {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn racked_optimize_is_identical_across_thread_counts() {
    // The per-rack phase-2 GAs run in parallel with one serial seed
    // draw per occupied rack; multi-round runs on one scheduler also
    // exercise the cross-interval carry (warm-start populations and
    // incremental tables), which must stay thread-count invariant.
    use pollux_cluster::Topology;
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let topo = Topology::grouped(8, 2).unwrap();

    let run = |threads: usize| {
        let mut sched = sched_with_threads(threads);
        sched.set_topology(Some(topo.clone()));
        let mut rng = StdRng::seed_from_u64(17);
        let mut outcomes = Vec::new();
        // Round 1 cold; rounds 2-3 warm (carry-over populated); the
        // job set churns between rounds to exercise the id remap.
        let mut jobs = sched_jobs(12, 8);
        outcomes.push(sched.optimize(&jobs, &spec, &mut rng));
        outcomes.push(sched.optimize(&jobs, &spec, &mut rng));
        jobs.remove(3);
        jobs.push(SchedJob {
            id: JobId(100),
            model: goodput_model(1234.0),
            min_gpus: 1,
            gpu_cap: 16,
            weight: 1.0,
            current_placement: vec![0; 8],
        });
        outcomes.push(sched.optimize(&jobs, &spec, &mut rng));
        outcomes
    };

    let reference = run(1);
    for threads in [2usize, 4] {
        let outcomes = run(threads);
        for (round, (base, got)) in reference.iter().zip(&outcomes).enumerate() {
            assert_eq!(
                base.best, got.best,
                "racked best differs at {threads} threads, round {round}"
            );
            assert_eq!(
                base.best_fitness.to_bits(),
                got.best_fitness.to_bits(),
                "racked fitness bits differ at {threads} threads, round {round}"
            );
            assert_eq!(
                base.population, got.population,
                "racked population differs at {threads} threads, round {round}"
            );
        }
    }
}

mod incremental_table_proptests {
    use super::*;
    use pollux_sched::SpeedupTable;
    use proptest::prelude::*;

    /// One step of a job-stream mutation: what the scheduler sees
    /// between consecutive intervals.
    #[derive(Debug, Clone)]
    enum Step {
        /// Refit job at (index % len): new model parameters.
        Mutate(usize, u8),
        /// New job arrives with the given cap.
        Arrive(u8),
        /// Job at (index % len) departs.
        Depart(usize),
        /// Placement/weight churn only (must not dirty any row).
        Touch(usize),
    }

    fn apply(jobs: &mut Vec<SchedJob>, next_id: &mut u32, step: &Step) {
        match step {
            Step::Mutate(i, phi) => {
                if !jobs.is_empty() {
                    let k = i % jobs.len();
                    jobs[k].model = goodput_model(300.0 + 57.0 * *phi as f64);
                }
            }
            Step::Arrive(cap) => {
                jobs.push(SchedJob {
                    id: JobId(*next_id),
                    model: goodput_model(500.0 + 11.0 * *next_id as f64),
                    min_gpus: 1,
                    gpu_cap: 2 + (*cap as u32 % 30),
                    weight: 1.0,
                    current_placement: vec![0; 8],
                });
                *next_id += 1;
            }
            Step::Depart(i) => {
                if !jobs.is_empty() {
                    let k = i % jobs.len();
                    jobs.remove(k);
                }
            }
            Step::Touch(i) => {
                if !jobs.is_empty() {
                    let k = i % jobs.len();
                    jobs[k].weight *= 0.9;
                    jobs[k].current_placement[k % 8] += 1;
                }
            }
        }
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        (0u8..4, 0usize..64, 0u8..32).prop_map(|(kind, i, p)| match kind {
            0 => Step::Mutate(i, p),
            1 => Step::Arrive(p),
            2 => Step::Depart(i),
            _ => Step::Touch(i),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Under any interleaving of refits, arrivals, departures, and
        /// placement churn, the incrementally-built table is
        /// bit-identical to a from-scratch build — values AND the
        /// (golden-digested) solve totals.
        #[test]
        fn incremental_table_is_bit_identical_to_fresh_under_churn(
            steps in proptest::collection::vec(step_strategy(), 1..12),
            threads in 1usize..4,
        ) {
            let spec = ClusterSpec::homogeneous(8, 4).unwrap();
            let mut jobs = sched_jobs(6, 8);
            let mut next_id = 100u32;
            let mut prev = SpeedupTable::build(&jobs, &spec, threads);
            for step in &steps {
                apply(&mut jobs, &mut next_id, step);
                let incr = SpeedupTable::build_reusing(
                    &jobs, &spec, threads, Some(&prev),
                );
                let fresh = SpeedupTable::build(&jobs, &spec, 1);
                prop_assert_eq!(incr.stats().solves, fresh.stats().solves);
                prop_assert_eq!(incr.num_jobs(), fresh.num_jobs());
                prop_assert_eq!(incr.max_gpus(), fresh.max_gpus());
                for j in 0..jobs.len() {
                    for gpus in 1..=fresh.max_gpus() {
                        for nodes in [1u32, 2] {
                            if nodes > gpus {
                                continue;
                            }
                            let shape = PlacementShape::new(gpus, nodes).unwrap();
                            prop_assert_eq!(
                                incr.speedup(j, shape).to_bits(),
                                fresh.speedup(j, shape).to_bits(),
                                "job {} shape ({},{})", j, gpus, nodes
                            );
                        }
                    }
                }
                prev = incr;
            }
        }
    }
}

#[test]
fn speedup_values_survive_shape_canonicalization_in_parallel() {
    // Same job queried through many equivalent shapes from many
    // threads must always observe the same canonical value.
    use pollux_sched::{parallel_map, SpeedupTable};
    let jobs = sched_jobs(4, 8);
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let table = SpeedupTable::build(&jobs, &spec, 4);
    let expect: Vec<f64> = (0..32)
        .map(|i| {
            let job = &jobs[i % jobs.len()];
            let shape = PlacementShape::new(1 + (i as u32 % 16), 1 + (i as u32 % 4)).unwrap();
            job.model
                .max_goodput(PlacementShape::new(shape.gpus, shape.nodes.min(2)).unwrap())
                / job.model.max_goodput(job.model.reference_shape())
        })
        .collect();
    let got = parallel_map(32, 4, |i| {
        let shape = PlacementShape::new(1 + (i as u32 % 16), 1 + (i as u32 % 4)).unwrap();
        table.speedup(i % jobs.len(), shape)
    });
    for (g, e) in got.iter().zip(&expect) {
        assert_eq!(g.to_bits(), e.to_bits());
    }
}
