//! Determinism regression tests: results are a pure function of the
//! seed — never of how many workers the host offers.
//!
//! A racked round fans its per-rack searches and phase 1's placement
//! scan out over the host's cores (`PolluxSched::set_threads` caps
//! them), so that is where these tests vary the worker count:
//!
//! - `PolluxSched::optimize` on a racked cluster must return the same
//!   `best`, fitness bits and `GaOutcome::stats`, and record the same
//!   table and rack counters, round after round, and leave the master
//!   RNG in the same state, at 1 / 2 / 3 / 8 workers and at the host's
//!   own default;
//! - `assign_racks` must equal itself across worker counts;
//! - a full racked `Simulation::run` must produce an identical
//!   `SimResult` (compared through its serialized form, which covers
//!   every f64 bit pattern) when only
//!   `SchedulingPolicy::configure_parallelism` changes.
//!
//! The flat round builds each generation on one or two threads;
//! `pollux-sched`'s `a_flat_round_is_the_same_on_one_thread_and_two`
//! pins that, saved population included. What is pinned for it here is
//! that telemetry, the macro-stepped engine and the incremental tables
//! leave its bits alone.

use pollux_cluster::{ClusterSpec, JobId};
use pollux_core::{ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_models::{
    BatchSizeLimits, EfficiencyModel, GoodputModel, PlacementShape, ThroughputParams,
};
use pollux_sched::{GaConfig, PolluxSched, SchedConfig, SchedJob};
use pollux_simulator::{SchedulingPolicy, SimConfig};
use pollux_telemetry::{MemorySink, Recorder};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

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

fn sched() -> PolluxSched {
    let config = SchedConfig {
        ga: GaConfig {
            population: 24,
            generations: 10,
            ..Default::default()
        },
        ..Default::default()
    };
    PolluxSched::new(config)
}

#[test]
fn optimize_is_repeatable_for_a_fixed_seed() {
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let jobs = sched_jobs(12, 8);
    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        sched().optimize(&jobs, &spec, &mut rng).best
    };
    assert_eq!(run(), run(), "same seed must repeat");
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

/// The tiny trace on two racks of two nodes, the policy capped at
/// `workers`.
fn run_racked_sim(workers: usize) -> String {
    let mut c = PolluxConfig::default();
    c.sched.ga = GaConfig {
        population: 16,
        generations: 8,
        ..Default::default()
    };
    let mut policy = PolluxPolicy::new(c).unwrap();
    policy.configure_parallelism(workers);
    let trace = tiny_trace();
    assert!(!trace.is_empty());
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let sim = SimConfig {
        max_sim_time: 10.0 * 3600.0,
        nodes_per_rack: 2,
        ..Default::default()
    };
    let result = pollux_core::run_trace(policy, &trace, ConfigChoice::Tuned, spec, sim).unwrap();
    result.canonical_text()
}

/// A live telemetry recorder must not change a single byte of the
/// serialized full-stack result: same trace, same seed, with and
/// without a `MemorySink`-backed recorder attached through
/// `run_trace_recorded`. Recorder state (wall-clock spans, counters)
/// never touches the simulation's RNG or float accumulation order.
#[test]
fn simulation_result_is_identical_with_telemetry_enabled() {
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
            let sink = Arc::new(MemorySink::new(1 << 16));
            let recorder = Recorder::new(sink.clone());
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
        result.canonical_text()
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
fn racked_simulation_result_is_identical_across_worker_counts() {
    let serial = run_racked_sim(1);
    let parallel = run_racked_sim(4);
    if serial != parallel {
        let pos = serial
            .bytes()
            .zip(parallel.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(serial.len().min(parallel.len()));
        let lo = pos.saturating_sub(200);
        panic!(
            "SimResult bytes differ between 1 and 4 workers at byte {pos}:\nserial:   ...{}...\nparallel: ...{}...",
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
        let sim = Simulation::try_new(sim, spec, policy, workload).unwrap();
        let result = if reference {
            sim.run_reference()
        } else {
            sim.run()
        };
        result.canonical_text()
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
    let mut sched = sched();
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
fn dense_table_matches_model_bitwise() {
    use pollux_sched::SpeedupTable;
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let jobs = sched_jobs(6, 8);
    let table = SpeedupTable::build(&jobs, &spec, 1);
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
                    "job {j} shape ({gpus},{nodes})"
                );
            }
        }
    }
}

/// 600 standing jobs — three scan chunks, the last one short — on
/// four racks of two nodes, the first 32 holding one GPU each.
fn racked_jobs() -> Vec<SchedJob> {
    let mut jobs = sched_jobs(600, 8);
    for (i, job) in jobs.iter_mut().enumerate() {
        job.gpu_cap = 8;
        job.current_placement.fill(0);
        if i < 32 {
            job.current_placement[i / 4] = 1;
        }
    }
    jobs
}

#[test]
fn racked_optimize_is_identical_across_worker_counts() {
    // The per-rack phase-2 searches run side by side under one serial
    // seed draw per evolved rack; a multi-round run on one scheduler
    // also exercises the cross-interval carry (warm-start populations,
    // incremental tables, quiet-rack replay), all of which must stay
    // worker-count invariant. `None` leaves the scheduler at the
    // host's own core count.
    use pollux_cluster::Topology;
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let topo = Topology::grouped(8, 2).unwrap();

    let run = |workers: Option<usize>| {
        let mut sched = sched();
        if let Some(workers) = workers {
            sched.set_threads(workers);
        }
        sched.set_topology(Some(topo.clone()));
        let rec = Recorder::new(Arc::new(MemorySink::new(64)));
        sched.set_recorder(rec.clone());
        let mut rng = StdRng::seed_from_u64(17);
        let mut jobs = racked_jobs();
        // Per round: the outcome and the counters summed so far.
        let mut round = |jobs: &[SchedJob]| {
            let outcome = sched.optimize(jobs, &spec, &mut rng);
            let counts = [
                "table_solves",
                "table_rows_reused",
                "racks_evolved",
                "rounds_certified",
            ]
            .map(|name| rec.counter_value("sched", name));
            (
                outcome.best,
                outcome.best_fitness.to_bits(),
                outcome.stats,
                counts,
            )
        };
        // Cold: every rack searches. Verbatim again: every rack is
        // quiet and replays its carry.
        let mut rounds = vec![round(&jobs), round(&jobs)];
        // The plan is applied: placements move, racks search again.
        for (job, (_, row)) in jobs.iter_mut().zip(rounds[1].0.iter_rows()) {
            job.current_placement.copy_from_slice(row);
        }
        rounds.push(round(&jobs));
        // Churn: a departure, an arrival, a re-weighted job.
        jobs.remove(3);
        jobs.push(SchedJob {
            id: JobId(1000),
            model: goodput_model(1234.0),
            min_gpus: 1,
            gpu_cap: 8,
            weight: 1.0,
            current_placement: vec![0; 8],
        });
        jobs[40].weight = 2.5;
        rounds.push(round(&jobs));
        // One job refitted: fewer racks search than most runs have
        // workers.
        jobs[7].model = goodput_model(4321.0);
        rounds.push(round(&jobs));
        // A burst of departures, down to a job count short of three
        // full chunks by a different margin.
        jobs.drain(100..250);
        rounds.push(round(&jobs));
        (rounds, rng.next_u64())
    };

    let (reference, next_draw) = run(Some(1));
    let [solves, reused, evolved, certified] = reference[0].3;
    assert_eq!(reused, 0, "round 0 is cold");
    // Replayed racks solve nothing, evolve nothing, reuse every row.
    assert_eq!(
        (reference[1].2.generations_run, reference[1].3),
        (0, [solves, 600, evolved, certified]),
        "round 1 must replay every rack"
    );
    // Each changed rack is certified by the bound or searches: a round
    // runs generations exactly when one of its racks was not certified.
    for (i, pair) in reference.windows(2).enumerate() {
        let [.., evolved, certified] = pair[1].3;
        let [.., evolved_before, certified_before] = pair[0].3;
        let searched = (evolved - evolved_before) - (certified - certified_before);
        assert_eq!(
            searched > 0,
            pair[1].2.generations_run > 0,
            "round {}: {searched} racks searched",
            i + 1
        );
    }
    // The fixture takes both paths.
    let [.., certified_total] = reference[reference.len() - 1].3;
    let generations: u64 = reference.iter().map(|round| round.2.generations_run).sum();
    assert!(
        certified_total > 0 && generations > 0,
        "{certified_total} certified, {generations} generations"
    );
    for i in [2, 4] {
        let [.., evolved, _] = reference[i].3;
        let [.., evolved_before, _] = reference[i - 1].3;
        assert!(
            evolved > evolved_before,
            "round {i}: a changed rack is certified or searches"
        );
    }
    for workers in [Some(2), Some(3), Some(8), None] {
        let (rounds, draw) = run(workers);
        for (i, (base, got)) in reference.iter().zip(&rounds).enumerate() {
            assert_eq!(base.0, got.0, "best differs at {workers:?}, round {i}");
            assert_eq!(
                base.1, got.1,
                "fitness bits differ at {workers:?}, round {i}"
            );
            assert_eq!(base.2, got.2, "GA stats differ at {workers:?}, round {i}");
            assert_eq!(base.3, got.3, "counters differ at {workers:?}, round {i}");
        }
        assert_eq!(next_draw, draw, "master RNG diverged at {workers:?}");
    }
}

#[test]
fn assign_racks_is_identical_across_worker_counts() {
    use pollux_cluster::Topology;
    use pollux_sched::assign_racks;
    use std::collections::HashMap;
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let topo = Topology::grouped(8, 2).unwrap();
    let jobs = racked_jobs();
    // A carried assignment that disagrees with some home racks.
    let prev: HashMap<JobId, u32> = jobs.iter().map(|j| (j.id, j.id.0 % 4)).collect();
    for prev in [None, Some(&prev)] {
        let run = |workers| assign_racks(&jobs, &spec, &topo, prev, workers);
        let reference = run(1);
        for workers in [2usize, 3, 8] {
            assert_eq!(reference, run(workers), "{workers} workers");
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
        ) {
            let spec = ClusterSpec::homogeneous(8, 4).unwrap();
            let mut jobs = sched_jobs(6, 8);
            let mut next_id = 100u32;
            let mut prev = SpeedupTable::build(&jobs, &spec, 1);
            for step in &steps {
                apply(&mut jobs, &mut next_id, step);
                let incr = SpeedupTable::build_reusing(&jobs, &spec, 1, Some(&prev));
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
    let table = SpeedupTable::build(&jobs, &spec, 1);
    let expect: Vec<f64> = (0..32)
        .map(|i| {
            let job = &jobs[i % jobs.len()];
            let shape = PlacementShape::new(1 + (i as u32 % 16), 1 + (i as u32 % 4)).unwrap();
            job.model
                .max_goodput(PlacementShape::new(shape.gpus, shape.nodes.min(2)).unwrap())
                / job.model.max_goodput(job.model.reference_shape())
        })
        .collect();
    let got = parallel_map(0..32, 4, |i| {
        let shape = PlacementShape::new(1 + (i as u32 % 16), 1 + (i as u32 % 4)).unwrap();
        table.speedup(i % jobs.len(), shape)
    });
    for (g, e) in got.iter().zip(&expect) {
        assert_eq!(g.to_bits(), e.to_bits());
    }
}
