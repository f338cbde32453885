//! Chaos testing: a policy that emits random (often infeasible)
//! allocation matrices, cluster sizes and batch sizes every interval.
//! The engine must defensively clamp them and keep every invariant
//! intact — and, since every round rewrites every placement, resizes
//! the cluster and re-keys every profiler run, its persistent run
//! contexts must survive the worst churn there is: each case also
//! requires `run()` to equal `run_reference()` byte for byte. A
//! workload whose job ids collide is refused before anything runs.

use pollux::cluster::{AllocationMatrix, ClusterSpec, JobId};
use pollux::simulator::{
    PolicyJobView, SchedulingPolicy, SimBuildError, SimConfig, SimResult, Simulation,
};
use pollux::workload::{ModelKind, TraceConfig, TraceGenerator};
use pollux_telemetry::{Event, MemorySink, Recorder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::Arc;

/// Emits uniformly random matrices, ignoring capacities entirely, and
/// random cluster sizes and batch sizes.
struct ChaosPolicy {
    max_gpus_per_cell: u32,
    /// The policy's own stream; in a cell because
    /// `choose_batch_size` takes `&self`.
    rng: RefCell<StdRng>,
}

impl SchedulingPolicy for ChaosPolicy {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        let rng = self.rng.get_mut();
        let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
        for j in 0..jobs.len() {
            for n in 0..spec.num_nodes() {
                m.set(j, n, rng.gen_range(0..=self.max_gpus_per_cell));
            }
        }
        m
    }

    fn desired_nodes(
        &mut self,
        _now: f64,
        _jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<u32> {
        let rng = self.rng.get_mut();
        rng.gen_bool(0.7).then(|| rng.gen_range(1..=4))
    }

    fn choose_batch_size(&self, _job: &PolicyJobView<'_>) -> Option<u64> {
        let mut rng = self.rng.borrow_mut();
        rng.gen_bool(0.7).then(|| rng.gen_range(1..=8192))
    }
}

/// One chaos run through `run()` or, with `reference`, through the
/// per-tick `run_reference()`, with the telemetry it captured.
fn run_chaos(
    seed: u64,
    max_cell: u32,
    jobs: usize,
    interference: f64,
    reference: bool,
) -> (SimResult, Vec<Event>) {
    let trace: Vec<_> = TraceGenerator::new(TraceConfig {
        num_jobs: 40,
        duration_hours: 1.0,
        seed,
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
    .take(jobs)
    .map(|j| {
        let user = j.tuned;
        (j, user)
    })
    .collect();
    let sim = SimConfig {
        max_sim_time: 6.0 * 3600.0,
        interference_slowdown: interference,
        seed,
        ..Default::default()
    };
    let policy = ChaosPolicy {
        max_gpus_per_cell: max_cell,
        rng: RefCell::new(StdRng::seed_from_u64(seed ^ 0xC0FFEE)),
    };
    let sink = Arc::new(MemorySink::new(1 << 20));
    let sim = Simulation::new(sim, ClusterSpec::homogeneous(3, 4).unwrap(), policy, trace)
        .unwrap()
        .with_recorder(Recorder::new(sink.clone()));
    let res = if reference {
        sim.run_reference()
    } else {
        sim.run()
    };
    (res, sink.drain())
}

/// Two submissions with one id would make a round's views ambiguous:
/// the simulation refuses to be built, instead of panicking at the
/// first round that holds both.
#[test]
fn duplicate_job_ids_are_a_build_error() {
    let mut trace = TraceGenerator::new(TraceConfig {
        num_jobs: 2,
        seed: 1,
        ..Default::default()
    })
    .unwrap()
    .generate();
    for job in &mut trace {
        job.id = JobId(0);
        job.submit_time = 0.0;
    }
    let workload = trace
        .into_iter()
        .map(|j| {
            let user = j.tuned;
            (j, user)
        })
        .collect();
    let policy = ChaosPolicy {
        max_gpus_per_cell: 2,
        rng: RefCell::new(StdRng::seed_from_u64(1)),
    };
    let spec = ClusterSpec::homogeneous(2, 4).unwrap();
    let built = Simulation::try_new(SimConfig::default(), spec, policy, workload);
    assert_eq!(built.err(), Some(SimBuildError::DuplicateJobId(JobId(0))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn chaos_policy_cannot_break_engine_invariants(
        seed in 0u64..1000,
        max_cell in 1u32..12,
        jobs in 2usize..6,
        interference in 0.0f64..0.6,
    ) {
        let (res, events) = run_chaos(seed, max_cell, jobs, interference, false);
        let (oracle, _) = run_chaos(seed, max_cell, jobs, interference, true);
        prop_assert_eq!(
            res.canonical_text(),
            oracle.canonical_text(),
            "run() diverged from run_reference()"
        );

        // The cluster is never oversubscribed, no matter what the
        // policy asked for.
        for s in &res.series {
            prop_assert!(s.used_gpus <= s.total_gpus, "{s:?}");
            prop_assert!(s.mean_efficiency >= 0.0 && s.mean_efficiency <= 1.0 + 1e-9);
        }

        // Per-job accounting stays sane.
        for r in &res.records {
            prop_assert!(r.gputime >= 0.0);
            prop_assert!(r.useful_examples <= r.examples_processed * (1.0 + 1e-9));
            if let (Some(start), Some(finish)) = (r.start_time, r.finish_time) {
                prop_assert!(start <= finish);
                prop_assert!(start >= r.submit_time);
            }
        }

        // The captured timeline is ordered and structurally
        // consistent. Arrivals are left out of the ordering: they carry
        // the submit time, not the boundary that spawned them.
        let timeline: Vec<(f64, u64, &str)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Timeline { name, time, job, .. } if name != "arrival" => {
                    Some((*time, *job, name.as_ref()))
                }
                _ => None,
            })
            .collect();
        prop_assert!(!timeline.is_empty());
        for w in timeline.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "{:?} before {:?}", w[0], w[1]);
        }
        for r in &res.records {
            let job = u64::from(r.id.0);
            let started = timeline
                .iter()
                .filter(|&&(_, j, name)| j == job && name == "start")
                .count();
            prop_assert!(started <= 1, "job {} started {started} times", r.id);
        }
    }
}
