//! Control-plane equivalence (ISSUE 5 satellite): one reschedule
//! round through the shared `RoundPlanner` produces the same outcome —
//! placements and restart set — whether the pipeline is driven
//! directly, by the live `ClusterService`, or by the simulator's
//! engine, given identical job views, cluster spec, and RNG seed.

use pollux_cluster::{ClusterSpec, JobId};
use pollux_control::{PolicyJobView, Reallocation, RoundPlanner};
use pollux_core::{ClusterService, PolluxConfig, PolluxPolicy, ServiceConfig};
use pollux_models::BatchSizeLimits;
use pollux_sched::GaConfig;
use pollux_simulator::{SimConfig, Simulation};
use pollux_telemetry::{Event, MemorySink, Recorder};
use pollux_workload::{JobSpec, ModelKind, UserConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 11;
const NODES: u32 = 2;
const GPUS_PER_NODE: u32 = 4;

fn quick_pollux_config() -> PolluxConfig {
    let mut c = PolluxConfig::default();
    c.sched.ga = GaConfig {
        population: 12,
        generations: 6,
        ..Default::default()
    };
    c
}

/// A job as the round pipeline sees it: no ground-truth profile, no
/// report yet (prior-driven bootstrap), placement evolving round to
/// round — exactly what the live service snapshots.
struct OwnedJob {
    id: JobId,
    limits: BatchSizeLimits,
    placement: Vec<u32>,
    started: bool,
}

impl OwnedJob {
    fn fresh(id: u32, limits: BatchSizeLimits) -> Self {
        Self {
            id: JobId(id),
            limits,
            placement: vec![0; NODES as usize],
            started: false,
        }
    }

    fn view(&self) -> PolicyJobView<'_> {
        PolicyJobView {
            id: self.id,
            user: UserConfig {
                gpus: 1,
                batch_size: self.limits.min,
            },
            profile: None,
            limits: self.limits,
            report: None,
            gputime: 0.0,
            submit_time: 0.0,
            current_placement: &self.placement,
            started: self.started,
            batch_size: self.limits.min,
            remaining_work: f64::INFINITY,
        }
    }

    fn apply(&mut self, r: &Reallocation) {
        self.placement = r.new.clone();
        if r.gpus() > 0 {
            self.started = true;
        }
    }
}

/// Drives the planner by hand: round 1 with jobs 0 and 1, round 2
/// after job 2 arrives — the reference outcome the service and the
/// simulator must match.
fn direct_rounds(limits: BatchSizeLimits) -> (Vec<OwnedJob>, Vec<Vec<Reallocation>>) {
    let spec = ClusterSpec::homogeneous(NODES, GPUS_PER_NODE).unwrap();
    let mut policy = PolluxPolicy::new(quick_pollux_config()).unwrap();
    let mut planner = RoundPlanner::new();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut jobs = vec![OwnedJob::fresh(0, limits), OwnedJob::fresh(1, limits)];
    let mut rounds = Vec::new();

    for round in 0..2 {
        if round == 1 {
            jobs.push(OwnedJob::fresh(2, limits));
        }
        let views: Vec<PolicyJobView<'_>> = jobs.iter().map(|j| j.view()).collect();
        let outcome = planner
            .plan(&mut policy, 0.0, &views, &spec, &mut rng)
            .unwrap();
        drop(views);
        for r in &outcome.reallocations {
            let row = jobs.iter_mut().find(|j| j.id == r.job).unwrap();
            row.apply(r);
        }
        rounds.push(outcome.reallocations);
    }
    (jobs, rounds)
}

#[test]
fn service_round_matches_direct_planner_outcome() {
    let profile = ModelKind::ResNet18Cifar10.profile();
    let (direct_jobs, rounds) = direct_rounds(profile.limits);

    // A long interval and restart delay: rounds happen only on
    // trigger, and restarting jobs never wake mid-test.
    let service = ClusterService::start(
        ServiceConfig {
            pollux: quick_pollux_config(),
            interval: Duration::from_secs(3600),
            restart_delay: Duration::from_secs(3600),
            seed: SEED,
            ..Default::default()
        },
        ClusterSpec::homogeneous(NODES, GPUS_PER_NODE).unwrap(),
    )
    .unwrap();
    let a = service
        .submit(profile.m0, profile.eta0, profile.limits)
        .unwrap();
    let b = service
        .submit(profile.m0, profile.eta0, profile.limits)
        .unwrap();
    service.trigger_schedule().unwrap();
    assert!(service.wait_for_rounds(1, Duration::from_secs(30)));

    let direct_of = |id: JobId| &direct_jobs[id.0 as usize];
    // Round 1: both fresh jobs get the exact placements the direct
    // planner produced (same seed, same views).
    let round1_of = |id: JobId| {
        rounds[0]
            .iter()
            .find(|r| r.job == id)
            .map(|r| r.new.clone())
            .unwrap_or_else(|| vec![0; NODES as usize])
    };
    assert_eq!(a.placement(), round1_of(a.id()));
    assert_eq!(b.placement(), round1_of(b.id()));

    // Round 2: a third job arrives and the round may move the first
    // two. Placements and the restart set must match the reference.
    let c = service
        .submit(profile.m0, profile.eta0, profile.limits)
        .unwrap();
    service.trigger_schedule().unwrap();
    assert!(service.wait_for_rounds(2, Duration::from_secs(30)));

    for h in [&a, &b, &c] {
        let expected = &direct_of(h.id()).placement;
        assert_eq!(&h.placement(), expected, "job {} placement", h.id());
        let expected_restarts = rounds
            .iter()
            .flatten()
            .filter(|r| r.job == h.id() && r.triggers_restart)
            .count() as u32;
        assert_eq!(
            h.num_restarts(),
            expected_restarts,
            "job {} restart count",
            h.id()
        );
    }
    service.shutdown();
}

#[test]
fn simulator_first_interval_matches_direct_planner_outcome() {
    let profile = ModelKind::ResNet18Cifar10.profile();
    let (_, rounds) = direct_rounds(profile.limits);

    // Two fresh jobs submitted at t=0: the engine's first reschedule
    // consumes an RNG stream identical to a fresh planner's (no
    // running jobs yet, so no noise draws precede it).
    let user = UserConfig {
        gpus: 1,
        batch_size: profile.m0,
    };
    let trace: Vec<JobSpec> = (0..2)
        .map(|i| JobSpec {
            id: JobId(i),
            kind: ModelKind::ResNet18Cifar10,
            submit_time: 0.0,
            work: 1e9,
            tuned: user,
            realistic: user,
        })
        .collect();
    let workload = trace.into_iter().map(|j| (j, user)).collect();
    let sim = SimConfig {
        seed: SEED,
        max_sim_time: 120.0,
        ..Default::default()
    };
    let policy = PolluxPolicy::new(quick_pollux_config()).unwrap();
    let sink = Arc::new(MemorySink::new(1 << 16));
    Simulation::try_new(
        sim,
        ClusterSpec::homogeneous(NODES, GPUS_PER_NODE).unwrap(),
        policy,
        workload,
    )
    .unwrap()
    .with_recorder(Recorder::new(sink.clone()))
    .run();
    let events = sink.drain();

    for id in [JobId(0), JobId(1)] {
        let expected_gpus = rounds[0]
            .iter()
            .find(|r| r.job == id)
            .map(|r| r.gpus())
            .unwrap_or(0);
        // The engine's first round, as the capture's placement diffs
        // at t = 0 record it.
        let first_round_gpus: u32 = events
            .iter()
            .find_map(|e| match e {
                Event::Timeline {
                    subsystem,
                    name,
                    time,
                    job,
                    new,
                    ..
                } if subsystem == "round"
                    && name == "placement"
                    && *time == 0.0
                    && *job == u64::from(id.0) =>
                {
                    Some(new.iter().sum())
                }
                _ => None,
            })
            .unwrap_or(0);
        assert_eq!(
            first_round_gpus, expected_gpus,
            "job {id} first-interval allocation"
        );
    }
}
