//! Control-plane equivalence: the one scheduling round the engine and
//! the service both run (`RoundPlanner::round`) decides the same —
//! placements, restart set
//! and decision audit — whether it runs over a plain job store, inside
//! the live `ClusterService`, or (for the first interval) inside the
//! simulator's engine, given the same jobs, cluster spec and RNG seed.

use pollux_agent::PolluxAgent;
use pollux_cluster::{ClusterSpec, JobId, Topology};
use pollux_control::{
    JobLifecycle, JobMut, JobStore, PolicyJobView, Reallocation, RoundPlanner, SchedulingPolicy,
};
use pollux_core::{ClusterService, PolluxConfig, PolluxPolicy, ServiceConfig};
use pollux_models::{GradientStats, PlacementShape};
use pollux_sched::GaConfig;
use pollux_simulator::{SimConfig, Simulation};
use pollux_telemetry::{Event, MemorySink, Recorder};
use pollux_workload::{JobSpec, ModelKind, UserConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
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

/// What happens between two rounds: a job arrives, reports a profile,
/// or completes.
enum Step {
    Submit,
    Profile(u32),
    Complete(u32),
}

/// Five rounds: two jobs start; the first reports and a third arrives;
/// the first completes; the third reports and a fourth arrives; a last
/// round sees no change.
const SCRIPT: [&[Step]; 5] = [
    &[Step::Submit, Step::Submit],
    &[Step::Profile(0), Step::Submit],
    &[Step::Complete(0)],
    &[Step::Profile(2), Step::Submit],
    &[],
];

/// What a profiled job reports: one iteration per shape at `m0`, with
/// its time, then a refit and its gradient statistics.
fn profile_samples() -> Vec<(PlacementShape, f64)> {
    let profile = ModelKind::ResNet18Cifar10.profile();
    [(1, 1), (2, 1), (4, 1), (8, 2)]
        .into_iter()
        .map(|(g, n)| {
            let shape = PlacementShape::new(g, n).unwrap();
            (shape, profile.params.t_iter(shape, profile.m0))
        })
        .collect()
}

fn gradient_stats() -> GradientStats {
    GradientStats::new(20.0, 1.0).unwrap()
}

/// One audited job of a round: id, GPUs before and after, and the
/// jobs it shares a node with.
type Audit = (u64, u32, u32, Vec<u64>);

/// What one round left behind: every live job's placement and restart
/// count, and the round's audit.
#[derive(Debug, PartialEq)]
struct After {
    placements: BTreeMap<u32, Vec<u32>>,
    restarts: BTreeMap<u32, u32>,
    audit: Vec<Audit>,
}

fn audits(events: Vec<Event>) -> Vec<Vec<Audit>> {
    events
        .into_iter()
        .filter_map(|e| match e {
            Event::Round(r) => Some(
                r.jobs
                    .into_iter()
                    .map(|j| (j.job, j.gpus_before, j.gpus_after, j.co_residents))
                    .collect(),
            ),
            _ => None,
        })
        .collect()
}

/// A job as the live service keeps it: no ground-truth profile and no
/// report yet (the prior-driven bootstrap), an agent and a lifecycle.
struct OwnedJob {
    id: JobId,
    placement: Vec<u32>,
    agent: PolluxAgent,
    lifecycle: JobLifecycle,
}

impl OwnedJob {
    fn lend(&mut self) -> JobMut<'_> {
        JobMut {
            placement: &mut self.placement,
            agent: &mut self.agent,
            lifecycle: &mut self.lifecycle,
        }
    }
}

/// The plainest job store: jobs in ascending id order, nothing of its
/// own around the round's rules.
struct Direct(Vec<OwnedJob>);

impl JobStore for Direct {
    fn views(&self) -> Vec<PolicyJobView<'_>> {
        self.0
            .iter()
            .map(|j| {
                let limits = j.agent.limits();
                PolicyJobView {
                    id: j.id,
                    user: UserConfig {
                        gpus: 1,
                        batch_size: limits.min,
                    },
                    profile: None,
                    limits,
                    report: j.agent.report(),
                    gputime: j.lifecycle.gputime(),
                    submit_time: 0.0,
                    current_placement: &j.placement,
                    started: j.lifecycle.has_started(),
                    batch_size: limits.min,
                    remaining_work: f64::INFINITY,
                }
            })
            .collect()
    }

    fn resize(
        &mut self,
        _spec: &ClusterSpec,
        mut fit: impl FnMut(JobMut<'_>) -> bool,
    ) -> Option<Topology> {
        for job in &mut self.0 {
            fit(job.lend());
        }
        None
    }

    fn apply(&mut self, r: &Reallocation, rule: impl FnOnce(JobMut<'_>)) {
        rule(self.0[r.row].lend());
    }

    fn co_residents(&self, row: usize) -> Vec<u64> {
        let mine = &self.0[row].placement;
        let shares = |other: &[u32]| mine.iter().zip(other).any(|(&a, &b)| a > 0 && b > 0);
        self.0
            .iter()
            .enumerate()
            .filter(|&(k, j)| k != row && shares(&j.placement))
            .map(|(_, j)| u64::from(j.id.0))
            .collect()
    }
}

/// Runs the script through `RoundPlanner::round` over [`Direct`]: the
/// reference the service and the simulator must match.
fn direct_rounds() -> Vec<After> {
    let profile = ModelKind::ResNet18Cifar10.profile();
    let sink = Arc::new(MemorySink::new(1 << 16));
    let recorder = Recorder::new(sink.clone());
    let mut spec = ClusterSpec::homogeneous(NODES, GPUS_PER_NODE).unwrap();
    let mut policy = PolluxPolicy::new(quick_pollux_config()).unwrap();
    policy.attach_telemetry(recorder.clone());
    let mut planner = RoundPlanner::new();
    planner.attach_telemetry(recorder);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut store = Direct(Vec::new());
    let mut next_id = 0;

    let mut rounds = Vec::new();
    for steps in SCRIPT {
        for step in steps {
            match step {
                Step::Submit => {
                    store.0.push(OwnedJob {
                        id: JobId(next_id),
                        placement: vec![0; NODES as usize],
                        agent: PolluxAgent::new(profile.m0, profile.eta0, profile.limits).unwrap(),
                        lifecycle: JobLifecycle::new(),
                    });
                    next_id += 1;
                }
                Step::Profile(id) => {
                    let job = store.0.iter_mut().find(|j| j.id == JobId(*id)).unwrap();
                    for (shape, t_iter) in profile_samples() {
                        job.agent.observe_iteration(shape, profile.m0, t_iter);
                        job.lifecycle.accrue_gputime(t_iter * f64::from(shape.gpus));
                    }
                    assert!(job.agent.refit());
                    job.agent.observe_gradient_stats(gradient_stats());
                }
                Step::Complete(id) => store.0.retain(|j| j.id != JobId(*id)),
            }
        }
        planner
            .round(&mut policy, &mut store, &mut spec, 0.0, 3600.0, &mut rng)
            .expect("ids are handed out once");
        rounds.push(After {
            placements: store
                .0
                .iter()
                .map(|j| (j.id.0, j.placement.clone()))
                .collect(),
            restarts: store
                .0
                .iter()
                .map(|j| (j.id.0, j.lifecycle.num_restarts()))
                .collect(),
            audit: Vec::new(),
        });
    }
    for (after, audit) in rounds.iter_mut().zip(audits(sink.drain())) {
        after.audit = audit;
    }
    rounds
}

#[test]
fn service_rounds_match_the_direct_store() {
    let expected = direct_rounds();
    assert_eq!(expected.len(), SCRIPT.len());
    assert!(
        expected.iter().any(|a| a.restarts.values().any(|&r| r > 0)),
        "the script should move a started job: {expected:#?}"
    );

    // A long interval and restart delay: rounds happen only on trigger,
    // and restarting jobs never wake mid-test.
    let profile = ModelKind::ResNet18Cifar10.profile();
    let sink = Arc::new(MemorySink::new(1 << 16));
    let service = ClusterService::start(
        ServiceConfig {
            pollux: quick_pollux_config(),
            interval: Duration::from_secs(3600),
            restart_delay: Duration::from_secs(3600),
            seed: SEED,
            telemetry: Recorder::new(sink.clone()),
        },
        ClusterSpec::homogeneous(NODES, GPUS_PER_NODE).unwrap(),
    )
    .unwrap();
    let mut handles = BTreeMap::new();
    let mut seen = Vec::new();
    for (round, steps) in SCRIPT.iter().enumerate() {
        for step in *steps {
            match step {
                Step::Submit => {
                    let h = service
                        .submit(profile.m0, profile.eta0, profile.limits)
                        .unwrap();
                    handles.insert(h.id().0, h);
                }
                Step::Profile(id) => {
                    let h = &handles[id];
                    for (shape, t_iter) in profile_samples() {
                        h.record_iteration(shape, profile.m0, t_iter);
                    }
                    assert!(h.refit());
                    h.record_gradient_stats(gradient_stats());
                }
                Step::Complete(id) => {
                    service.complete(JobId(*id));
                    handles.remove(id);
                }
            }
        }
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(round as u64 + 1, Duration::from_secs(60)));
        seen.push(After {
            placements: handles.iter().map(|(&id, h)| (id, h.placement())).collect(),
            restarts: handles
                .iter()
                .map(|(&id, h)| (id, h.num_restarts()))
                .collect(),
            audit: Vec::new(),
        });
    }
    service.shutdown();
    for (after, audit) in seen.iter_mut().zip(audits(sink.drain())) {
        after.audit = audit;
    }
    for (round, (seen, expected)) in seen.iter().zip(&expected).enumerate() {
        assert_eq!(seen, expected, "round {round}");
    }
}

#[test]
fn simulator_first_interval_matches_the_direct_store() {
    let expected = &direct_rounds()[0];

    // Two fresh jobs submitted at t=0: the engine's first round
    // consumes an RNG stream identical to a fresh direct store's (no
    // running jobs yet, so no noise draws precede it).
    let user = UserConfig {
        gpus: 1,
        batch_size: ModelKind::ResNet18Cifar10.profile().m0,
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

    for (&id, placement) in &expected.placements {
        // The engine's first round, as the capture's placement diffs
        // at t = 0 record it.
        let first_round: u32 = events
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
                    && *job == u64::from(id) =>
                {
                    Some(new.iter().sum())
                }
                _ => None,
            })
            .unwrap_or(0);
        let gpus: u32 = placement.iter().sum();
        assert_eq!(first_round, gpus, "job {id} first-interval allocation");
    }
    assert_eq!(
        audits(events).first(),
        Some(&expected.audit),
        "the engine's first audit"
    );
}
