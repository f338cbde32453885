//! Identity tests for the engine's chunk stepper: how `Simulation::run`
//! advances the ticks between events may change, what it computes may
//! not.
//!
//! Every case runs twice — `run()` and the retained per-tick
//! `run_reference()` — and the two serialized `SimResult`s must agree
//! byte for byte. The FNV-1a64 digest of that text is then compared
//! with a pinned constant (the digests do not depend on the build
//! profile: `cargo test -q` and `cargo test --release -q` both run this
//! file).
//!
//! The constants were captured at the commit before the persistent run
//! contexts landed and re-pinned once since, by PR 20 — φ held ≤ 1 %
//! per sub-interval of progress: the ground-truth φ that drives
//! progress became piecewise constant (`SimJob::held_efficiency_at`),
//! in both steppers at once, so every trajectory in which a job trains
//! above its `m0` moved in its low digits. Twelve of the thirteen
//! digests moved; the finish ladder's jobs train at `m0`, where the
//! efficiency is 1 whatever φ is, and kept theirs. All thirteen were
//! re-pinned once more, with no trajectory moving, when `SimResult`
//! lost its event log and its per-job series (the capture's
//! `lifecycle/*` and `round/placement` events are the one timeline):
//! the digested text lost two fields, and each new constant is what
//! the old code printed for the same run rendered without them. And
//! all thirteen once more, again with no trajectory moving, when
//! `SimResult` lost its per-interval scheduler counters (they leave
//! through the telemetry recorder alone), by the same method.
//!
//! The cases are the events that invalidate a run context, and the
//! places a finish can fall: fixed-batch and batch-adaptive policies,
//! interference off / mild / severe with distributed jobs sharing
//! nodes, restart delays of 0 and 30 s, no measurement noise, a cluster
//! that shrinks under running jobs, a job that finishes on its first
//! tick, two jobs finishing in one tick, and finishes on report and
//! scheduling ticks.
//!
//! One metamorphic case rides on the same policies and workloads:
//! moving a whole workload later by whole scheduling intervals moves
//! nothing else, so neither stepper nor the φ hold reads absolute time.

use pollux::baselines::tiresias;
use pollux::cluster::{AllocationMatrix, ClusterSpec, JobId};
use pollux::core::{PolluxConfig, PolluxPolicy};
use pollux::models::PlacementShape;
use pollux::sched::GaConfig;
use pollux::simulator::engine::Submission;
use pollux::simulator::{
    PolicyJobView, SchedulingPolicy, SimConfig, SimResult, Simulation, SCHED_INTERVAL,
};
use pollux::workload::{ModelKind, TraceConfig, TraceGenerator};
use rand::rngs::StdRng;

/// Runs both steppers, requires identical bytes and the pinned digest,
/// and hands back the result for case-specific assertions.
fn check<P: SchedulingPolicy>(
    label: &str,
    golden: u64,
    cfg: SimConfig,
    spec: &ClusterSpec,
    workload: &[Submission],
    policy: impl Fn() -> P,
) -> SimResult {
    let sim = |policy| Simulation::try_new(cfg, spec.clone(), policy, workload.to_vec()).unwrap();
    let stepped = sim(policy()).run();
    let reference = sim(policy()).run_reference();
    let text = stepped.canonical_text();
    let oracle = reference.canonical_text();
    if text != oracle {
        let at = text
            .bytes()
            .zip(oracle.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.len().min(oracle.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "{label}: run() diverged from run_reference() at byte {at}\n  run: …{}…\n  ref: …{}…",
            &text[lo..(at + 80).min(text.len())],
            &oracle[lo..(at + 80).min(oracle.len())],
        );
    }
    let digest = stepped.digest();
    assert_eq!(
        digest, golden,
        "{label}: both steppers agree, on a trajectory other than the pinned one: 0x{digest:016x}"
    );
    stepped
}

/// Small-model jobs with staggered arrivals and scaled work.
fn jobs(n: usize, stagger: f64, seed: u64, work_scale: f64) -> Vec<Submission> {
    TraceGenerator::new(TraceConfig {
        num_jobs: 40,
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
    .take(n)
    .enumerate()
    .map(|(i, mut spec)| {
        spec.id = JobId(i as u32);
        spec.submit_time = i as f64 * stagger;
        spec.work *= work_scale;
        let user = spec.tuned;
        (spec, user)
    })
    .collect()
}

/// Placements rotate every ten minutes between a 1-GPU solo placement
/// and a 2-node distributed one whose node pair moves, so jobs restart,
/// get preempted, and distributed jobs overlap on shared nodes.
#[derive(Clone, Copy)]
struct Rotate {
    adapts: bool,
}

impl SchedulingPolicy for Rotate {
    fn name(&self) -> &'static str {
        "rotate"
    }

    fn adapts_batch_size(&self) -> bool {
        self.adapts
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        let nodes = spec.num_nodes();
        let phase = (now / 600.0) as usize;
        let mut m = AllocationMatrix::zeros(jobs.len(), nodes);
        for j in 0..jobs.len() {
            let start = (j + phase) % nodes;
            m.set(j, start, 1);
            if (j + phase).is_multiple_of(3) {
                m.set(j, (start + 1) % nodes, 1);
            }
        }
        m
    }
}

/// First come, first served at a fixed GPU ask; running jobs keep
/// their placement.
#[derive(Clone, Copy)]
struct Fcfs {
    gpus: u32,
}

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();
        let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
        for (j, view) in jobs.iter().enumerate() {
            if view.is_running() {
                for (n, &g) in view.current_placement.iter().enumerate() {
                    m.set(j, n, g);
                    free[n] = free[n].saturating_sub(g);
                }
                continue;
            }
            if let Some(n) = free.iter().position(|&f| f >= self.gpus) {
                m.set(j, n, self.gpus);
                free[n] -= self.gpus;
            }
        }
        m
    }
}

/// A cluster that breathes — 4 nodes, then 2, then 3 — under jobs
/// spread over every node, half of them distributed, with the batch
/// size scaled linearly with the GPUs held (the non-adaptive
/// `choose_batch_size` path).
#[derive(Clone, Copy)]
struct Breathing;

impl SchedulingPolicy for Breathing {
    fn name(&self) -> &'static str {
        "breathing"
    }

    fn desired_nodes(
        &mut self,
        now: f64,
        _jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<u32> {
        Some(match now {
            t if t < 1800.0 => 4,
            t if t < 3600.0 => 2,
            _ => 3,
        })
    }

    fn choose_batch_size(&self, job: &PolicyJobView<'_>) -> Option<u64> {
        let gpus: u32 = job.current_placement.iter().sum();
        Some(job.limits.min * u64::from(gpus.max(1)))
    }

    fn schedule(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        let nodes = spec.num_nodes();
        let mut m = AllocationMatrix::zeros(jobs.len(), nodes);
        for j in 0..jobs.len().min(2 * nodes) {
            m.set(j, j % nodes, 1);
            if j % 2 == 0 && nodes > 1 {
                m.set(j, (j + 1) % nodes, 1);
            }
        }
        m
    }
}

#[test]
fn staged_tiresias_with_a_fixed_batch() {
    let cfg = SimConfig {
        max_sim_time: 6.0 * 3600.0,
        interference_slowdown: 0.1,
        seed: 17,
        ..Default::default()
    };
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let res = check(
        "tiresias",
        0x2844_8811_9889_0064,
        cfg,
        &spec,
        &jobs(14, 240.0, 9, 1.0),
        tiresias,
    );
    assert!(
        res.records
            .iter()
            .filter(|r| r.finish_time.is_some())
            .count()
            >= 8
    );
}

#[test]
fn pollux_policy_adapting_the_batch() {
    let cfg = SimConfig {
        max_sim_time: 3.0 * 3600.0,
        interference_slowdown: 0.3,
        seed: 23,
        ..Default::default()
    };
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let policy = || {
        let mut c = PolluxConfig::default();
        c.sched.ga = GaConfig {
            population: 12,
            generations: 6,
            ..Default::default()
        };
        PolluxPolicy::new(c).unwrap()
    };
    check(
        "pollux",
        0xefcc_786f_6b04_4ad4,
        cfg,
        &spec,
        &jobs(8, 300.0, 5, 1.0),
        policy,
    );
}

/// Interference off / mild / severe × restart delay 0 / 30 s, under the
/// rotating policy with batch adaptation: every reallocation changes
/// shapes and, through the shared nodes, other jobs' slowdowns. (The
/// six digests differ, so distributed jobs did share nodes.)
#[test]
fn interference_levels_and_restart_delays() {
    let spec = ClusterSpec::homogeneous(3, 4).unwrap();
    let workload = jobs(8, 200.0, 3, 1.0);
    for (interference, restart_delay, golden) in [
        (0.0, 30.0, 0x6afd_eef9_5c0d_f0f2u64),
        (0.1, 30.0, 0xde9a_9d7c_73d2_87e7),
        (0.5, 30.0, 0xae00_c5bb_55d5_c264),
        (0.0, 0.0, 0x8564_576a_559d_65ff),
        (0.1, 0.0, 0x698a_de1a_fa14_22f5),
        (0.5, 0.0, 0x6492_5149_5063_452e),
    ] {
        let cfg = SimConfig {
            max_sim_time: 3.0 * 3600.0,
            interference_slowdown: interference,
            restart_delay,
            seed: 5,
            ..Default::default()
        };
        let res = check(
            &format!("interference={interference} restart_delay={restart_delay}"),
            golden,
            cfg,
            &spec,
            &workload,
            || Rotate { adapts: true },
        );
        assert!(res.records.iter().any(|r| r.num_restarts > 0));
    }
}

#[test]
fn no_measurement_noise() {
    let cfg = SimConfig {
        max_sim_time: 3.0 * 3600.0,
        interference_slowdown: 0.3,
        measurement_noise: 0.0,
        seed: 5,
        ..Default::default()
    };
    let spec = ClusterSpec::homogeneous(3, 4).unwrap();
    check(
        "noise=0",
        0xd9a6_cf0a_2d9a_fe3f,
        cfg,
        &spec,
        &jobs(8, 200.0, 3, 1.0),
        || Rotate { adapts: false },
    );
}

#[test]
fn cluster_shrinks_under_running_jobs() {
    let cfg = SimConfig {
        max_sim_time: 2.0 * 3600.0,
        interference_slowdown: 0.3,
        seed: 31,
        ..Default::default()
    };
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let res = check(
        "autoscaling",
        0xdb7f_e193_b6c8_ef76,
        cfg,
        &spec,
        &jobs(7, 60.0, 3, 1.0),
        || Breathing,
    );
    let sizes: Vec<u32> = res.series.iter().map(|s| s.nodes).collect();
    for n in [4, 2, 3] {
        assert!(sizes.contains(&n), "the cluster never had {n} nodes");
    }
    // The shrink took GPUs from jobs that were running on them.
    assert!(res.records.iter().any(|r| r.num_restarts > 0));
}

#[test]
fn a_job_finishes_on_its_first_tick() {
    let mut workload = jobs(3, 0.0, 3, 0.1);
    workload[0].0.work = 1.0;
    let cfg = SimConfig {
        max_sim_time: 2.0 * 3600.0,
        seed: 2,
        ..Default::default()
    };
    let spec = ClusterSpec::homogeneous(2, 4).unwrap();
    let res = check(
        "first-tick finish",
        0xe022_0e51_76b4_c1b8,
        cfg,
        &spec,
        &workload,
        || Fcfs { gpus: 2 },
    );
    let first = &res.records[0];
    assert_eq!(first.start_time, Some(0.0));
    assert_eq!(first.finish_time, Some(1.0), "one tick of training");
}

#[test]
fn two_jobs_finish_in_the_same_tick() {
    let mut workload = jobs(3, 0.0, 3, 0.1);
    let mut twin = workload[0].clone();
    twin.0.id = JobId(3);
    workload.push(twin);
    let cfg = SimConfig {
        max_sim_time: 2.0 * 3600.0,
        seed: 2,
        ..Default::default()
    };
    let spec = ClusterSpec::homogeneous(2, 4).unwrap();
    let res = check(
        "twin finish",
        0x79b7_80d9_d249_e9c2,
        cfg,
        &spec,
        &workload,
        || Fcfs { gpus: 2 },
    );
    let finish = |id: u32| {
        res.records
            .iter()
            .find(|r| r.id == JobId(id))
            .unwrap()
            .finish_time
    };
    assert!(finish(0).is_some());
    assert_eq!(finish(0), finish(3), "the twins cross their work together");
}

/// A ladder of 1-GPU jobs whose works differ by about ten seconds of
/// training, so that finishes fall on every residue of the 30 s report
/// and 60 s scheduling periods: on the tick a round runs, and on the
/// tick before it (the last one of a chunk that then ends on its
/// horizon).
#[test]
fn finishes_on_report_and_scheduling_ticks() {
    let template = jobs(1, 0.0, 3, 1.0).remove(0);
    let profile = template.0.kind.profile();
    let rate = profile.params.throughput(
        PlacementShape::single(),
        template.1.batch_size.max(profile.m0),
    );
    let workload: Vec<Submission> = (0..64)
        .map(|k| {
            let mut job = template.clone();
            job.0.id = JobId(k);
            job.0.work = rate * (300.0 + 10.3 * f64::from(k));
            job
        })
        .collect();
    let cfg = SimConfig {
        max_sim_time: 3.0 * 3600.0,
        seed: 11,
        ..Default::default()
    };
    let spec = ClusterSpec::homogeneous(16, 4).unwrap();
    let res = check(
        "finish ladder",
        0xfc99_3957_ccd8_b05b,
        cfg,
        &spec,
        &workload,
        || Fcfs { gpus: 1 },
    );
    // A job that finishes at time `f` ran its last tick at `f - 1`.
    let last_ticks: Vec<u64> = res
        .records
        .iter()
        .map(|r| r.finish_time.expect("every rung finishes") as u64 - 1)
        .collect();
    for (period, what) in [(30, "report"), (60, "scheduling")] {
        assert!(
            last_ticks.iter().any(|t| t % period == 0),
            "no finish on a {what} tick: {last_ticks:?}"
        );
        assert!(
            last_ticks.iter().any(|t| t % period == period - 1),
            "no finish on the tick before a {what} tick: {last_ticks:?}"
        );
    }
}

/// Shifting every submit time, and the horizon, by a whole number of
/// scheduling intervals leaves every job's completion time where it
/// was: nothing in a tick, a hold, a report or a round depends on
/// absolute time. Submit times are not whole ticks, the cluster is
/// contended (20 jobs asking for 4 of 16 GPUs each, or Tiresias
/// preempting), and `finish − submit` may move in its last places only.
#[test]
fn shifting_every_submit_time_leaves_the_jcts_alone() {
    let spec = ClusterSpec::homogeneous(4, 4).unwrap();
    let sorted_jcts = |shift: f64, policy: Box<dyn SchedulingPolicy>| -> Vec<f64> {
        let cfg = SimConfig {
            max_sim_time: 8.0 * 3600.0 + shift,
            interference_slowdown: 0.1,
            seed: 13,
            ..Default::default()
        };
        let mut workload = jobs(20, 137.3, 9, 1.0);
        assert_eq!(workload.len(), 20);
        for (job, _) in &mut workload {
            job.submit_time += 41.7 + shift;
        }
        let res = Simulation::try_new(cfg, spec.clone(), policy, workload)
            .unwrap()
            .run();
        let mut jcts: Vec<f64> = res.records.iter().filter_map(|r| r.jct()).collect();
        jcts.sort_by(f64::total_cmp);
        jcts
    };
    type MakePolicy = fn() -> Box<dyn SchedulingPolicy>;
    let policies: [(&str, MakePolicy); 2] = [
        ("tiresias", || Box::new(tiresias())),
        ("fcfs", || Box::new(Fcfs { gpus: 4 })),
    ];
    for (name, policy) in policies {
        let base = sorted_jcts(0.0, policy());
        assert!(base.len() >= 15, "{name}: {} finished", base.len());
        for intervals in [1.0, 977.0] {
            let shifted = sorted_jcts(intervals * SCHED_INTERVAL, policy());
            assert_eq!(shifted.len(), base.len(), "{name} +{intervals}");
            for (a, b) in base.iter().zip(&shifted) {
                assert!((a - b).abs() <= 1e-6, "{name} +{intervals}: {a} vs {b}");
            }
        }
    }
}
