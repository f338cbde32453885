//! Per-layer probes: single public functions of one crate, timed from
//! outside on inputs made from the seed. They price the pieces a
//! repetition spends its time in (a θsys fit, a speedup-table build,
//! a planner round) so a later change can name the piece it moved.
//!
//! Each probe repeats its call a fixed number of times and reports the
//! fastest: the host's noise only ever adds time.

use pollux_agent::ThroughputProfiler;
use pollux_cluster::{AllocationMatrix, ClusterSpec};
use pollux_control::{
    PlacementDelta, PolicyJobView, RoundPlanner, SchedJobCache, SchedulingPolicy,
};
use pollux_models::{
    fit_throughput_params, fit_throughput_params_warm, EfficiencyModel, GoodputModel,
    PlacementShape,
};
use pollux_sched::{SchedJob, SpeedupTable, WeightConfig};
use pollux_telemetry::{chrome, Event};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator, UserConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Fastest of `reps` calls of `f`, in nanoseconds.
fn fastest_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn shape(gpus: u32, nodes: u32) -> PlacementShape {
    PlacementShape::new(gpus, nodes).expect("static probe shapes are valid")
}

/// The allocations a job of the paper's testbed walks through as it
/// grows, used to synthesise profiler observations.
const GROWTH: [(u32, u32); 6] = [(1, 1), (2, 1), (4, 1), (8, 2), (12, 3), (16, 4)];

/// A profiler that saw `kind` at every [`GROWTH`] step but the last,
/// at `m0` and at twice `m0`, with noise-free iteration times.
fn profiler_of(kind: ModelKind) -> ThroughputProfiler {
    let profile = kind.profile();
    let mut profiler = ThroughputProfiler::new();
    for &(gpus, nodes) in &GROWTH[..GROWTH.len() - 1] {
        let s = shape(gpus, nodes);
        for batch in [profile.m0, 2 * profile.m0] {
            if profile
                .limits
                .range(s)
                .is_some_and(|(lo, hi)| (lo..=hi).contains(&batch))
            {
                profiler.record(s, batch, profile.params.t_iter(s, batch));
            }
        }
    }
    profiler
}

/// `models.fit_cold_us`, `models.fit_warm_us`, `models.speedup_us`:
/// medians over the five Table-1 models of a cold θsys fit, of the
/// warm refit after one new observation, and of one sweep of
/// `GoodputModel::speedup` over 1–16 GPUs.
pub fn models() -> [(&'static str, f64); 3] {
    let (mut cold, mut warm, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
    for kind in ModelKind::ALL {
        let profile = kind.profile();
        let mut profiler = profiler_of(kind);
        let obs = profiler.observations();
        let priors = profiler.priors();
        cold.push(fastest_ns(3, || fit_throughput_params(&obs, priors)));
        let fitted = fit_throughput_params(&obs, priors).expect("observations are finite");

        let (gpus, nodes) = GROWTH[GROWTH.len() - 1];
        let grown = shape(gpus, nodes);
        profiler.record(grown, profile.m0, profile.params.t_iter(grown, profile.m0));
        let obs = profiler.observations();
        let priors = profiler.priors();
        warm.push(fastest_ns(3, || {
            fit_throughput_params_warm(&obs, priors, Some(&fitted.params))
        }));

        let efficiency = EfficiencyModel::from_noise_scale(profile.m0, profile.gns.phi(0.5))
            .expect("profile noise scales are valid");
        let model = GoodputModel::new(fitted.params, efficiency, profile.limits)
            .expect("efficiency m0 matches the limits");
        speedup.push(fastest_ns(5, || {
            (1..=16u32)
                .map(|k| model.speedup(shape(k, k.div_ceil(4))))
                .sum::<f64>()
        }));
    }
    let median_us = |v: &[f64]| crate::stats::median(v).expect("five models") / 1e3;
    [
        ("models.fit_cold_us", median_us(&cold)),
        ("models.fit_warm_us", median_us(&warm)),
        ("models.speedup_us", median_us(&speedup)),
    ]
}

fn trace(num_jobs: usize, seed: u64) -> Vec<JobSpec> {
    TraceGenerator::new(TraceConfig {
        num_jobs,
        seed,
        ..Default::default()
    })
    .expect("static trace sizes are valid")
    .generate()
}

/// `workload.tracegen_ms`: generating a 10 000-job trace.
pub fn workload(seed: u64) -> [(&'static str, f64); 1] {
    [(
        "workload.tracegen_ms",
        fastest_ns(3, || trace(10_000, seed)) / 1e6,
    )]
}

/// The 160 `paper_trace` jobs as the scheduler sees them mid-run:
/// ground-truth θsys, mid-training noise scale, the tuned GPU count as
/// the scale-out cap.
fn paper_sched_jobs(seed: u64) -> Vec<SchedJob> {
    trace(160, seed)
        .iter()
        .map(|job| {
            let profile = job.kind.profile();
            let efficiency = EfficiencyModel::from_noise_scale(profile.m0, profile.gns.phi(0.5))
                .expect("profile noise scales are valid");
            SchedJob {
                id: job.id,
                model: GoodputModel::new(profile.params, efficiency, profile.limits)
                    .expect("efficiency m0 matches the limits"),
                min_gpus: profile.limits.min_gpus().max(1),
                gpu_cap: job.tuned.gpus.max(2),
                weight: 1.0,
                current_placement: vec![0; 16],
            }
        })
        .collect()
}

/// `sched.table_build_cold_ms` and `sched.table_build_reuse_ms`: a
/// speedup table for the 160 `paper_trace` jobs on 16 × 4 GPUs from
/// nothing, and again reusing it after 5 % of the rows went stale.
pub fn sched(seed: u64) -> [(&'static str, f64); 2] {
    let spec = ClusterSpec::homogeneous(16, 4).expect("static cluster size");
    let jobs = paper_sched_jobs(seed);
    let cold = fastest_ns(3, || SpeedupTable::build(&jobs, &spec, 1));
    let prev = SpeedupTable::build(&jobs, &spec, 1);
    let mut dirtied = jobs.clone();
    for job in dirtied.iter_mut().step_by(20) {
        job.gpu_cap += 1;
    }
    let reuse = fastest_ns(3, || {
        SpeedupTable::build_reusing(&dirtied, &spec, 1, Some(&prev))
    });
    [
        ("sched.table_build_cold_ms", cold / 1e6),
        ("sched.table_build_reuse_ms", reuse / 1e6),
    ]
}

/// Keeps every placement, except that the first `churn` running jobs
/// release their GPUs; answers through the sparse path only.
struct KeepPolicy {
    churn: usize,
}

impl SchedulingPolicy for KeepPolicy {
    fn name(&self) -> &'static str {
        "keep-current"
    }

    fn schedule(
        &mut self,
        _now: f64,
        _jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        unreachable!("the planner consults schedule_sparse first")
    }

    fn schedule_sparse(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<Vec<PlacementDelta>> {
        Some(
            jobs.iter()
                .enumerate()
                .filter(|(_, view)| view.is_running())
                .take(self.churn)
                .map(|(row, _)| PlacementDelta {
                    row,
                    gpus: Vec::new(),
                })
                .collect(),
        )
    }
}

/// `control.plan_quiet_us`, `control.plan_churn_us`,
/// `control.cache_refresh_us`: a warmed `RoundPlanner::plan` over 2 500
/// views on 256 nodes with 0 and with 8 changed rows, and a quiet
/// `SchedJobCache::refresh` over the same views.
pub fn control(seed: u64) -> [(&'static str, f64); 3] {
    const NODES: usize = 256;
    let spec = ClusterSpec::homogeneous(NODES as u32, 4).expect("static cluster size");
    let specs = trace(2_500, seed);
    let placements: Vec<Vec<u32>> = (0..specs.len())
        .map(|j| {
            let mut row = vec![0u32; NODES];
            if j < NODES * 4 {
                row[j / 4] = 1;
            }
            row
        })
        .collect();
    let views: Vec<PolicyJobView<'_>> = specs
        .iter()
        .zip(&placements)
        .map(|(job, placement)| PolicyJobView {
            id: job.id,
            user: UserConfig {
                gpus: job.tuned.gpus,
                batch_size: job.tuned.batch_size,
            },
            profile: None,
            limits: job.kind.profile().limits,
            report: None,
            gputime: 0.0,
            submit_time: job.submit_time,
            current_placement: placement,
            started: true,
            batch_size: job.tuned.batch_size,
            remaining_work: 1.0e9,
        })
        .collect();

    let plan_ns = |churn: usize| {
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut policy = KeepPolicy { churn };
        fastest_ns(20, || {
            planner
                .plan(&mut policy, 60.0, &views, &spec, &mut rng)
                .expect("trace job ids are unique")
        })
    };
    let weights = WeightConfig::default();
    let mut cache = SchedJobCache::default();
    cache.refresh(&weights, &views);
    let refresh = fastest_ns(20, || cache.refresh(&weights, &views).len());
    [
        ("control.plan_quiet_us", plan_ns(0) / 1e3),
        ("control.plan_churn_us", plan_ns(8) / 1e3),
        ("control.cache_refresh_us", refresh / 1e3),
    ]
}

/// `telemetry.to_jsonl_ns` (per event) and `telemetry.chrome_export_ms`
/// on the capture of a traced repetition.
pub fn telemetry(events: &[Event]) -> [(&'static str, f64); 2] {
    let per_event = if events.is_empty() {
        0.0
    } else {
        fastest_ns(2, || {
            events.iter().map(|e| e.to_jsonl().len()).sum::<usize>()
        }) / events.len() as f64
    };
    let chrome = fastest_ns(2, || chrome::chrome_trace(events).len());
    [
        ("telemetry.to_jsonl_ns", per_event),
        ("telemetry.chrome_export_ms", chrome / 1e6),
    ]
}
