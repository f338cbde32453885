//! Property tests for the staged-scheduler composition contract.
//!
//! Whatever stages a `StagedScheduler` composes, three invariants must
//! hold (DESIGN.md §10):
//!
//! - **Feasibility**: the composed matrix fits the cluster spec, so
//!   the round planner's defensive clamp never fires. Placement owns
//!   this; the tests drive every zoo policy over random jobs, random
//!   cluster shapes, and random pre-existing (collectively feasible)
//!   placements.
//! - **Preemption scope**: a no-preemption composition keeps every
//!   running job's placement byte-identical on a static cluster.
//! - **Determinism**: the full simulated trajectory is a pure function
//!   of the seed — the admission order feeds placement directly, so
//!   one out-of-order admit (an unordered map walk, say) would flip
//!   the serialized `SimResult`.

use pollux_baselines::{fifo_backfill, gandiva_packing, optimus, or_etal, srsf, srtf, tiresias};
use pollux_cluster::{ClusterSpec, JobId};
use pollux_control::{pack_consolidated, PolicyJobView, SchedulingPolicy, StagedScheduler};
use pollux_core::{run_trace, ConfigChoice};
use pollux_models::BatchSizeLimits;
use pollux_simulator::SimConfig;
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator, UserConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Raw per-job generator output: `(requested gpus, submit time,
/// wants-to-be-running flag, attained gpu-time)`.
type RawJob = (u32, f64, u32, f64);

fn raw_jobs() -> impl Strategy<Value = Vec<RawJob>> {
    proptest::collection::vec(
        (1u32..=6, 0.0..10_000.0f64, 0u32..2, 0.0..20_000.0f64),
        1..12,
    )
}

/// Builds collectively-feasible placements for the jobs flagged
/// running: each packs consolidated into what capacity is left, and
/// jobs that no longer fit fall back to pending. Returns one
/// placement row per job (all-zero = pending).
fn seed_placements(raw: &[RawJob], spec: &ClusterSpec) -> Vec<Vec<u32>> {
    let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();
    raw.iter()
        .map(|&(gpus, _, running, _)| {
            if running == 0 {
                return vec![0u32; free.len()];
            }
            // `pack_consolidated` deducts granted GPUs in place, so
            // later jobs see the shrunk capacities.
            pack_consolidated(gpus, &mut free).unwrap_or_else(|| vec![0u32; free.len()])
        })
        .collect()
}

fn views<'a>(raw: &[RawJob], placements: &'a [Vec<u32>]) -> Vec<PolicyJobView<'a>> {
    raw.iter()
        .zip(placements)
        .enumerate()
        .map(
            |(i, (&(gpus, submit, _, gputime), placement))| PolicyJobView {
                id: JobId(i as u32),
                user: UserConfig {
                    gpus,
                    batch_size: 128,
                },
                profile: None,
                limits: BatchSizeLimits::new(128, 1024, 512).unwrap(),
                report: None,
                gputime,
                submit_time: submit,
                current_placement: placement,
                started: placement.iter().any(|&g| g > 0),
                batch_size: 128,
                remaining_work: 1e6 * (1.0 + gputime),
            },
        )
        .collect()
}

/// Every staged policy in the zoo, freshly built.
fn zoo() -> Vec<StagedScheduler> {
    vec![
        tiresias(),
        optimus(),
        or_etal(16),
        srtf(),
        srsf(),
        fifo_backfill(),
        gandiva_packing(),
    ]
}

proptest! {
    /// The composed matrix always fits the spec — the planner clamp
    /// downstream is dead code for every zoo policy.
    #[test]
    fn composed_output_is_feasible(
        raw in raw_jobs(),
        nodes in 1u32..=6,
        gpn in 1u32..=8,
        seed in 0u64..1024,
    ) {
        let spec = ClusterSpec::homogeneous(nodes, gpn).unwrap();
        let placements = seed_placements(&raw, &spec);
        let jobs = views(&raw, &placements);
        for mut policy in zoo() {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = policy.schedule(0.0, &jobs, &spec, &mut rng);
            prop_assert!(
                m.is_feasible(&spec),
                "{} produced an infeasible matrix on {nodes}x{gpn}: {m:?}",
                policy.name()
            );
            prop_assert_eq!(m.num_jobs(), jobs.len());
        }
    }

    /// A no-preemption composition on a static cluster keeps every
    /// running job's placement row byte-identical.
    #[test]
    fn no_preemption_never_disturbs_running_jobs(
        raw in raw_jobs(),
        nodes in 1u32..=6,
        gpn in 1u32..=8,
        seed in 0u64..1024,
    ) {
        let spec = ClusterSpec::homogeneous(nodes, gpn).unwrap();
        let placements = seed_placements(&raw, &spec);
        let jobs = views(&raw, &placements);
        let mut policy = fifo_backfill();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = policy.schedule(0.0, &jobs, &spec, &mut rng);
        for (row, job) in jobs.iter().enumerate() {
            if job.is_running() {
                prop_assert_eq!(
                    m.row(row),
                    job.current_placement,
                    "running row {row} disturbed under no-preemption"
                );
            }
        }
    }
}

/// 16 staggered jobs for the determinism runs (small enough that
/// 7 policies × 2 runs stay cheap).
fn churn_trace_16() -> Vec<JobSpec> {
    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 80,
        seed: 13,
        ..Default::default()
    })
    .unwrap()
    .generate();
    trace
        .into_iter()
        .filter(|j| j.kind == ModelKind::ResNet18Cifar10 || j.kind == ModelKind::NeuMFMovieLens)
        .take(16)
        .enumerate()
        .map(|(i, mut spec)| {
            spec.id = JobId(i as u32);
            spec.submit_time = i as f64 * 120.0;
            spec.work *= 0.05;
            spec
        })
        .collect()
}

/// Runs every zoo policy and digests each trajectory — tiny failure
/// output instead of two multi-megabyte texts.
fn run_all(trace: &[JobSpec], spec: &ClusterSpec) -> Vec<(String, u64)> {
    zoo()
        .into_iter()
        .map(|policy| {
            let sim = SimConfig {
                max_sim_time: 12.0 * 3600.0,
                interference_slowdown: 0.3,
                seed: 17,
                ..Default::default()
            };
            let name = policy.name().to_string();
            let res = run_trace(policy, trace, ConfigChoice::Tuned, spec.clone(), sim)
                .expect("valid simulation inputs");
            (name, res.digest())
        })
        .collect()
}

/// The full simulated trajectory — admission order included — is
/// identical from run to run for every zoo policy. (The staged
/// policies spawn no threads; `determinism.rs` varies the worker count
/// under the racked Pollux policy.)
#[test]
fn staged_trajectories_are_a_function_of_the_seed() {
    let trace = churn_trace_16();
    let spec = ClusterSpec::homogeneous(8, 4).unwrap();
    let base = run_all(&trace, &spec);
    assert_eq!(base.len(), 7, "zoo shrank");
    assert_eq!(base, run_all(&trace, &spec), "some trajectory differs");
}
