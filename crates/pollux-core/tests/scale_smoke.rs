//! Datacenter-scale smoke test: the full Pollux stack (engine +
//! agents + racked two-phase GA + planner) over a 256-node × 1 000-job
//! trace, `#[ignore]`d so the debug `cargo test` stays fast.
//!
//! Run with:
//!
//! ```text
//! cargo test --release -q -- --include-ignored
//! ```
//!
//! which runs every ignored test of the workspace. Besides completing at
//! all — which the dense structures did not at this size within any
//! reasonable budget — the run must fit a generous wall-clock envelope,
//! so gross scaling regressions (an accidental O(nodes · jobs) rescan
//! per chunk, a dense table at cluster width) fail loudly rather than
//! slowly.

use pollux_cluster::ClusterSpec;
use pollux_core::{ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_sched::GaConfig;
use pollux_simulator::SimConfig;
use pollux_workload::{TraceConfig, TraceGenerator};
use std::time::{Duration, Instant};

/// Wall-clock budget for the whole simulated run (release build).
/// Locally this completes in well under a third of the budget; the
/// slack absorbs shared-runner jitter, not algorithmic regressions —
/// a dense-path regression overshoots by an order of magnitude.
const BUDGET: Duration = Duration::from_secs(300);

#[test]
#[ignore = "datacenter-scale; run by `cargo test --release -q -- --include-ignored`"]
fn datacenter_scale_trace_completes_within_budget() {
    if cfg!(debug_assertions) {
        eprintln!("scale smoke wants --release (the budget assumes it)");
    }

    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 1_000,
        duration_hours: 1.0,
        max_gpus: 8,
        seed: 2025,
        ..Default::default()
    })
    .expect("static trace config is valid")
    .generate();

    let mut c = PolluxConfig::default();
    c.sched.ga = GaConfig {
        population: 12,
        generations: 8,
        ..Default::default()
    };
    let policy = PolluxPolicy::new(c).unwrap();
    let spec = ClusterSpec::homogeneous(256, 4).unwrap();
    let sim = SimConfig {
        max_sim_time: 1.5 * 3600.0,
        nodes_per_rack: 16,
        ..Default::default()
    };

    let start = Instant::now();
    let result = pollux_core::run_trace(policy, &trace, ConfigChoice::Tuned, spec, sim)
        .expect("valid simulation inputs");
    let elapsed = start.elapsed();

    assert_eq!(result.records.len(), 1_000, "every job must be simulated");
    let started = result
        .records
        .iter()
        .filter(|j| j.start_time.is_some())
        .count();
    assert!(
        started > 0,
        "the racked scheduler never placed a single job"
    );
    eprintln!(
        "scale smoke: 256 nodes x 1000 jobs, {} started, wall {:.1}s (budget {:.0}s)",
        started,
        elapsed.as_secs_f64(),
        BUDGET.as_secs_f64()
    );
    assert!(
        elapsed <= BUDGET,
        "datacenter-scale run blew the wall-clock budget: {:.1}s > {:.0}s",
        elapsed.as_secs_f64(),
        BUDGET.as_secs_f64()
    );
}

/// A *quiet* round — same jobs, same placements, a policy with nothing
/// to change — must be O(churn): the planner materializes zero
/// reallocation rows and the view → `SchedJob` cache rebuilds zero
/// entries, even at 256 nodes × 1 000 jobs.
#[test]
#[ignore = "datacenter-scale; run by `cargo test --release -q -- --include-ignored`"]
fn quiet_round_materializes_no_rows_and_rebuilds_no_views() {
    use pollux_cluster::{AllocationMatrix, JobId};
    use pollux_control::{
        PlacementDelta, PolicyJobView, RoundPlanner, SchedJobCache, SchedulingPolicy,
    };
    use pollux_models::BatchSizeLimits;
    use pollux_sched::WeightConfig;
    use pollux_workload::UserConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const NODES: usize = 256;
    const JOBS: usize = 1_000;
    let spec = ClusterSpec::homogeneous(NODES as u32, 4).unwrap();

    /// Sparse keep-everything policy: steady state has no deltas.
    struct Keep;
    impl SchedulingPolicy for Keep {
        fn name(&self) -> &'static str {
            "keep"
        }
        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[PolicyJobView<'_>],
            _spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            panic!(
                "quiet rounds must stay on the sparse path ({} jobs)",
                jobs.len()
            )
        }
        fn schedule_sparse(
            &mut self,
            _now: f64,
            _jobs: &[PolicyJobView<'_>],
            _spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> Option<Vec<PlacementDelta>> {
            Some(Vec::new())
        }
    }

    // Every job pinned to one GPU on a node, round-robin.
    let placements: Vec<Vec<u32>> = (0..JOBS)
        .map(|j| {
            let mut p = vec![0u32; NODES];
            p[j % NODES] = 1;
            p
        })
        .collect();
    let limits = BatchSizeLimits::new(128, 4096, 512).unwrap();
    let views: Vec<PolicyJobView<'_>> = placements
        .iter()
        .enumerate()
        .map(|(j, p)| PolicyJobView {
            id: JobId(j as u32),
            user: UserConfig {
                gpus: 1,
                batch_size: 128,
            },
            profile: None,
            limits,
            report: None,
            gputime: 60.0,
            submit_time: 0.0,
            current_placement: p,
            started: true,
            batch_size: 128,
            remaining_work: 1e9,
        })
        .collect();

    let mut planner = RoundPlanner::new();
    let mut cache = SchedJobCache::default();
    let mut rng = StdRng::seed_from_u64(7);
    let weights = WeightConfig::default();

    // Round 1 warms both: the cache builds every entry, the planner
    // caches the id sequence.
    cache.refresh(&weights, &views);
    let out = planner
        .plan(&mut Keep, 0.0, &views, &spec, &mut rng)
        .unwrap();
    assert!(out.is_empty());
    assert_eq!(cache.last_rebuilt() as usize, JOBS);

    // Round 2 is quiet: zero rows materialized, zero views rebuilt.
    cache.refresh(&weights, &views);
    let out = planner
        .plan(&mut Keep, 60.0, &views, &spec, &mut rng)
        .unwrap();
    // A row is materialized exactly when it becomes a reallocation.
    assert!(out.is_empty(), "quiet round materialized rows");
    assert_eq!(cache.last_rebuilt(), 0, "quiet round rebuilt views");
    eprintln!(
        "quiet round: {} nodes x {} jobs, 0 rows materialized, 0 views rebuilt",
        NODES, JOBS
    );
}
