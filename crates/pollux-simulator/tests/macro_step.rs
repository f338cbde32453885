//! Determinism suite for the event-sparse simulation engine.
//!
//! The engine's contract is that restructuring the tick loop around
//! event horizons and persistent run contexts is a pure performance
//! change: for a fixed seed the
//! `SimResult` must be **byte-identical** (compared through its
//! serialized form, which exposes every f64 bit pattern) to the
//! reference tick-stepper the repo retains in
//! [`Simulation::run_reference`]. Two layers pin that contract:
//!
//! 1. golden-trajectory digests: FNV-1a64 hashes of serialized
//!    `SimResult`s for fixed seed/workload pairs, captured from the
//!    pre-refactor engine (commit `80aa410`) and moved only by a
//!    change of model that says so beside the constant;
//! 2. a proptest driving both steppers over random small workloads
//!    (varied arrivals, restart churn, interference) and requiring
//!    bitwise-equal results.

use pollux_cluster::{AllocationMatrix, ClusterSpec, JobId};
use pollux_simulator::{PolicyJobView, SchedulingPolicy, SimConfig, SimResult, Simulation};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator, UserConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// Small-model workload with staggered arrivals.
fn workload(n: usize, stagger: f64, seed: u64) -> Vec<(JobSpec, UserConfig)> {
    workload_scaled(n, stagger, seed, 1.0)
}

/// [`workload`] with every job's total work scaled by `work_scale`.
/// Small scales force jobs to cross their finish line in the middle of
/// long chunks, exercising the stepper's end-the-chunk-on-a-finish
/// path.
fn workload_scaled(
    n: usize,
    stagger: f64,
    seed: u64,
    work_scale: f64,
) -> Vec<(JobSpec, UserConfig)> {
    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 40,
        seed,
        ..Default::default()
    })
    .unwrap()
    .generate();
    trace
        .into_iter()
        .filter(|j| j.kind == ModelKind::ResNet18Cifar10 || j.kind == ModelKind::NeuMFMovieLens)
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

/// A deliberately churny policy: placements rotate with a slow phase,
/// so jobs suffer periodic restarts and preemptions, and distributed
/// jobs overlap on shared nodes (exercising interference). It also
/// lets agents re-tune batch sizes, driving the report-path RNG draws.
#[derive(Clone, Copy)]
struct Churn;

impl SchedulingPolicy for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn adapts_batch_size(&self) -> bool {
        true
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
        for (j, _) in jobs.iter().enumerate() {
            // Jobs alternate between a 1-GPU solo placement and a
            // 2-node distributed placement whose node pair rotates.
            let start = (j + phase) % nodes;
            if (j + phase).is_multiple_of(3) {
                m.set(j, start, 1);
                m.set(j, (start + 1) % nodes, 1);
            } else {
                m.set(j, start, 1);
            }
        }
        m
    }
}

/// FCFS packing (copy of the engine's doc-test idiom): stable
/// placements, no churn — the quiet counterpart of [`Churn`].
#[derive(Clone, Copy)]
struct FcfsPacked {
    gpus: u32,
}

impl SchedulingPolicy for FcfsPacked {
    fn name(&self) -> &'static str {
        "fcfs-packed"
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
            let mut need = self.gpus;
            for (n, f) in free.iter_mut().enumerate() {
                if need == 0 {
                    break;
                }
                let take = need.min(*f);
                if take > 0 {
                    m.set(j, n, take);
                    *f -= take;
                    need -= take;
                }
            }
            if need > 0 {
                for (n, f) in free.iter_mut().enumerate() {
                    *f += m.get(j, n);
                    m.set(j, n, 0);
                }
            }
        }
        m
    }
}

fn churn_config() -> SimConfig {
    SimConfig {
        max_sim_time: 6.0 * 3600.0,
        interference_slowdown: 0.3,
        seed: 5,
        ..Default::default()
    }
}

fn quiet_config() -> SimConfig {
    SimConfig {
        max_sim_time: 12.0 * 3600.0,
        seed: 7,
        ..Default::default()
    }
}

/// Which engine variant a run goes through. Both must be
/// bit-identical for a fixed seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stepper {
    /// `Simulation::run`: chunks over persistent run contexts.
    Macro,
    /// `Simulation::run_reference`: the pre-refactor one-tick loop.
    Reference,
}

fn result_of<P: SchedulingPolicy>(
    cfg: SimConfig,
    spec: ClusterSpec,
    policy: P,
    wl: Vec<(JobSpec, UserConfig)>,
    stepper: Stepper,
) -> SimResult {
    let sim = Simulation::try_new(cfg, spec, policy, wl).unwrap();
    match stepper {
        Stepper::Macro => sim.run(),
        Stepper::Reference => sim.run_reference(),
    }
}

fn digest_of<P: SchedulingPolicy>(
    cfg: SimConfig,
    spec: ClusterSpec,
    policy: P,
    wl: Vec<(JobSpec, UserConfig)>,
) -> u64 {
    result_of(cfg, spec, policy, wl, Stepper::Macro).digest()
}

/// Panics with the first differing byte region when two serialized
/// results are not identical (mirrors `pollux-core`'s determinism
/// suite so divergences are easy to localize).
fn assert_byte_identical(macro_stepped: &str, reference: &str, label: &str) {
    if macro_stepped == reference {
        return;
    }
    let at = macro_stepped
        .bytes()
        .zip(reference.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| macro_stepped.len().min(reference.len()));
    let lo = at.saturating_sub(80);
    panic!(
        "{label}: macro-stepped result diverged from the reference \
         stepper at byte {at}\n  macro: …{}…\n  ref:   …{}…",
        &macro_stepped[lo..(at + 80).min(macro_stepped.len())],
        &reference[lo..(at + 80).min(reference.len())],
    );
}

/// Golden digests captured from the pre-refactor 1 s tick loop. If one
/// of these changes, the engine's trajectory changed — that is a
/// correctness regression, not an acceptable side effect of a
/// performance PR.
///
/// `GOLDEN_CHURN` was re-pinned once (from `0x3cf2_5ae5_ac27_01e5`) by
/// the exact-gradient θsys solve (issue 12: analytic value+gradient,
/// mean squared log error, no Nelder-Mead polish). The fit reaches the
/// same optimum to ~4 digits of RMSLE but not to the bit, and the churn
/// jobs tune their batch size from the fitted θsys, so their progress
/// moves in the last places. The engine did not change: all three
/// steppers, every thread count and the rack-configured run moved to
/// this one value together, and `GOLDEN_QUIET` — whose jobs' tuning is
/// insensitive to those last places — did not move.
///
/// Both were re-pinned once more (from `0x2955_6c26_7cbf_bb45` and
/// `0x5454_2cce_0419_5e8c`) by PR 20 — φ held ≤ 1 % per sub-interval of
/// progress. That one *is* a change of the reference, made on purpose:
/// the ground-truth φ that drives progress became piecewise constant
/// (`SimJob::held_efficiency_at`), in `run` and `run_reference` alike,
/// so that a tick stops paying a `pow`. Every job here trains above its
/// `m0`, so every progress value moved in its low digits; what a job
/// does within a tick of its old finish is bounded by the unit tests
/// beside the hold, and `run` ≡ `run_reference` stays bitwise.
///
/// Both were re-pinned once more (from `0x8643_ab6c_927e_fda9` and
/// `0x8bbf_96a6_0d71_c9aa`), with no trajectory moving, when
/// `SimResult` lost its event log and its per-job series: the digested
/// text lost two fields, and each new constant is what the old code
/// printed for the same run rendered without them.
///
/// And once more (from `0x3496_873d_4527_b3ba` and
/// `0xaa17_3923_d98e_29a1`), again with no trajectory moving, when
/// `SimResult` lost its per-interval scheduler counters (they leave
/// through the telemetry recorder alone): each new constant is what the
/// old code printed for the same run rendered without that field.
const GOLDEN_CHURN: u64 = 0x273d_cb6d_927c_2255;
const GOLDEN_QUIET: u64 = 0x54df_f372_6bfd_d43c;

#[test]
fn golden_trajectory_churn() {
    let spec = ClusterSpec::homogeneous(3, 4).unwrap();
    let d = digest_of(churn_config(), spec, Churn, workload(8, 300.0, 3));
    assert_eq!(
        d, GOLDEN_CHURN,
        "macro-stepped engine diverged from the pinned pre-refactor trajectory: 0x{d:016x}"
    );
}

#[test]
fn golden_trajectory_quiet() {
    let spec = ClusterSpec::homogeneous(2, 4).unwrap();
    let d = digest_of(
        quiet_config(),
        spec,
        FcfsPacked { gpus: 2 },
        workload(6, 45.0, 11),
    );
    assert_eq!(
        d, GOLDEN_QUIET,
        "macro-stepped engine diverged from the pinned pre-refactor trajectory: 0x{d:016x}"
    );
}

/// The retained reference stepper must reproduce the same pinned
/// digests — it *is* the pre-refactor engine.
#[test]
fn reference_stepper_matches_goldens() {
    let churn = result_of(
        churn_config(),
        ClusterSpec::homogeneous(3, 4).unwrap(),
        Churn,
        workload(8, 300.0, 3),
        Stepper::Reference,
    )
    .digest();
    assert_eq!(churn, GOLDEN_CHURN, "reference drifted: 0x{churn:016x}");
    let quiet = result_of(
        quiet_config(),
        ClusterSpec::homogeneous(2, 4).unwrap(),
        FcfsPacked { gpus: 2 },
        workload(6, 45.0, 11),
        Stepper::Reference,
    )
    .digest();
    assert_eq!(quiet, GOLDEN_QUIET, "reference drifted: 0x{quiet:016x}");
}

/// Forced mid-chunk finishes: scale every job's work down so jobs
/// cross their finish line far from any event horizon, then require
/// the stepper to match the reference tick loop bit for bit. This pins the rule that a chunk ends after the
/// tick of the earliest finish, every other job having run exactly
/// that tick too, without consuming extra RNG draws.
#[test]
fn mid_chunk_finishes_are_bit_identical_across_steppers() {
    for work_scale in [0.01f64, 0.05, 0.2] {
        let wl = workload_scaled(8, 300.0, 3, work_scale);
        let spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let [stepped, reference] = [Stepper::Macro, Stepper::Reference].map(|s| {
            result_of(churn_config(), spec.clone(), Churn, wl.clone(), s).canonical_text()
        });
        assert_byte_identical(&stepped, &reference, &format!("work_scale={work_scale}"));
    }
}

/// The `nodes_per_rack` knob must not perturb a single byte of the
/// pinned trajectories: these policies ignore the topology hint, and
/// the degenerate (single-rack) grouping is defined to be inert even
/// for rack-aware policies (pollux-core's `rack_golden` suite pins
/// that half of the contract for the real Pollux stack).
#[test]
fn golden_digests_hold_with_rack_topology_configured() {
    // Exactly one rack (nodes_per_rack == num_nodes), one rack by
    // saturation (>= num_nodes), and a genuinely multi-rack grouping —
    // all inert for topology-blind policies.
    for npr in [3u32, 64, 2] {
        let cfg = SimConfig {
            nodes_per_rack: npr,
            ..churn_config()
        };
        let spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let d = digest_of(cfg, spec, Churn, workload(8, 300.0, 3));
        assert_eq!(
            d, GOLDEN_CHURN,
            "nodes_per_rack={npr} perturbed the churn trajectory: 0x{d:016x}"
        );
    }
    for npr in [2u32, 16] {
        let cfg = SimConfig {
            nodes_per_rack: npr,
            ..quiet_config()
        };
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let d = digest_of(cfg, spec, FcfsPacked { gpus: 2 }, workload(6, 45.0, 11));
        assert_eq!(
            d, GOLDEN_QUIET,
            "nodes_per_rack={npr} perturbed the quiet trajectory: 0x{d:016x}"
        );
    }
}

/// Attaching a live telemetry recorder must not perturb the simulated
/// trajectory by a single byte: telemetry reads simulation state but
/// never feeds back into RNG draws or float accumulation order. The
/// pinned goldens double as the oracle.
#[test]
fn golden_trajectories_survive_live_telemetry() {
    use pollux_telemetry::{MemorySink, Recorder};
    use std::sync::Arc;

    let digest_with_recorder = |cfg: SimConfig,
                                spec: ClusterSpec,
                                policy: Box<dyn SchedulingPolicy>,
                                wl: Vec<(JobSpec, UserConfig)>|
     -> (u64, usize) {
        let sink = Arc::new(MemorySink::new(1 << 16));
        let recorder = Recorder::new(sink.clone() as Arc<dyn pollux_telemetry::Sink>);
        let result = Simulation::try_new(cfg, spec, policy, wl)
            .unwrap()
            .with_recorder(recorder)
            .run();
        (result.digest(), sink.len())
    };

    let (churn, churn_events) = digest_with_recorder(
        churn_config(),
        ClusterSpec::homogeneous(3, 4).unwrap(),
        Box::new(Churn),
        workload(8, 300.0, 3),
    );
    assert_eq!(
        churn, GOLDEN_CHURN,
        "telemetry perturbed the churn trajectory: 0x{churn:016x}"
    );
    let (quiet, quiet_events) = digest_with_recorder(
        quiet_config(),
        ClusterSpec::homogeneous(2, 4).unwrap(),
        Box::new(FcfsPacked { gpus: 2 }),
        workload(6, 45.0, 11),
    );
    assert_eq!(
        quiet, GOLDEN_QUIET,
        "telemetry perturbed the quiet trajectory: 0x{quiet:016x}"
    );

    // Prove the recorder was actually live (not silently disabled).
    assert!(churn_events > 0, "churn run recorded no telemetry events");
    assert!(quiet_events > 0, "quiet run recorded no telemetry events");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Bitwise equality of the engine and the reference tick-stepper
    /// on random small workloads: varied arrival staggering, cluster
    /// shapes, interference levels, measurement noise, work scales
    /// small enough to force mid-chunk finishes,
    /// and both churny (restart/preemption/interference-heavy) and
    /// quiet placement policies.
    #[test]
    fn macro_step_equals_reference_stepper(
        n_jobs in 1usize..6,
        stagger in 0.0f64..900.0,
        wl_seed in 0u64..1_000,
        sim_seed in 0u64..1_000,
        nodes in 1u32..4,
        gpus in 2u32..5,
        interference in 0.0f64..0.7,
        noise in 0.0f64..0.15,
        hours in 0.4f64..2.5,
        churny in 0u32..2,
        work_scale in 0.02f64..1.0,
    ) {
        let cfg = SimConfig {
            max_sim_time: hours * 3600.0,
            interference_slowdown: interference,
            measurement_noise: noise,
            seed: sim_seed,
            ..Default::default()
        };
        let spec = ClusterSpec::homogeneous(nodes, gpus).unwrap();
        let wl = workload_scaled(n_jobs, stagger, wl_seed, work_scale);
        let runs = [Stepper::Macro, Stepper::Reference].map(|s| {
            if churny == 1 {
                result_of(cfg, spec.clone(), Churn, wl.clone(), s)
            } else {
                result_of(cfg, spec.clone(), FcfsPacked { gpus: 2 }, wl.clone(), s)
            }
            .canonical_text()
        });
        let label = format!(
            "jobs={n_jobs} stagger={stagger:.1} wl_seed={wl_seed} sim_seed={sim_seed} \
             nodes={nodes} gpus={gpus} interference={interference:.2} noise={noise:.3} \
             hours={hours:.2} churny={churny} work_scale={work_scale:.3}"
        );
        assert_byte_identical(&runs[0], &runs[1], &label);
    }
}
