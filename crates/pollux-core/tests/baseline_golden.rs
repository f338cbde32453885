//! Golden-trajectory digests for the baseline schedulers.
//!
//! The Blox-style decomposition of Tiresias, Optimus+Oracle, and
//! Or et al. into admission / placement / preemption stages is a pure
//! refactor: for a fixed seed the staged port must reproduce the exact
//! `SimResult` bytes (and RNG draw order — none of the baselines draw)
//! of the pre-refactor monolith. These digests were captured from the
//! monolithic implementations at the commit introducing the staged
//! scheduler and move only when the model under the schedulers does,
//! with the cause written beside each constant.
//!
//! Workload: the repo's standard 64-job × 16-node churn anchor (the
//! same staggered, work-scaled trace the timeline-fidelity suite
//! uses), which exercises preemptions, restarts, backfill, and
//! consolidated placement in all three policies.

use pollux_baselines::{optimus, or_etal, tiresias};
use pollux_cluster::{ClusterSpec, JobId};
use pollux_core::{run_trace, ConfigChoice};
use pollux_simulator::{SchedulingPolicy, SimConfig};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator};

/// 64 staggered jobs drawn from the trace generator, work scaled down
/// so a healthy fraction finishes inside the horizon.
fn churn_trace_64() -> Vec<JobSpec> {
    let trace = TraceGenerator::new(TraceConfig {
        num_jobs: 200,
        seed: 13,
        ..Default::default()
    })
    .unwrap()
    .generate();
    let jobs: Vec<JobSpec> = trace
        .into_iter()
        .filter(|j| j.kind == ModelKind::ResNet18Cifar10 || j.kind == ModelKind::NeuMFMovieLens)
        .take(64)
        .enumerate()
        .map(|(i, mut spec)| {
            spec.id = JobId(i as u32);
            spec.submit_time = i as f64 * 90.0;
            spec.work *= 0.05;
            spec
        })
        .collect();
    assert_eq!(jobs.len(), 64, "trace filter must yield 64 jobs");
    jobs
}

fn digest_of<P: SchedulingPolicy>(policy: P) -> u64 {
    let spec = ClusterSpec::homogeneous(16, 4).unwrap();
    let sim = SimConfig {
        max_sim_time: 24.0 * 3600.0,
        interference_slowdown: 0.3,
        seed: 17,
        ..Default::default()
    };
    let result = run_trace(policy, &churn_trace_64(), ConfigChoice::Tuned, spec, sim)
        .expect("valid simulation inputs");
    result.digest()
}

/// Captured from the monolithic `Tiresias` (pre-decomposition) as
/// `0x7164_4c87_c626_8a16`; re-pinned once, with the two below, by
/// PR 20 — φ held ≤ 1 % per sub-interval of progress. The engine's
/// ground-truth φ became piecewise constant in progress, so every job
/// that trains above its `m0` (all of these) moved in the low digits
/// of its progress under every policy. The staged pipeline is
/// unchanged: `pollux-baselines`' own goldens, which run no engine,
/// did not move.
///
/// All three were re-pinned once more (this one from
/// `0x1254_d4f3_0591_38b1`), with no trajectory moving, when
/// `SimResult` lost its event log and its per-job series: the digested
/// text lost two fields, and each new constant is what the old code
/// printed for the same run rendered without them.
///
/// All three were re-pinned once more (this one from
/// `0xc55b_f0a6_d43e_4e46`), with no trajectory moving, when `SimResult`
/// lost its per-interval scheduler counters (they leave through the
/// telemetry recorder alone): each new constant is what the old code
/// printed for the same run rendered without that field.
const GOLDEN_TIRESIAS: u64 = 0xc63c_92f8_864c_acd1;
/// Captured from the monolithic `Optimus` (pre-decomposition) as
/// `0x5355_e002_7cdd_e804`; re-pinned once by the exact-gradient θsys
/// solve (issue 12). Optimus estimates remaining time from the fitted
/// θsys in each job's report, and the new solve agrees with the old
/// one to ~4 digits of RMSLE, not to the bit. `GOLDEN_TIRESIAS`, which never
/// reads θsys, did not move — the staged pipeline is unchanged.
/// Re-pinned once more (from `0x4064_4aec_d583_d64c`) by PR 20, φ held
/// ≤ 1 % per sub-interval: see `GOLDEN_TIRESIAS`. Re-pinned from
/// `0xe7a2_b5e9_aaa7_9cdf` with the shorter `SimResult`: see
/// `GOLDEN_TIRESIAS`. Re-pinned from `0xf488_850d_efeb_2d41` without
/// the scheduler counters: see `GOLDEN_TIRESIAS`.
const GOLDEN_OPTIMUS: u64 = 0x2f69_0af6_1c62_7f9c;
/// Captured from the monolithic `OrEtAlAutoscaler` (pre-decomposition)
/// as `0x6903_56cd_ceb4_d6aa`; re-pinned once with `GOLDEN_OPTIMUS`,
/// for the same reason (it too plans from the reported θsys), and
/// once more (from `0x21c2_b432_48af_b11e`) by PR 20, φ held ≤ 1 % per
/// sub-interval: see `GOLDEN_TIRESIAS`. Re-pinned from
/// `0xbc47_4be2_42c8_a4d3` with the shorter `SimResult`: see
/// `GOLDEN_TIRESIAS`. Re-pinned from `0x44e1_c1e6_f7d6_f439` without
/// the scheduler counters: see `GOLDEN_TIRESIAS`.
const GOLDEN_OR_ETAL: u64 = 0x9fa6_4a8d_fba3_fd84;

#[test]
fn tiresias_reproduces_the_monolith_digest() {
    let d = digest_of(tiresias());
    assert_eq!(
        d, GOLDEN_TIRESIAS,
        "Tiresias trajectory drifted: 0x{d:016x}"
    );
}

#[test]
fn optimus_reproduces_the_monolith_digest() {
    let d = digest_of(optimus());
    assert_eq!(d, GOLDEN_OPTIMUS, "Optimus trajectory drifted: 0x{d:016x}");
}

#[test]
fn or_etal_reproduces_the_monolith_digest() {
    let d = digest_of(or_etal(16));
    assert_eq!(d, GOLDEN_OR_ETAL, "Or-et-al trajectory drifted: 0x{d:016x}");
}

/// Telemetry is observational: with a live recorder attached (stage
/// metas and `control/admitted` / `control/preempted` counters all
/// firing), the staged ports still reproduce the monolith digests
/// byte-for-byte.
#[test]
fn digests_are_unchanged_with_telemetry_attached() {
    use pollux_core::run_trace_recorded;
    use pollux_telemetry::{MemorySink, Recorder};
    use std::sync::Arc;

    let digest_recorded = |policy: Box<dyn SchedulingPolicy>| -> u64 {
        let spec = ClusterSpec::homogeneous(16, 4).unwrap();
        let sim = SimConfig {
            max_sim_time: 24.0 * 3600.0,
            interference_slowdown: 0.3,
            seed: 17,
            ..Default::default()
        };
        let sink = Arc::new(MemorySink::new(1 << 20));
        let recorder = Recorder::new(sink.clone() as Arc<dyn pollux_telemetry::Sink>);
        let result = run_trace_recorded(
            policy,
            &churn_trace_64(),
            ConfigChoice::Tuned,
            spec,
            sim,
            recorder,
        )
        .expect("valid simulation inputs");
        assert!(!sink.is_empty(), "live recorder captured nothing");
        result.digest()
    };

    assert_eq!(digest_recorded(Box::new(tiresias())), GOLDEN_TIRESIAS);
    assert_eq!(digest_recorded(Box::new(optimus())), GOLDEN_OPTIMUS);
    assert_eq!(digest_recorded(Box::new(or_etal(16))), GOLDEN_OR_ETAL);
}
