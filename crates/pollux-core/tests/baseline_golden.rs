//! Golden-trajectory digests for the baseline schedulers.
//!
//! The Blox-style decomposition of Tiresias, Optimus+Oracle, and
//! Or et al. into admission / placement / preemption stages is a pure
//! refactor: for a fixed seed the staged port must reproduce the exact
//! `SimResult` bytes (and RNG draw order — none of the baselines draw)
//! of the pre-refactor monolith. These digests were captured from the
//! monolithic implementations at the commit introducing the staged
//! scheduler and move only when the model under the schedulers does,
//! with the cause written beside each constant. The other four staged
//! zoo policies (gang FIFO, SRTF, SRSF, Gandiva packing) are pinned on
//! the same run, so a refactor that reorders their admission or
//! placement fails here rather than passing every suite that only
//! compares two runs.
//!
//! Workload: the repo's standard 64-job × 16-node churn anchor (the
//! same staggered, work-scaled trace the timeline-fidelity suite
//! uses), which exercises preemptions, restarts, backfill, and
//! consolidated placement in every policy.

use pollux_cluster::{ClusterSpec, JobId};
use pollux_control::baselines::{
    fifo_backfill, gandiva_packing, optimus, or_etal, srsf, srtf, tiresias,
};
use pollux_core::{run_trace_recorded, ConfigChoice};
use pollux_simulator::{SchedulingPolicy, SimConfig, SimResult};
use pollux_telemetry::{MemorySink, Recorder};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator};
use std::sync::Arc;

/// 64 staggered jobs drawn from the trace generator, their work scaled
/// by `work_scale` (the anchor's 0.05 lets a healthy fraction finish
/// inside the horizon).
fn churn_trace_64(work_scale: f64) -> Vec<JobSpec> {
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
            spec.work *= work_scale;
            spec
        })
        .collect();
    assert_eq!(jobs.len(), 64, "trace filter must yield 64 jobs");
    jobs
}

/// The run of `trace` under `policy` on `nodes` × 4 GPUs, with
/// `recorder` attached.
fn run_on<P: SchedulingPolicy>(
    policy: P,
    trace: &[JobSpec],
    nodes: u32,
    recorder: Recorder,
) -> SimResult {
    let spec = ClusterSpec::homogeneous(nodes, 4).unwrap();
    let sim = SimConfig {
        max_sim_time: 24.0 * 3600.0,
        interference_slowdown: 0.3,
        seed: 17,
        ..Default::default()
    };
    run_trace_recorded(policy, trace, ConfigChoice::Tuned, spec, sim, recorder)
        .expect("valid simulation inputs")
}

/// The digest of [`run_on`].
fn digest_on<P: SchedulingPolicy>(
    policy: P,
    trace: &[JobSpec],
    nodes: u32,
    recorder: Recorder,
) -> u64 {
    run_on(policy, trace, nodes, recorder).digest()
}

/// The digest of the churn anchor: 64 jobs on 16 × 4 GPUs.
fn digest_of<P: SchedulingPolicy>(policy: P) -> u64 {
    digest_on(policy, &churn_trace_64(0.05), 16, Recorder::disabled())
}

/// Captured from the monolithic `Tiresias` (pre-decomposition) as
/// `0x7164_4c87_c626_8a16`; re-pinned once, with the two below, by
/// PR 20 — φ held ≤ 1 % per sub-interval of progress. The engine's
/// ground-truth φ became piecewise constant in progress, so every job
/// that trains above its `m0` (all of these) moved in the low digits
/// of its progress under every policy. The staged pipeline is
/// unchanged: the baselines' own unit goldens, which run no engine,
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
/// Gang FIFO with backfill. This and the three below were captured
/// from the separate FIFO, LAS and SRTF/SRSF admission loops and the
/// separate best-fit placement, before admission became one ranked
/// backfill and placement one keep-then-pack pass; neither fold moved
/// them.
const GOLDEN_FIFO_BACKFILL: u64 = 0x1afe_74f2_02f0_d6aa;
/// Oracle shortest remaining time first: see `GOLDEN_FIFO_BACKFILL`.
const GOLDEN_SRTF: u64 = 0x180b_0e1d_be25_6484;
/// Oracle shortest remaining service first: see `GOLDEN_FIFO_BACKFILL`.
const GOLDEN_SRSF: u64 = 0x1c5a_2791_1386_1267;
/// LAS admission with Gandiva's best-fit packing: see
/// `GOLDEN_FIFO_BACKFILL`.
const GOLDEN_GANDIVA_PACKING: u64 = 0x990a_83b8_8339_600d;

/// Every staged zoo policy with its pinned digest.
fn pinned() -> [(&'static str, Box<dyn SchedulingPolicy>, u64); 7] {
    [
        ("tiresias", Box::new(tiresias()), GOLDEN_TIRESIAS),
        ("optimus+oracle", Box::new(optimus()), GOLDEN_OPTIMUS),
        ("or-etal", Box::new(or_etal(16)), GOLDEN_OR_ETAL),
        (
            "fifo+backfill",
            Box::new(fifo_backfill()),
            GOLDEN_FIFO_BACKFILL,
        ),
        ("srtf", Box::new(srtf()), GOLDEN_SRTF),
        ("srsf", Box::new(srsf()), GOLDEN_SRSF),
        (
            "gandiva-packing",
            Box::new(gandiva_packing()),
            GOLDEN_GANDIVA_PACKING,
        ),
    ]
}

#[test]
fn tiresias_reproduces_the_monolith_digest() {
    let d = digest_of(tiresias());
    assert_eq!(
        d, GOLDEN_TIRESIAS,
        "Tiresias trajectory drifted: 0x{d:016x}"
    );
}

#[test]
fn fifo_backfill_srtf_srsf_and_gandiva_packing_hold_their_digests() {
    for (name, policy, golden) in pinned().into_iter().skip(3) {
        let d = digest_of(policy);
        assert_eq!(d, golden, "{name} trajectory drifted: 0x{d:016x}");
    }
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
/// firing), every staged policy still reproduces its digest
/// byte-for-byte.
#[test]
fn digests_are_unchanged_with_telemetry_attached() {
    let trace = churn_trace_64(0.05);
    for (name, policy, golden) in pinned() {
        let sink = Arc::new(MemorySink::new(1 << 20));
        let recorder = Recorder::new(sink.clone() as Arc<dyn pollux_telemetry::Sink>);
        assert_eq!(digest_on(policy, &trace, 16, recorder), golden, "{name}");
        assert!(!sink.is_empty(), "{name}: live recorder captured nothing");
    }
}

/// The same 64 jobs with ten times the work on a quarter of the nodes
/// (4 × 4 GPUs). On the anchor nearly every job starts on arrival, so
/// admission order and packing barely reach a digest there: reversing
/// SRTF's order or packing Gandiva fullest-first moves none of the
/// constants above. Here jobs queue, and each of those, reversing
/// FIFO's order, or weighting SRSF by GPUs + 1 moves its policy's
/// digest. Captured with `GOLDEN_FIFO_BACKFILL`, before the same fold.
fn contended() -> [(&'static str, Box<dyn SchedulingPolicy>, u64); 5] {
    [
        ("tiresias", Box::new(tiresias()), 0xa215_7d9b_3d52_b669),
        (
            "fifo+backfill",
            Box::new(fifo_backfill()),
            0x9750_3ec5_57d6_3140,
        ),
        ("srtf", Box::new(srtf()), 0x5792_ef9a_2f86_e155),
        ("srsf", Box::new(srsf()), 0xb723_8032_510d_ee27),
        (
            "gandiva-packing",
            Box::new(gandiva_packing()),
            0x10c4_a36e_ef62_89b8,
        ),
    ]
}

#[test]
fn ranked_admissions_and_best_fit_hold_their_digests_under_contention() {
    let trace = churn_trace_64(0.5);
    for (name, policy, golden) in contended() {
        let d = digest_on(policy, &trace, 4, Recorder::disabled());
        assert_eq!(d, golden, "{name} contended trajectory drifted: 0x{d:016x}");
    }
}

/// A job's id names it and nothing more: relabel the contended twin's
/// jobs (ids reversed, so id order runs against submit order) and
/// every policy that ranks, backfills and packs them must finish the
/// same jobs at the same instants — the multiset of `(submit, finish)`
/// bit patterns is unchanged.
#[test]
fn relabelled_job_ids_leave_every_contended_finish_in_place() {
    let trace = churn_trace_64(0.5);
    let last = trace.len() as u32 - 1;
    let relabelled: Vec<JobSpec> = trace
        .iter()
        .map(|spec| JobSpec {
            id: JobId(last - spec.id.0),
            ..spec.clone()
        })
        .collect();
    let finishes = |result: SimResult| {
        let mut times: Vec<(u64, Option<u64>)> = result
            .records
            .iter()
            .map(|r| (r.submit_time.to_bits(), r.finish_time.map(f64::to_bits)))
            .collect();
        times.sort_unstable();
        times
    };
    for ((name, policy, _), (_, twin, _)) in contended().into_iter().zip(contended()) {
        let plain = finishes(run_on(policy, &trace, 4, Recorder::disabled()));
        let relabelled = finishes(run_on(twin, &relabelled, 4, Recorder::disabled()));
        assert_eq!(plain, relabelled, "{name} keys on the job id");
    }
}
