//! Golden-digest regression for the rack-aware two-phase scheduler.
//!
//! Two halves of the topology contract:
//!
//! 1. **Degenerate topology is inert.** A single-rack grouping (any
//!    `nodes_per_rack` ≥ the node count, or exactly the node count)
//!    must leave the full Pollux stack's serialized `SimResult`
//!    byte-identical to the flat (no-topology) run — the racked code
//!    path is only entered with ≥ 2 racks, and the config knob alone
//!    may not perturb a single RNG draw or float accumulation.
//! 2. **The multi-rack trajectory is pinned.** A 4-rack run (8 nodes,
//!    `nodes_per_rack = 2`) exercises the two-phase search (rack
//!    pick + per-rack placement GAs); its digest is pinned so
//!    the racked trajectory can only change deliberately, with the
//!    constant updated in the same commit that changes the search.

use pollux_cluster::ClusterSpec;
use pollux_core::{ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_sched::GaConfig;
use pollux_simulator::{SimConfig, SimResult};
use pollux_workload::{JobSpec, ModelKind, TraceConfig, TraceGenerator};

fn tiny_trace() -> Vec<JobSpec> {
    TraceGenerator::new(TraceConfig {
        num_jobs: 6,
        duration_hours: 0.5,
        seed: 11,
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
    .collect()
}

fn run_sim(nodes: u32, nodes_per_rack: u32) -> SimResult {
    let mut c = PolluxConfig::default();
    c.sched.ga = GaConfig {
        population: 16,
        generations: 8,
        ..Default::default()
    };
    let policy = PolluxPolicy::new(c).unwrap();
    let trace = tiny_trace();
    assert!(!trace.is_empty());
    let spec = ClusterSpec::homogeneous(nodes, 4).unwrap();
    let sim = SimConfig {
        max_sim_time: 10.0 * 3600.0,
        nodes_per_rack,
        ..Default::default()
    };
    pollux_core::run_trace(policy, &trace, ConfigChoice::Tuned, spec, sim).unwrap()
}

/// Single-rack topologies must be byte-identical to the flat run for
/// the real Pollux stack — GA draws, batch adaptation, restarts, the
/// works. `nodes_per_rack = 4` is exactly one rack on 4 nodes;
/// `nodes_per_rack = 64` saturates to one rack.
#[test]
fn single_rack_topology_is_byte_identical_to_flat() {
    let flat = run_sim(4, 0).canonical_text();
    for npr in [4u32, 64] {
        let racked = run_sim(4, npr).canonical_text();
        if flat != racked {
            let at = flat
                .bytes()
                .zip(racked.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| flat.len().min(racked.len()));
            let lo = at.saturating_sub(120);
            panic!(
                "nodes_per_rack={npr} diverged from the flat run at byte {at}\n  \
                 flat:   …{}…\n  racked: …{}…",
                &flat[lo..(at + 120).min(flat.len())],
                &racked[lo..(at + 120).min(racked.len())],
            );
        }
    }
}

/// Pinned digest of the 4-rack small-cluster trajectory (8 nodes × 4
/// GPUs, `nodes_per_rack = 2`). This run takes the two-phase path
/// every scheduling round; if the constant changes, the racked search
/// changed — update it only together with a deliberate change to the
/// rack pick or the per-rack placement GA.
///
/// Re-pinned once (from `0xbe94_18a2_be53_5c35`) when the racked
/// search went cross-round incremental, a package of deliberate
/// stream changes landing together:
///
/// - the per-rack phase-2 GAs went parallel: each evolved rack
///   receives its own seed drawn serially from the interval RNG (one
///   `next_u64` per rack, rack order) instead of all racks sharing
///   the single interval stream, so workers are order-independent and
///   bit-identical at any thread count;
/// - phase 1 seeds its population with the previous interval's
///   assignment and stops after stale generations, which changes its
///   draw count; ties in the assignment score now resolve to the
///   carried/seed member instead of the last-ranked one;
/// - a rack whose subproblem is verbatim unchanged replays last
///   interval's answer without drawing a seed at all (the quiet-rack
///   fast path).
///
/// Each piece changes the racked RNG stream, and with it this digest,
/// exactly once for the package. Flat and single-rack runs never
/// enter the racked path, so GOLDEN_CHURN/GOLDEN_QUIET and the
/// single-rack ≡ flat byte-identity above are unaffected.
///
/// Re-pinned a second time (from `0xa323_945d_078a_0207`) for the
/// job-major chunk/report-round restructure, which landed with the
/// flat digests verified but left this constant stale: the two-phase
/// report round snapshots every refit trigger before any commit, so
/// a refit can shift by one report round relative to the interleaved
/// order, perturbing the racked quiet-rack detection (exact subproblem
/// equality) and with it the racked RNG stream. The flat macro_step
/// digests were unaffected and still pass against their original
/// constants.
///
/// Re-pinned a third time (from `0xe724_718b_11a3_8cdb`) by the
/// exact-gradient θsys solve (issue 12: analytic value+gradient, mean
/// squared log error, no Nelder-Mead polish). Every job's reported
/// goodput model carries the fitted θsys, which now agrees with the
/// old solve to ~4 digits of RMSLE rather than to the bit, so the GA's
/// fitness values — and with them this trajectory — move. The racked
/// search itself is untouched: the single-rack ≡ flat identity above
/// holds, and the benchmark's `sched_rounds` digest (no agents, no
/// fits) is identical to its parent's.
///
/// Re-pinned a fourth time (from `0x47a2_dfa6_753d_98a6`) to the value
/// release builds had produced all along. The old constant held in
/// debug builds only: the GA's `debug_assert!` full recompute of every
/// offspring read the table through a read that counted table hits,
/// and those hits were part of the serialized `SimResult`, so they were
/// inflated in debug builds (first sample: 341 against 93 in release)
/// and nothing else differed. The trajectory itself did not move, and
/// `cargo test -q` and `cargo test --release -q` both run this suite.
/// (The table no longer counts its reads at all; see the seventh
/// re-pin.)
///
/// Re-pinned a fifth time (from `0x884b_9fba_2898_4dd2`) by PR 20 — φ
/// held ≤ 1 % per sub-interval of progress. The engine's ground-truth
/// φ became piecewise constant in progress (both steppers, one
/// definition), so job progress moves in its low digits and the GA,
/// which is chaotic in them, follows. Nothing in `pollux-sched`
/// changed: its own goldens, `ga_identity.rs` and the benchmark's
/// `sched_rounds` digest (no engine) are identical to the parent's, and
/// the single-rack ≡ flat identity above still holds.
///
/// Re-pinned a sixth time (from `0x86c8_77fc_678f_d2b2`), with no
/// trajectory moving, when `SimResult` lost its event log and its
/// per-job series: the digested text lost two fields, and the new
/// constant is what the old code printed for the same run rendered
/// without them.
///
/// Re-pinned a seventh time (from `0x3209_4bb6_3b8c_1a9f`), with no
/// trajectory moving, when `SimResult` lost its per-interval scheduler
/// counters (they leave through the telemetry recorder alone): the new
/// constant is what the old code printed for the same run rendered
/// without that field.
///
/// Re-pinned an eighth time (from `0x933a_7f47_ca75_ed26`) when phase
/// 1's assignment GA became the pick it converged to (the greedy
/// packing, or the carried assignment where that scores at least as
/// high). On the old trajectory the pick equals the GA's answer in
/// every racked round of this run, but the GA drew the interval RNG
/// and the pick does not, so the rack seeds come from a different point
/// of the stream and the trajectory moves from the first interval on.
/// The mean JCT moved 1318.7 s → 1355.5 s, with
/// no job left unfinished. Flat and single-rack runs never enter the
/// racked path: every other golden is unchanged.
///
/// Re-pinned a ninth time (from `0xa059_f45f_c444_783c`) when every
/// rack's search began from the separable bound's packed matrix and
/// stopped once its best met the bound: a certified rack runs no
/// generation and draws nothing from its seed, and the others evolve
/// from a different first member, so the answers move from the first
/// interval on. The mean JCT moved 1355.5 s → 1316.2 s, with no job
/// left unfinished.
const GOLDEN_FOUR_RACK: u64 = 0xeb24_6d11_c6b4_5465;

#[test]
fn golden_trajectory_four_racks() {
    let d = run_sim(8, 2).digest();
    assert_eq!(
        d, GOLDEN_FOUR_RACK,
        "the 4-rack Pollux trajectory drifted: 0x{d:016x}"
    );
}

/// Same seed, same racked configuration → same bytes. The racked path
/// must be as deterministic as the flat one (phase 1 draws nothing, and
/// each evolved rack's seed is drawn serially from the one stream).
#[test]
fn racked_run_is_repeatable() {
    assert_eq!(
        run_sim(8, 2).canonical_text(),
        run_sim(8, 2).canonical_text()
    );
}
