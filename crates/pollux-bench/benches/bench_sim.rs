//! Head-to-head comparison of the two simulation steppers on a
//! paper-scale trace (64 jobs on 16 nodes × 4 GPUs over a 7-day
//! horizon):
//!
//! 1. `reference` — the retained pre-refactor 1 s tick loop
//!    ([`Simulation::run_reference`]): every tick recomputes
//!    interference, per-job iteration times, and records one profiler
//!    sample through the `BTreeMap`;
//! 2. `macro_step` — the event-sparse engine ([`Simulation::run`]):
//!    per-job constants live in run contexts that only events rebuild,
//!    and the ticks between event horizons run in a tight inner loop;
//! 3. `macro_step_telemetry` — the same engine with a live
//!    `MemorySink`-backed telemetry recorder attached, pricing the
//!    instrumentation overhead (budget: ≤ 5 % over the bare engine).
//!
//! The arms must produce **byte-identical** serialized `SimResult`s —
//! the same contract the determinism suite pins — so the speedup below
//! is a pure performance delta, never a trajectory change. The
//! datacenter-scale engine numbers, with their per-layer breakdown,
//! come from the repository benchmark's `dc_tiresias` workload.
//!
//! Not a criterion bench: a custom `main` so the measured numbers land
//! in machine-readable form at `BENCH_sim.json` in the repo root. Set
//! `BENCH_SIM_QUICK=1` (CI does) for a fast smoke run — a smaller
//! trace and fewer repetitions, same arms, same output file schema.

use pollux_cluster::{AllocationMatrix, ClusterSpec};
use pollux_simulator::{PolicyJobView, SchedulingPolicy, SimConfig, Simulation};
use pollux_telemetry::{MemorySink, Recorder};
use pollux_workload::{JobSpec, TraceConfig, TraceGenerator, UserConfig};
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// FCFS packing at a fixed GPU ask: running jobs keep their placement,
/// pending jobs pack into free GPUs or wait. Deliberately cheap so the
/// measurement prices the engine, not the policy.
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

struct Scenario {
    num_jobs: usize,
    nodes: u32,
    gpus_per_node: u32,
    /// Submission window (hours); arrivals spread across it so the
    /// event-horizon arithmetic is exercised deep into the horizon.
    window_hours: f64,
    max_sim_time: f64,
}

fn workload(s: &Scenario) -> Vec<(JobSpec, UserConfig)> {
    TraceGenerator::new(TraceConfig {
        num_jobs: s.num_jobs,
        duration_hours: s.window_hours,
        max_gpus: s.gpus_per_node * 2,
        gpus_per_node: s.gpus_per_node,
        seed: 2024,
        ..Default::default()
    })
    .expect("static trace config is valid")
    .generate()
    .into_iter()
    .map(|spec| {
        let user = spec.tuned;
        (spec, user)
    })
    .collect()
}

fn sim_config(s: &Scenario) -> SimConfig {
    SimConfig {
        max_sim_time: s.max_sim_time,
        interference_slowdown: 0.1,
        seed: 7,
        ..Default::default()
    }
}

/// One construct + run of the chosen stepper over a pre-generated
/// workload; returns the serialized result (for the identity check)
/// and the wall time of the simulation itself (trace generation and
/// serialization stay outside the timed region).
fn run_arm(s: &Scenario, wl: &[(JobSpec, UserConfig)], arm: Arm) -> (String, u128) {
    let spec = ClusterSpec::homogeneous(s.nodes, s.gpus_per_node).unwrap();
    let wl = wl.to_vec();
    // Sink construction stays outside the timed region; draining events
    // during the run (ring-buffer pushes) is part of what we price.
    let recorder = match arm {
        Arm::MacroStepTelemetry => Some(Recorder::new(Arc::new(MemorySink::new(1 << 16)))),
        _ => None,
    };
    let start = Instant::now();
    let mut sim = Simulation::new(sim_config(s), spec, FcfsPacked { gpus: 2 }, wl)
        .expect("valid simulation inputs");
    if let Some(recorder) = recorder {
        sim = sim.with_recorder(recorder);
    }
    let result = if matches!(arm, Arm::Reference) {
        sim.run_reference()
    } else {
        sim.run()
    };
    let ns = start.elapsed().as_nanos();
    let json = serde_json::to_string(&result).expect("SimResult serializes");
    (json, ns)
}

#[derive(Clone, Copy)]
enum Arm {
    Reference,
    MacroStep,
    MacroStepTelemetry,
}

struct ArmResult {
    name: &'static str,
    json: String,
    best_ns: u128,
}

fn measure(
    name: &'static str,
    s: &Scenario,
    wl: &[(JobSpec, UserConfig)],
    arm: Arm,
    reps: usize,
) -> ArmResult {
    let (json, mut best_ns) = run_arm(s, wl, arm);
    for _ in 1..reps {
        let (again, ns) = run_arm(s, wl, arm);
        assert_eq!(again, json, "{name}: non-deterministic across repetitions");
        best_ns = best_ns.min(ns);
    }
    ArmResult {
        name,
        json,
        best_ns,
    }
}

fn main() {
    let quick = std::env::var("BENCH_SIM_QUICK").is_ok_and(|v| v != "0");
    let (scenario, reps) = if quick {
        (
            Scenario {
                num_jobs: 12,
                nodes: 4,
                gpus_per_node: 4,
                window_hours: 4.0,
                max_sim_time: 12.0 * 3600.0,
            },
            1,
        )
    } else {
        (
            Scenario {
                num_jobs: 64,
                nodes: 16,
                gpus_per_node: 4,
                window_hours: 48.0,
                max_sim_time: 7.0 * 24.0 * 3600.0,
            },
            5,
        )
    };

    let wl = workload(&scenario);
    let reference = measure("reference", &scenario, &wl, Arm::Reference, reps);
    // The telemetry overhead is a small delta (low single-digit
    // percent) that per-run scheduling jitter (±20 % on a shared
    // machine) easily swamps. Sample both macro arms from one
    // interleaved loop — same count, same time window, alternating
    // order within each pair — and compare minima: each arm's minimum
    // converges to its noise-floor runtime, and the symmetric schedule
    // keeps slow machine phases from biasing either arm.
    let pairs = if quick { reps.max(2) } else { 12 };
    let mut macro_step = ArmResult {
        name: "macro_step",
        json: String::new(),
        best_ns: u128::MAX,
    };
    let mut telemetry = ArmResult {
        name: "macro_step_telemetry",
        json: String::new(),
        best_ns: u128::MAX,
    };
    for i in 0..pairs {
        let order = if i % 2 == 0 {
            [Arm::MacroStep, Arm::MacroStepTelemetry]
        } else {
            [Arm::MacroStepTelemetry, Arm::MacroStep]
        };
        for arm in order {
            let slot = match arm {
                Arm::MacroStep => &mut macro_step,
                _ => &mut telemetry,
            };
            let (json, ns) = run_arm(&scenario, &wl, arm);
            if slot.json.is_empty() {
                slot.json = json;
            } else {
                assert_eq!(json, slot.json, "{}: non-deterministic", slot.name);
            }
            slot.best_ns = slot.best_ns.min(ns);
        }
    }
    let overhead_pct = (telemetry.best_ns as f64 / macro_step.best_ns as f64 - 1.0) * 100.0;

    // The hard contract first: all three arms walked the same
    // trajectory, bit for bit — telemetry included.
    for arm in [&macro_step, &telemetry] {
        if reference.json != arm.json {
            let at = reference
                .json
                .bytes()
                .zip(arm.json.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| reference.json.len().min(arm.json.len()));
            panic!(
                "{} diverged from reference at byte {at}; run the determinism suite",
                arm.name
            );
        }
    }

    let speedup = reference.best_ns as f64 / macro_step.best_ns as f64;
    let arms = [&reference, &macro_step, &telemetry];
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"bench\": \"bench_sim\",\n  \"quick\": {quick},\n  \"host_cpus\": {},\n  \"num_jobs\": {},\n  \"num_nodes\": {},\n  \"gpus_per_node\": {},\n  \"window_hours\": {:.1},\n  \"max_sim_days\": {:.2},\n  \"reps\": {reps},\n  \"results_identical\": true,\n  \"arms\": [\n",
        std::thread::available_parallelism().map_or(1, usize::from),
        scenario.num_jobs,
        scenario.nodes,
        scenario.gpus_per_node,
        scenario.window_hours,
        scenario.max_sim_time / 86_400.0,
    ));
    for (i, arm) in arms.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"best_total_ns\": {}, \"ms\": {:.1} }}{}\n",
            arm.name,
            arm.best_ns,
            arm.best_ns as f64 / 1.0e6,
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_macro_vs_reference\": {speedup:.2},\n  \"telemetry_overhead_pct\": {overhead_pct:.2}\n",
    ));
    out.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &out).expect("write BENCH_sim.json");
    print!("{out}");

    if quick {
        assert!(
            speedup > 1.0,
            "macro-stepped engine must beat the reference tick loop (got {speedup:.2}x)"
        );
    } else {
        assert!(
            speedup >= 5.0,
            "macro-stepped engine must be at least 5x the reference tick loop \
             on the paper-scale trace (got {speedup:.2}x)"
        );
        // Quick runs are too noisy (1 rep, tiny trace) for a tight
        // overhead bound; the full run enforces the ≤ 5 % budget.
        assert!(
            overhead_pct <= 5.0,
            "telemetry recorder overhead exceeded the 5% budget (got {overhead_pct:.2}%)"
        );
    }
}
