//! `pollux-sim` — run one scheduling policy on the standard evaluation
//! workload (160 jobs, 8-hour submission window, 16 nodes × 4 GPUs)
//! and print summary statistics.
//!
//! ```sh
//! pollux-sim [pollux|optimus|tiresias|all] [seed]
//! ```
//!
//! Environment:
//! - `POLLUX_SIM_JOBS=<n>` — override the trace size, 1–100000
//!   (default 160 jobs; e.g. 64 for a quick capture).
//! - `POLLUX_TELEMETRY_OUT=<path>` — capture telemetry (spans,
//!   counters, histograms, the goodput time-series) to a JSONL file;
//!   summarize it, or export one policy's run as a Chrome trace, with
//!   `telemetry-report`. `/dev/stderr` streams the events while the
//!   simulation runs. A capture whose writes failed is one line on
//!   stderr and exit status 2, after the summaries.

use pollux_experiments::cell::{run_cells, Cell};
use pollux_experiments::common::{capture_recorder, exit_on_error, finish_capture, flag_value};
use pollux_simulator::SimResult;
use std::time::{Duration, Instant};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}; usage: pollux-sim [pollux|optimus|tiresias|all] [seed]");
    std::process::exit(2);
}

/// The paper's three policies in run order: the name this CLI prints
/// and accepts, and the zoo registry entry that builds it.
const POLICIES: [(&str, &str); 3] = [
    ("tiresias", "tiresias"),
    ("optimus", "optimus+oracle"),
    ("pollux", "pollux"),
];

fn report(name: &str, res: &SimResult, wall: Duration) {
    let s = res.summary();
    let h = |v: Option<f64>| v.unwrap_or(0.0) / 3600.0;
    println!(
        "{name:<10} wall {wall:>8.2?}  jobs {}  unfinished {}  avg JCT {:.2}h  p99 {:.1}h  \
         makespan {:.1}h  stat-eff {:.1}%  digest {:016x}",
        res.records.len(),
        res.unfinished(),
        s.avg_jct.unwrap_or(0.0) / 3600.0,
        h(s.p99_jct),
        res.makespan() / 3600.0,
        res.avg_cluster_efficiency().unwrap_or(0.0) * 100.0,
        res.digest(),
    );
    println!(
        "{:<10} JCT p50/p95/p99 {:.2}/{:.2}/{:.2}h  wait avg {:.2}h p50/p95/p99 \
         {:.2}/{:.2}/{:.2}h  never-started {}",
        "",
        h(s.p50_jct),
        h(s.p95_jct),
        h(s.p99_jct),
        s.avg_wait.unwrap_or(0.0) / 3600.0,
        h(s.p50_wait),
        h(s.p95_wait),
        h(s.p99_wait),
        s.never_started,
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "all".into());
    let seed = match args.next() {
        None => 1u64,
        v => flag_value("seed", v, 0..=u64::MAX).unwrap_or_else(|e| fail(e)),
    };
    if let Some(arg) = args.next() {
        fail(format_args!("unknown argument {arg:?}"));
    }
    if which != "all" && !POLICIES.iter().any(|(name, _)| *name == which) {
        fail(format_args!("unknown policy {which:?}"));
    }
    let recorder = exit_on_error(capture_recorder());
    // The standard evaluation cell, with the one seed for both the
    // trace and the simulator.
    let mut cell = Cell {
        trace_seed: seed,
        sim_seed: seed,
        ..Cell::evaluation("pollux", 0)
    };
    if let Ok(jobs) = std::env::var("POLLUX_SIM_JOBS") {
        cell.jobs =
            flag_value("POLLUX_SIM_JOBS", Some(jobs), 1..=100_000).unwrap_or_else(|e| fail(e));
    }
    // One policy at a time: each summary line times its own run.
    for (name, policy) in POLICIES {
        if which == "all" || which == name {
            let t0 = Instant::now();
            let results = run_cells(&[Cell { policy, ..cell }], |_| recorder.clone());
            report(name, &exit_on_error(results)[0], t0.elapsed());
        }
    }
    exit_on_error(finish_capture());
}
