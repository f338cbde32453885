//! `pollux-sim` — run one scheduling policy on the standard evaluation
//! workload (160 jobs, 8-hour submission window, 16 nodes × 4 GPUs)
//! and print summary statistics.
//!
//! ```sh
//! pollux-sim [pollux|optimus|tiresias|all] [seed]
//! ```
//!
//! Environment:
//! - `POLLUX_SIM_JOBS=<n>` — override the trace size (default 160
//!   jobs; e.g. 64 for a quick capture).
//! - `POLLUX_TELEMETRY_OUT=<path>` — capture telemetry (spans,
//!   counters, histograms, the goodput time-series) to a JSONL file;
//!   summarize it with `telemetry_report`. `/dev/stderr` streams the
//!   events while the simulation runs.
//! - `POLLUX_JSON_OUT=<path>` — also dump the full `SimResult` (per-job
//!   records, cluster series, allocation timeline) as pretty `Debug`
//!   text per policy, to `<path>.<policy>.json`.
//! - `POLLUX_TRACE_OUT=<path>` — save the generated workload trace as
//!   pretty `Debug` text, once, before the first run.
//! - `POLLUX_CHROME_TRACE=<path>` — after all runs, export the
//!   telemetry capture as a Chrome trace (requires
//!   `POLLUX_TELEMETRY_OUT`); open it in <https://ui.perfetto.dev>.

use pollux_cluster::ClusterSpec;
use pollux_core::{run_trace_recorded, ConfigChoice};
use pollux_experiments::common::{
    capture_recorder, dump_timeline_artifacts, exit_on_capture_error,
};
use pollux_experiments::zoo;
use pollux_simulator::SimConfig;
use pollux_telemetry::Recorder;
use pollux_workload::{JobSpec, TraceConfig, TraceGenerator};
use std::time::Instant;

/// Writes an output file the environment asked for. The path is user
/// input: an unwritable one is reported and exits 2, like a bad seed.
fn write_or_exit(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// The paper's three policies in run order: the name this CLI prints
/// and accepts, and the zoo registry entry that builds it.
const POLICIES: [(&str, &str); 3] = [
    ("tiresias", "tiresias"),
    ("optimus", "optimus+oracle"),
    ("pollux", "pollux"),
];

fn run_one(name: &str, zoo_name: &str, trace: &[JobSpec], seed: u64, recorder: Recorder) {
    let policy = zoo::lookup(zoo_name)
        .expect("the paper's policies are registered")
        .build()
        .into_policy();
    let spec = ClusterSpec::homogeneous(16, 4).expect("valid cluster");
    let sim = SimConfig {
        max_sim_time: 96.0 * 3600.0,
        seed,
        ..Default::default()
    };
    let t0 = Instant::now();
    let res = run_trace_recorded(policy, trace, ConfigChoice::Tuned, spec, sim, recorder)
        .expect("valid simulation inputs");
    if let Ok(path) = std::env::var("POLLUX_JSON_OUT") {
        write_or_exit(&format!("{path}.{name}.json"), format!("{res:#?}"));
    }
    let s = res.summary();
    let h = |v: Option<f64>| v.unwrap_or(0.0) / 3600.0;
    println!(
        "{name:<10} wall {:>8.2?}  jobs {}  unfinished {}  avg JCT {:.2}h  p99 {:.1}h  \
         makespan {:.1}h  stat-eff {:.1}%  digest {:016x}",
        t0.elapsed(),
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
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let seed = match std::env::args().nth(2) {
        None => 1u64,
        Some(v) => match v.parse() {
            Ok(s) => s,
            Err(_) => {
                eprintln!("invalid seed {v:?}; usage: pollux-sim [policy] [seed]");
                std::process::exit(2);
            }
        },
    };
    if which != "all" && !POLICIES.iter().any(|(name, _)| *name == which) {
        eprintln!("usage: pollux-sim [pollux|optimus|tiresias|all] [seed]");
        std::process::exit(2);
    }
    let recorder = exit_on_capture_error(capture_recorder());
    let mut trace_cfg = TraceConfig {
        seed,
        ..Default::default()
    };
    if let Ok(jobs) = std::env::var("POLLUX_SIM_JOBS") {
        match jobs.parse() {
            Ok(n) if n > 0 => trace_cfg.num_jobs = n,
            _ => {
                eprintln!("invalid POLLUX_SIM_JOBS {jobs:?}; expected a positive integer");
                std::process::exit(2);
            }
        }
    }
    let trace = TraceGenerator::new(trace_cfg)
        .expect("valid trace config")
        .generate();
    if let Ok(path) = std::env::var("POLLUX_TRACE_OUT") {
        write_or_exit(&path, format!("{trace:#?}"));
    }
    for (name, zoo_name) in POLICIES {
        if which == "all" || which == name {
            run_one(name, zoo_name, &trace, seed, recorder.clone());
        }
    }
    exit_on_capture_error(dump_timeline_artifacts());
}
