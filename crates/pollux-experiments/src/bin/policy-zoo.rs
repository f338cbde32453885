//! `policy-zoo` — one config-driven head-to-head run across the
//! scheduler registry: every policy plays the same traces on the same
//! cluster, and the result is a single JCT / queue-percentile /
//! goodput table plus the stage composition of each staged policy.
//!
//! ```sh
//! policy-zoo [--list] [--policies a,b,c] [--traces N] [--jobs N]
//!            [--load F] [--interference F] [--realistic]
//!            [--trace-dir DIR] [--json PATH]
//! ```
//!
//! - `--list`: print the registry (name, stages, summary) and exit.
//! - `--policies`: comma-separated registry names (default: all).
//! - `--traces`: independently-seeded traces averaged per policy
//!   (default 2).
//! - `--jobs`: jobs per trace (default: the standard 160-job
//!   workload).
//! - `--load`: workload scale, 1.0 = the paper's 8-hour window.
//! - `--interference`: injected co-location slowdown (default 0).
//! - `--realistic`: submit trace-derived user configs instead of
//!   idealized tuned configs.
//! - `--trace-dir DIR`: per-policy telemetry — writes
//!   `DIR/<policy>.jsonl` (JSONL capture) and `DIR/<policy>.trace.json`
//!   (Chrome trace, open in <https://ui.perfetto.dev>) for every
//!   policy in the run.
//! - `--json PATH`: also dump the structured `ZooResult` as JSON.
//!
//! Without `--trace-dir`, telemetry follows the process-wide
//! `POLLUX_TELEMETRY_OUT` capture like every other experiment driver.

use pollux_core::ConfigChoice;
use pollux_experiments::common::{
    capture_recorder, dump_timeline_artifacts, exit_on_capture_error, render_table,
};
use pollux_experiments::zoo::{self, ZooOptions};
use pollux_telemetry::{chrome, Event, JsonlSink, Recorder};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: policy-zoo [--list] [--policies a,b,c] [--traces N] [--jobs N] [--load F] \
         [--interference F] [--realistic] [--trace-dir DIR] [--json PATH]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    match v.as_deref().map(T::from_str) {
        Some(Ok(x)) => x,
        _ => {
            eprintln!("invalid or missing value for {flag}");
            usage();
        }
    }
}

/// Registry names are filesystem-safe except for `+` aesthetics; keep
/// them verbatim but make that decision explicit here.
fn capture_path(dir: &Path, policy: &str, ext: &str) -> PathBuf {
    dir.join(format!("{policy}.{ext}"))
}

fn export_chrome(dir: &Path, policy: &str) {
    let capture = capture_path(dir, policy, "jsonl");
    let text = match std::fs::read_to_string(&capture) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read capture {capture:?}: {e}");
            return;
        }
    };
    let events: Vec<Event> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(Event::parse_jsonl)
        .collect();
    let (trace, stats) = chrome::export_with_stats(&events);
    let out = capture_path(dir, policy, "trace.json");
    match std::fs::write(&out, &trace) {
        Ok(()) => eprintln!(
            "chrome trace: {out:?} ({} slices, {} counter samples, {} instants)",
            stats.slices, stats.counters, stats.instants
        ),
        Err(e) => eprintln!("cannot write chrome trace {out:?}: {e}"),
    }
}

fn main() {
    let mut opts = ZooOptions::default();
    let mut list = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--policies" => {
                let v: String = parse("--policies", args.next());
                opts.policies = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
            }
            "--traces" => opts.traces = parse("--traces", args.next()),
            "--jobs" => opts.jobs = Some(parse("--jobs", args.next())),
            "--load" => opts.load = parse("--load", args.next()),
            "--interference" => opts.interference = parse("--interference", args.next()),
            "--realistic" => opts.choice = ConfigChoice::Realistic,
            "--trace-dir" => {
                trace_dir = Some(PathBuf::from(parse::<String>("--trace-dir", args.next())))
            }
            "--json" => json_out = Some(PathBuf::from(parse::<String>("--json", args.next()))),
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage();
            }
        }
    }

    if list {
        let rows: Vec<Vec<String>> = zoo::registry()
            .iter()
            .map(|e| {
                let stages = match e.build().stage_names() {
                    Some((a, p, y)) => format!("{a} / {p} / {y}"),
                    None => "direct".into(),
                };
                vec![e.name.to_string(), stages, e.summary.to_string()]
            })
            .collect();
        print!(
            "{}",
            render_table(
                &["policy", "admission / placement / preemption", "summary"],
                &rows
            )
        );
        return;
    }

    exit_on_capture_error(capture_recorder());
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --trace-dir {dir:?}: {e}");
            std::process::exit(1);
        }
    }

    let result = match &trace_dir {
        None => zoo::run(&opts),
        Some(dir) => zoo::run_with_recorder(&opts, |policy| {
            let path = capture_path(dir, policy, "jsonl");
            match JsonlSink::create(&path) {
                Ok(sink) => Recorder::new(Arc::new(sink)),
                Err(e) => {
                    eprintln!("capture {path:?} not writable ({e}); telemetry off for {policy}");
                    Recorder::disabled()
                }
            }
        }),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    println!("{result}");

    if let Some(dir) = &trace_dir {
        for row in &result.rows {
            export_chrome(dir, &row.policy);
        }
    }
    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, result.to_json()) {
            eprintln!("cannot write --json {path:?}: {e}");
            std::process::exit(1);
        }
        eprintln!("json: {path:?}");
    }
    exit_on_capture_error(dump_timeline_artifacts());
}
