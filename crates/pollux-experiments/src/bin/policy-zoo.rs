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
//! - `--policies`: comma-separated registry names, each at most once
//!   (default: all).
//! - `--traces`: independently-seeded traces averaged per policy,
//!   1–16 (default 2).
//! - `--jobs`: jobs per trace, 1–100000 (default: the standard 160-job
//!   workload).
//! - `--load`: workload scale, 0.01–8 (1.0 = the paper's 8-hour
//!   window).
//! - `--interference`: injected co-location slowdown, 0–0.99
//!   (default 0).
//! - `--realistic`: submit trace-derived user configs instead of
//!   idealized tuned configs.
//! - `--trace-dir DIR`: per-policy telemetry — writes the JSONL capture
//!   `DIR/<policy>.jsonl` for every policy in the run; at `--traces 1`,
//!   `telemetry-report DIR/<policy>.jsonl --chrome-trace <out.json>`
//!   turns one into a Chrome trace (open in <https://ui.perfetto.dev>).
//! - `--json PATH`: also dump the structured `ZooResult` as JSON.
//!
//! Flags are user input: a bad value, a value flag given twice, an
//! unknown, blank or repeated policy name or an output path that
//! cannot be opened is one line on stderr and exit status 2, before
//! anything is simulated; a `--json` file whose write fails is the
//! same before the table prints, and a capture whose writes failed
//! after it. Without
//! `--trace-dir`, telemetry follows the process-wide
//! `POLLUX_TELEMETRY_OUT` capture like every other experiment driver.

use pollux_core::ConfigChoice;
use pollux_experiments::common::{
    capture_recorder, cli_args, exit_on_error, finish_capture, first_use, flag_value, render_table,
    CaptureError,
};
use pollux_experiments::zoo::{self, ZooOptions};
use pollux_telemetry::{JsonlSink, Recorder};
use std::cell::RefCell;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!(
        "{msg}; usage: policy-zoo [--list] [--policies a,b,c] [--traces N] [--jobs N] [--load F] \
         [--interference F] [--realistic] [--trace-dir DIR] [--json PATH]"
    );
    std::process::exit(2);
}

/// A range-checked numeric flag.
fn number<T>(flag: &str, v: Option<String>, range: std::ops::RangeInclusive<T>) -> T
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    flag_value(flag, v, range).unwrap_or_else(|e| fail(e))
}

/// A flag whose value is text (names, a path).
fn text(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| fail(format_args!("missing value for {flag}")))
}

/// Opens (or writes) an output path `flag` named, or prints why it
/// cannot on one line and exits with status 2.
fn output<'a, T>(
    flag: &'static str,
    path: &'a Path,
    open: impl FnOnce(&'a Path) -> std::io::Result<T>,
) -> T {
    exit_on_error(open(path).map_err(CaptureError::io(flag, path.as_os_str())))
}

/// The flags that take a value; each may be given once.
const VALUE_FLAGS: [&str; 7] = [
    "--policies",
    "--traces",
    "--jobs",
    "--load",
    "--interference",
    "--trace-dir",
    "--json",
];

fn main() {
    let mut opts = ZooOptions::default();
    let mut list = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;

    let mut args = cli_args();
    let mut seen = Vec::new();
    while let Some(arg) = args.next() {
        exit_on_error(first_use(&mut seen, &arg, &VALUE_FLAGS));
        match arg.as_str() {
            "--list" => list = true,
            "--policies" => {
                // A blank name is kept, so `--policies ""` is refused
                // rather than read as "all".
                opts.policies = text("--policies", args.next())
                    .split(',')
                    .map(|name| name.trim().to_string())
                    .collect();
            }
            "--traces" => opts.traces = number("--traces", args.next(), 1..=16),
            "--jobs" => opts.cell.jobs = number("--jobs", args.next(), 1..=100_000),
            "--load" => opts.cell.load = number("--load", args.next(), 0.01..=8.0),
            "--interference" => {
                opts.cell.interference = number("--interference", args.next(), 0.0..=0.99)
            }
            "--realistic" => opts.cell.choice = ConfigChoice::Realistic,
            "--trace-dir" => trace_dir = Some(text("--trace-dir", args.next()).into()),
            "--json" => json_out = Some(text("--json", args.next()).into()),
            _ => fail(format_args!("unknown argument {arg:?}")),
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

    // The names are checked before any output is opened, so a refused
    // run leaves an existing `--json` file or capture as it was; every
    // output path is then opened before the first simulation.
    exit_on_error(zoo::resolve(&opts));
    exit_on_error(capture_recorder());
    if let Some(path) = &json_out {
        output("--json", path, File::create);
    }
    if let Some(dir) = &trace_dir {
        output("--trace-dir", dir, std::fs::create_dir_all);
    }

    let traces = RefCell::new(Vec::new());
    let result = exit_on_error(match &trace_dir {
        None => zoo::run(&opts),
        // Registry names are kept verbatim as file names (`+` included).
        Some(dir) => zoo::run_with_recorder(&opts, |policy| {
            let capture = dir.join(format!("{policy}.jsonl"));
            let sink = Arc::new(output("--trace-dir", &capture, JsonlSink::create));
            traces.borrow_mut().push((capture, sink.clone()));
            Recorder::new(sink)
        }),
    });

    // The JSON is written before the table prints, so a file that
    // cannot take it is refused with nothing on stdout.
    if let Some(path) = &json_out {
        output("--json", path, |path| {
            std::fs::write(path, result.to_json())
        });
        eprintln!("json: {path:?}");
    }

    println!("{result}");

    exit_on_error(finish_capture());
    for (capture, sink) in traces.into_inner() {
        output("--trace-dir", &capture, |_| sink.finish());
    }
}
