//! `telemetry-report` — summarize a JSONL telemetry capture.
//!
//! ```sh
//! POLLUX_TELEMETRY_OUT=/tmp/cap.jsonl pollux-sim pollux 1
//! telemetry-report /tmp/cap.jsonl
//! telemetry-report /tmp/cap.jsonl --chrome-trace /tmp/trace.json
//! telemetry-report /tmp/cap.jsonl --prefix sched/ --kind span
//! ```
//!
//! Prints a wall-clock span breakdown per subsystem, cumulative
//! counter totals, histogram percentiles, a digest of each
//! time-series (e.g. the per-interval cluster goodput samples), the
//! simulation-time timeline summary, and the scheduling-round decision
//! audit. Counters and histograms are cumulative snapshots re-emitted
//! at every flush, so the report keeps the *latest* snapshot per name;
//! spans, points, and timeline events are summed/collected over the
//! whole file.
//!
//! The engine's counters, as the counter table lists them:
//! `engine/chunks` and `engine/ticks` (chunks executed, ticks in
//! them); `engine/mid_chunk_aborts` (chunks a job's finish ended
//! before their event horizon); `engine/interference_recomputes`
//! (slowdown vectors recomputed: one per chunk that follows a change
//! to the interference index, none while interference is off);
//! `engine/ctx_rebuilds` (run contexts opened or reopened by a grant,
//! a wake-up, a new batch size or a changed slowdown);
//! `engine/profiler_flushes` (open profiler runs written back with new
//! samples: per job at most one per report round plus one per context
//! rebuild); `engine/horizon_*` (which event bounded each chunk).
//!
//! Flags:
//! - `--chrome-trace <out.json>`: also export the capture as a Chrome
//!   trace (open in Perfetto / `chrome://tracing`) — the one exporter
//!   of the workspace. The export always uses the full capture,
//!   unaffected by the filters below. A capture that holds more than
//!   one simulation (more than one `engine/topology` point, as
//!   `pollux-sim all` or a multi-trace sweep writes) is refused: job
//!   ids repeat across runs, so their node slices would overwrite one
//!   another.
//! - `--prefix <p>`: only report `subsystem/name` entries starting
//!   with `p`.
//! - `--kind <k>`: only report one event kind, one of `Event::KINDS`
//!   (repeatable; `--chrome-trace` and `--prefix` are given at most
//!   once).
//!
//! A repeated `--chrome-trace` or `--prefix`, an unreadable capture,
//! an unwritable trace or a capture refused for export is one line on
//! stderr and exit status 2, before the report prints.

use pollux_experiments::common::{cli_args, exit_on_error, first_use, render_table, CaptureError};
use pollux_telemetry::{chrome, Event, HistogramSnapshot, RoundExplain};
use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::fs::File;
use std::io::{BufRead, BufReader};

#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
struct PointAgg {
    count: u64,
    first_time: f64,
    last_time: f64,
    /// Last value per field, in first-seen order.
    last_fields: Vec<(String, f64)>,
}

#[derive(Default)]
struct TimelineAgg {
    count: u64,
    first_time: f64,
    last_time: f64,
    jobs: std::collections::BTreeSet<u64>,
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

struct Options {
    path: String,
    chrome_out: Option<String>,
    prefix: Option<String>,
    kinds: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: telemetry-report <capture.jsonl> [--chrome-trace <out.json>] \
         [--prefix <p>] [--kind <{}>]",
        Event::KINDS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = cli_args();
    let mut path = None;
    let mut chrome_out = None;
    let mut prefix = None;
    let mut kinds = Vec::new();
    let mut seen = Vec::new();
    while let Some(a) = args.next() {
        exit_on_error(first_use(&mut seen, &a, &["--chrome-trace", "--prefix"]));
        match a.as_str() {
            "--chrome-trace" => chrome_out = Some(args.next().unwrap_or_else(|| usage())),
            "--prefix" => prefix = Some(args.next().unwrap_or_else(|| usage())),
            "--kind" => {
                let k = args.next().unwrap_or_else(|| usage());
                let kind = Event::KINDS.into_iter().find(|&kind| kind == k);
                kinds.push(kind.unwrap_or_else(|| usage()));
            }
            _ if path.is_none() && !a.starts_with("--") => path = Some(a),
            _ => usage(),
        }
    }
    Options {
        path: path.unwrap_or_else(|| usage()),
        chrome_out,
        prefix,
        kinds,
    }
}

/// Whether `event` is the point `Simulation::with_recorder` stamps once
/// per run.
fn starts_a_run(event: &Event) -> bool {
    matches!(
        event,
        Event::Point { subsystem, name, .. } if subsystem == "engine" && name == "topology"
    )
}

fn main() {
    let opts = parse_args();
    let capture_error = || CaptureError::io("capture", OsStr::new(&opts.path));
    let file = exit_on_error(File::open(&opts.path).map_err(capture_error()));

    let mut spans: BTreeMap<(String, String), SpanAgg> = BTreeMap::new();
    let mut counters: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut hists: BTreeMap<(String, String), HistogramSnapshot> = BTreeMap::new();
    let mut points: BTreeMap<(String, String), PointAgg> = BTreeMap::new();
    let mut timeline: BTreeMap<(String, String), TimelineAgg> = BTreeMap::new();
    let mut meta: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut rounds: Vec<RoundExplain> = Vec::new();
    let mut all_events: Vec<Event> = Vec::new();
    let mut lines = 0u64;
    let mut skipped = 0u64;
    let mut filtered = 0u64;

    for (n, line) in BufReader::new(file).lines().enumerate() {
        let at_line =
            |e: std::io::Error| std::io::Error::new(e.kind(), format!("line {}: {e}", n + 1));
        let line = exit_on_error(line.map_err(at_line).map_err(capture_error()));
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let Some(event) = Event::parse_jsonl(&line) else {
            skipped += 1;
            continue;
        };
        if opts.chrome_out.is_some() {
            // The trace wants the unfiltered capture.
            all_events.push(event.clone());
        }
        let ident = format!("{}/{}", event.subsystem(), event.name());
        if let Some(p) = &opts.prefix {
            if !ident.starts_with(p.as_str()) {
                filtered += 1;
                continue;
            }
        }
        if !opts.kinds.is_empty() && !opts.kinds.contains(&event.kind()) {
            filtered += 1;
            continue;
        }
        let key = (event.subsystem().to_string(), event.name().to_string());
        match event {
            Event::Span { dur_ns, .. } => {
                let agg = spans.entry(key).or_default();
                agg.count += 1;
                agg.total_ns += dur_ns;
                agg.max_ns = agg.max_ns.max(dur_ns);
            }
            Event::Count { value, .. } => {
                counters.insert(key, value);
            }
            Event::Hist { buckets, .. } => {
                hists.insert(key, HistogramSnapshot::from_sparse(buckets));
            }
            Event::Point { time, fields, .. } => {
                let agg = points.entry(key).or_default();
                if agg.count == 0 {
                    agg.first_time = time;
                }
                agg.count += 1;
                agg.last_time = time;
                agg.last_fields = fields
                    .into_iter()
                    .map(|(k, v)| (k.into_owned(), v))
                    .collect();
            }
            Event::Timeline { time, job, .. } => {
                let agg = timeline.entry(key).or_default();
                if agg.count == 0 {
                    agg.first_time = time;
                }
                agg.count += 1;
                agg.last_time = time;
                agg.jobs.insert(job);
            }
            Event::Meta { value, .. } => {
                // Latest value wins, like counters.
                meta.insert(key, value.into_owned());
            }
            Event::Round(explain) => rounds.push(explain),
        }
    }

    // The trace is written once the capture is read (so it can never
    // truncate the capture it exports) and before the report prints.
    let chrome_out = opts.chrome_out.as_ref().map(|out| {
        let runs = all_events.iter().filter(|e| starts_a_run(e)).count();
        if runs > 1 {
            eprintln!(
                "--chrome-trace: {} holds {runs} simulations; a Chrome trace shows one \
                 (capture a single run, e.g. `pollux-sim <policy>` or `policy-zoo --traces 1`)",
                opts.path
            );
            std::process::exit(2);
        }
        let trace = chrome::chrome_trace(&all_events);
        let written = std::fs::write(out, &trace);
        exit_on_error(written.map_err(CaptureError::io("--chrome-trace", OsStr::new(out))));
        (out, chrome::stats(&trace).unwrap_or_default())
    });

    print!(
        "capture: {} ({lines} events, {skipped} unparseable",
        opts.path
    );
    if filtered > 0 {
        print!(", {filtered} filtered out");
    }
    println!(")\n");

    // A lossy capture can silently understate everything below: shout.
    if let Some(&dropped) = counters.get(&("telemetry".into(), "dropped_events".into())) {
        if dropped > 0 {
            eprintln!(
                "WARNING: the sink dropped {dropped} events (capacity overflow); \
                 totals and timelines below are incomplete.\n"
            );
        }
    }

    if !meta.is_empty() {
        let rows: Vec<Vec<String>> = meta
            .iter()
            .map(|((sub, name), v)| vec![format!("{sub}/{name}"), v.clone()])
            .collect();
        println!("metadata:");
        print!("{}", render_table(&["key", "value"], &rows));
        println!();
    }

    if !spans.is_empty() {
        let total: u64 = spans.values().map(|a| a.total_ns).sum();
        let rows: Vec<Vec<String>> = spans
            .iter()
            .map(|((sub, name), a)| {
                vec![
                    format!("{sub}/{name}"),
                    a.count.to_string(),
                    ms(a.total_ns),
                    ms(a.total_ns / a.count.max(1)),
                    ms(a.max_ns),
                    format!("{:.1}%", 100.0 * a.total_ns as f64 / total.max(1) as f64),
                ]
            })
            .collect();
        println!("spans (wall clock):");
        print!(
            "{}",
            render_table(
                &["span", "count", "total ms", "mean ms", "max ms", "share"],
                &rows,
            )
        );
        println!();
    }

    if !counters.is_empty() {
        let rows: Vec<Vec<String>> = counters
            .iter()
            .map(|((sub, name), v)| vec![format!("{sub}/{name}"), v.to_string()])
            .collect();
        println!("counters (cumulative):");
        print!("{}", render_table(&["counter", "total"], &rows));
        println!();
    }

    if !hists.is_empty() {
        let pct = |s: &HistogramSnapshot, p: f64| {
            s.percentile(p)
                .map(|v| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into())
        };
        let rows: Vec<Vec<String>> = hists
            .iter()
            .map(|((sub, name), s)| {
                vec![
                    format!("{sub}/{name}"),
                    s.count.to_string(),
                    pct(s, 50.0),
                    pct(s, 95.0),
                    pct(s, 99.0),
                ]
            })
            .collect();
        println!("histograms (log₂ buckets; percentiles are bucket midpoints):");
        print!(
            "{}",
            render_table(&["histogram", "count", "p50", "p95", "p99"], &rows)
        );
        println!();
    }

    if !points.is_empty() {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|((sub, name), a)| {
                let last = a
                    .last_fields
                    .iter()
                    .map(|(k, v)| format!("{k}={v:.2}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                vec![
                    format!("{sub}/{name}"),
                    a.count.to_string(),
                    format!("{:.0}..{:.0}", a.first_time, a.last_time),
                    last,
                ]
            })
            .collect();
        println!("time-series:");
        print!(
            "{}",
            render_table(&["series", "points", "time range (s)", "last point"], &rows)
        );
        println!();
    }

    if !timeline.is_empty() {
        let rows: Vec<Vec<String>> = timeline
            .iter()
            .map(|((sub, name), a)| {
                vec![
                    format!("{sub}/{name}"),
                    a.count.to_string(),
                    a.jobs.len().to_string(),
                    format!("{:.0}..{:.0}", a.first_time, a.last_time),
                ]
            })
            .collect();
        println!("timeline (simulation time):");
        print!(
            "{}",
            render_table(&["event", "count", "jobs", "time range (s)"], &rows)
        );
        println!();
    }

    if !rounds.is_empty() {
        const SHOW: usize = 20;
        let skipped_rounds = rounds.len().saturating_sub(SHOW);
        let rows: Vec<Vec<String>> = rounds
            .iter()
            .skip(skipped_rounds)
            .map(|r| {
                let moved = r.jobs.iter().filter(|j| j.restart_penalty > 0.0).count();
                let rack_moves = r
                    .jobs
                    .iter()
                    .filter(|j| j.rack_before >= 0 && j.rack_before != j.rack_after)
                    .count();
                let interfering = r.jobs.iter().filter(|j| !j.co_residents.is_empty()).count();
                vec![
                    format!("{:.0}", r.time),
                    r.jobs.len().to_string(),
                    format!("{:.3}", r.fitness_before),
                    format!("{:.3}", r.fitness),
                    format!("{:+.3}", r.fitness - r.fitness_before),
                    if r.racked { "yes" } else { "no" }.to_string(),
                    moved.to_string(),
                    rack_moves.to_string(),
                    interfering.to_string(),
                ]
            })
            .collect();
        println!("scheduling-round audit ({} rounds total):", rounds.len());
        if skipped_rounds > 0 {
            println!("  (showing the last {SHOW}; {skipped_rounds} earlier rounds elided)");
        }
        print!(
            "{}",
            render_table(
                &[
                    "time (s)",
                    "jobs",
                    "fitness before",
                    "fitness",
                    "delta",
                    "racked",
                    "restarts charged",
                    "rack moves",
                    "co-resident jobs",
                ],
                &rows,
            )
        );
        println!();
    }

    if let Some((out, stats)) = chrome_out {
        println!(
            "chrome trace: {out} ({} slices, {} counter samples, {} instants) — \
             open in https://ui.perfetto.dev or chrome://tracing",
            stats.slices, stats.counters, stats.instants
        );
    }
}
