//! `benchmark`: the performance benchmark of the Pollux reproduction.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! benchmark [--seed N] [--seconds S] [--out FILE] [--check-repeat]
//! ```
//!
//! The first form is one run of one workload and ends with one JSON
//! line: the end-to-end metrics (`--trace 0`, telemetry off) or the
//! per-layer metrics (`--trace 1`, from traced repetitions and the
//! probes). The second form runs every workload both ways, one child
//! process after another, and prints every metric by name. See
//! `README.md` beside this package for why the workloads and metrics
//! are what they are.

mod jsonw;
mod metrics;
mod probes;
mod spans;
mod stats;
mod timed_policy;
mod workloads;

use metrics::{Layers, END_TO_END, PER_LAYER};
use pollux_telemetry::json::{self, JsonValue};
use pollux_telemetry::{Event, MemorySink, Recorder};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Inputs, Rep, Workload};

/// `run_seconds` of `/BENCHMARK.json`: the default `--seconds`.
const RUN_SECONDS: f64 = 40.0;
/// Timed repetitions a run makes at the very least.
const MIN_TIMED_REPS: usize = 3;
/// Events one traced repetition may emit before the sink drops any
/// (the largest capture, `dc_tiresias`, stays under a tenth of this).
const SINK_CAPACITY: usize = 1 << 22;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        check_repeat: false,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--check-repeat" {
            args.check_repeat = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// What one run reports.
#[derive(Default)]
struct Outcome {
    /// `(name, value, unit)` in table order.
    values: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Failed output checks; empty means the run is correct.
    problems: Vec<String>,
}

impl Outcome {
    fn json_line(&self) -> Result<String, String> {
        jsonw::checked(
            jsonw::Obj::default()
                .bool("correct", self.problems.is_empty())
                .uint("attempted", self.attempted)
                .uint("failed", self.failed)
                .raw("metrics", &jsonw::metrics(&self.values))
                .finish(),
        )
    }
}

/// Counts the repetitions' operations and checks that their digests
/// agree: every repetition does the same work, so a differing digest
/// fails all its operations.
fn check_reps(reps: &[Rep], out: &mut Outcome) {
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate() {
        out.attempted += rep.ops;
        out.failed += rep.infeasible_rounds;
        if rep.digest != first.digest || rep.round_ns.len() != first.round_ns.len() {
            out.failed += rep.ops;
            out.problems.push(format!(
                "repetition {i} differs from the first: digest {:016x} vs {:016x}, {} vs {} rounds",
                rep.digest,
                first.digest,
                rep.round_ns.len(),
                first.round_ns.len()
            ));
        }
    }
}

/// The steady cost of every piece over the repetitions, ns: the mean
/// of the faster half of its instances.
///
/// The host's noise only ever adds time, and it comes and goes: a
/// neighbour on the core slows everything by a fifth to a half for
/// seconds to a minute, then leaves. Every repetition does identical
/// work, so piece `i` of one is the same computation as piece `i` of
/// the next, and its faster instances are the ones the noise touched
/// least. A stretch of quiet anywhere in the run thus cleans the pieces
/// it covers, which a statistic over whole repetitions would need whole
/// quiet repetitions for. The mean of the faster half, not the fastest
/// one: on a host that is busy nine seconds in ten, whether a run meets
/// a quiet instance of a piece at all is luck, and the minimum jumps
/// with it where the half only drifts.
fn cleaned(reps: &[Rep], pieces: impl Fn(&Rep) -> &[u64]) -> Vec<f64> {
    let len = reps.iter().map(|r| pieces(r).len()).min().unwrap_or(0);
    (0..len)
        .map(|i| {
            let instances: Vec<f64> = reps.iter().map(|r| pieces(r)[i] as f64).collect();
            stats::faster_half_mean(&instances).unwrap_or(0.0)
        })
        .collect()
}

fn cleaned_wall_s(reps: &[Rep]) -> f64 {
    cleaned(reps, |r| &r.pieces_ns).iter().sum::<f64>() / 1e9
}

/// Whether a run that has spent `elapsed` of its `seconds` on `cycles`
/// equal cycles ends here: it does when another cycle would overshoot
/// by more than this one undershoots, so runs take `seconds` on average.
fn run_is_over(elapsed: f64, cycles: usize, seconds: f64) -> bool {
    elapsed + 0.5 * elapsed / cycles as f64 >= seconds
}

/// `--trace 0`: the end-to-end metrics, telemetry off. Every cycle sets
/// the workload up afresh and runs one repetition, so the set-ups are
/// spread over the run like the repetitions. `wall_s` is of the
/// [`cleaned`] pieces; `setup_s` is a median, as the contract asks.
fn timed_run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let off = Recorder::disabled();
    let mut setups = Vec::new();
    // No warm-up repetition: cleaning drops a slow first instance of
    // a piece like any other slow instance.
    let mut reps = Vec::new();
    let start = Instant::now();
    while reps.len() < MIN_TIMED_REPS
        || !run_is_over(start.elapsed().as_secs_f64(), reps.len(), seconds)
    {
        let setup = Instant::now();
        let inputs = Inputs::build(workload, seed);
        setups.push(setup.elapsed().as_secs_f64());
        reps.push(inputs.rep(&off));
    }

    let mut out = Outcome::default();
    check_reps(&reps, &mut out);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_ns() as f64 / 1e9).collect();
    let measured = [
        stats::median(&setups).expect("MIN_TIMED_REPS >= 1"),
        cleaned_wall_s(&reps),
        stats::peak_rss_mib().unwrap_or(0.0),
    ];
    out.values = END_TO_END
        .iter()
        .zip(measured)
        .map(|(def, value)| (def.name, value, def.unit))
        .collect();

    println!(
        "{}: seed {seed}, {} repetitions of {} rounds, digest {:016x}",
        workload.name(),
        reps.len(),
        reps[0].round_ns.len(),
        reps[0].digest
    );
    println!("  {}", workload.sizes());
    println!(
        "  whole repetitions: min {:.4} s, median {:.4} s, max {:.4} s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median(&walls).expect("timed repetitions"),
        walls.iter().copied().fold(0.0, f64::max),
    );
    out
}

/// `--trace 1`: the per-layer metrics. Traced and untraced repetitions
/// alternate, so both see the same stretches of host noise; the layer
/// breakdown is that of the fastest traced repetition (its self times
/// sum to its wall exactly), and the gap between the two [`cleaned`]
/// walls is the tracing overhead. The probes run last.
fn traced_run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let off = Recorder::disabled();
    let inputs = Inputs::build(workload, seed);
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // The fastest traced repetition: its wall, breakdown and capture.
    let mut best: Option<(u64, Layers, Vec<Event>)> = None;
    loop {
        let sink = Arc::new(MemorySink::new(SINK_CAPACITY));
        let recorder = Recorder::new(sink.clone());
        let rep = inputs.rep(&recorder);
        recorder.flush();
        let dropped = sink.dropped();
        let events = sink.drain();
        let (layers, problems) = metrics::layers(workload, &rep, &events, dropped);
        out.problems.extend(problems);
        if best.as_ref().is_none_or(|b| rep.wall_ns() < b.0) {
            best = Some((rep.wall_ns(), layers, events));
        }
        traced.push(rep);
        untraced.push(inputs.rep(&off));
        if run_is_over(start.elapsed().as_secs_f64(), traced.len(), seconds) {
            break;
        }
    }
    check_reps(&traced, &mut out);
    if untraced[0].digest != traced[0].digest {
        out.problems
            .push("tracing changed the result digest".to_string());
    }
    check_reps(&untraced, &mut out);

    let (_, mut layers, events) = best.expect("at least one traced repetition");
    let plain = cleaned_wall_s(&untraced);
    layers.insert(
        "telemetry.overhead_pct",
        (cleaned_wall_s(&traced) - plain) / plain * 100.0,
    );
    // Round latency as the operator sees it: telemetry off, cleaned.
    let mut round_ms: Vec<f64> = cleaned(&untraced, |r| &r.round_ns)
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    layers.insert(
        "round.mean_ms",
        round_ms.iter().sum::<f64>() / round_ms.len().max(1) as f64,
    );
    round_ms.sort_by(f64::total_cmp);
    layers.insert(
        "round.p95_ms",
        stats::percentile(&round_ms, 95.0).unwrap_or(0.0),
    );
    layers.extend(probes::models());
    layers.extend(probes::control(seed));
    layers.extend(probes::sched(seed));
    layers.extend(probes::workload(seed));
    layers.extend(probes::telemetry(&events));
    out.values = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = layers
                .get(name)
                .unwrap_or_else(|| panic!("no layer reports {name}"));
            (name, *value, unit)
        })
        .collect();

    println!(
        "{}: seed {seed}, {} traced and {} untraced repetitions, digest {:016x}",
        workload.name(),
        traced.len(),
        untraced.len(),
        traced[0].digest
    );
    println!("  {}", workload.sizes());
    let wall = layers["bench.traced_wall_s"];
    println!("  share of the traced wall ({wall:.4} s), self times:");
    for (name, unit, _) in PER_LAYER {
        if unit == "s" && name != "bench.traced_wall_s" && layers[name] > 0.0 {
            println!("    {name:<32} {:>5.1} %", layers[name] / wall * 100.0);
        }
    }
    out
}

fn single_run(workload: Workload, args: &Args) -> ExitCode {
    let out = if args.trace {
        traced_run(workload, args.seed, args.seconds)
    } else {
        timed_run(workload, args.seed, args.seconds)
    };
    for (name, value, unit) in &out.values {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for problem in &out.problems {
        eprintln!("{}: CHECK FAILED: {problem}", workload.name());
    }
    match out.json_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this binary once for one workload and returns its result line,
/// parsed. The child's report goes to our standard output as it is.
fn child(workload: Workload, args: &Args, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, line) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    println!("{report}");
    if !output.status.success() {
        return Err(format!("the {} run failed its checks", workload.name()));
    }
    let result = json::parse(line)
        .ok_or_else(|| format!("the {} run printed no result line", workload.name()))?;
    if result.get("correct") != Some(&JsonValue::Bool(true)) {
        return Err(format!("the {} run is not correct", workload.name()));
    }
    Ok(result)
}

fn metric(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload, end to end and per layer; optionally written to
/// `--out` as one JSON document.
fn suite(args: &Args) -> Result<(), String> {
    let mut workloads_json = Vec::new();
    for workload in Workload::ALL {
        let mut doc = jsonw::Obj::default()
            .str("name", workload.name())
            .str("sizes", workload.sizes());
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let result = child(workload, args, trace)?;
            let names: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut values = jsonw::Obj::default();
            for name in names {
                let value = metric(&result, name)
                    .ok_or_else(|| format!("{} reports no {name}", workload.name()))?;
                values = values.num(name, value);
            }
            doc = doc.raw(key, &values.finish());
        }
        workloads_json.push(doc.finish());
    }
    if let Some(path) = &args.out {
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_default();
        let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
        let text = jsonw::checked(
            jsonw::Obj::default()
                .str("rustc", &rustc)
                .uint("available_parallelism", parallelism as u64)
                .uint("seed", args.seed)
                .num("seconds", args.seconds)
                .raw("workloads", &format!("[{}]", workloads_json.join(", ")))
                .finish(),
        )?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// Runs per set and workload in `--check-repeat`.
const REPEAT_RUNS: usize = 3;

/// Two sets of end-to-end runs of the same code must agree within the
/// benchmark's own bounds. The sets' runs alternate, so that a slow
/// stretch of the host falls on both, and each set reports the median
/// of its runs, as the driver does.
fn check_repeat(args: &Args) -> Result<(), String> {
    // medians[workload][set][metric]
    let mut medians = Vec::new();
    for workload in Workload::ALL {
        let mut runs = [Vec::new(), Vec::new()];
        for _ in 0..REPEAT_RUNS {
            for set in &mut runs {
                set.push(child(workload, args, false)?);
            }
        }
        let mut per_set = Vec::new();
        for set in &runs {
            let mut per_metric = Vec::new();
            for def in &END_TO_END {
                let values = set
                    .iter()
                    .map(|run| {
                        metric(run, def.name)
                            .ok_or_else(|| format!("{} reports no {}", workload.name(), def.name))
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
                per_metric.push(stats::median(&values).expect("REPEAT_RUNS >= 1"));
            }
            per_set.push(per_metric);
        }
        medians.push(per_set);
    }
    println!(
        "{:<14} {:<16} {:<7} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "better", "first", "second", "diff", "bound"
    );
    let mut exceeded = Vec::new();
    for (workload, per_set) in Workload::ALL.iter().zip(&medians) {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (first, second) = (per_set[0][m], per_set[1][m]);
            let diff = (second - first).abs() / first.abs();
            let over = diff > def.bound;
            println!(
                "{:<14} {:<16} {:<7} {first:>14.6} {second:>14.6} {:>8.2}% {:>6.0}%{}",
                workload.name(),
                def.name,
                def.better,
                diff * 100.0,
                def.bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
            if over {
                exceeded.push(format!("{} {}", workload.name(), def.name));
            }
        }
    }
    if exceeded.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two sets of runs of the same code differ by more than the bound: {}",
            exceeded.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--check-repeat]"
            );
            return ExitCode::from(2);
        }
    };
    let done = match args.workload {
        Some(workload) => return single_run(workload, &args),
        None if args.check_repeat => check_repeat(&args),
        None => suite(&args),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
