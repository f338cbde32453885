//! Shared experiment infrastructure: table printing, standard
//! configurations, and multi-trace averaging.

use pollux_cluster::ClusterSpec;
use pollux_sched::GaConfig;
use pollux_simulator::SimConfig;
use pollux_telemetry::{chrome, Event, JsonlSink, Recorder};
use pollux_workload::{JobSpec, TraceConfig, TraceGenerator};
use std::ffi::{OsStr, OsString};
use std::sync::{Arc, OnceLock};

/// The paper's testbed: 16 nodes × 4 Tesla T4 GPUs (Sec. 5.1).
pub fn testbed_cluster() -> ClusterSpec {
    ClusterSpec::homogeneous(16, 4).expect("static dimensions")
}

/// GA settings for experiments: smaller than the paper's
/// 100×100 (which targets a 60 s wall-clock budget per interval on a
/// real cluster) but converged for a 64-GPU cluster; see DESIGN.md.
pub fn experiment_ga() -> GaConfig {
    GaConfig {
        population: 40,
        generations: 20,
        ..Default::default()
    }
}

/// Default simulation settings for workload experiments.
pub fn experiment_sim(seed: u64) -> SimConfig {
    SimConfig {
        max_sim_time: 96.0 * 3600.0,
        seed,
        ..Default::default()
    }
}

/// Generates the `i`-th evaluation trace (the paper averages 8
/// different traces with the same distributions, Sec. 5.3).
pub fn evaluation_trace(i: u64, load: f64) -> Vec<JobSpec> {
    TraceGenerator::new(TraceConfig {
        seed: 1000 + i,
        load_multiplier: load,
        ..Default::default()
    })
    .expect("static config is valid")
    .generate()
}

/// A capture setting the process cannot honour. The environment is
/// user input: the binaries print this on one line and exit 2 before
/// simulating anything.
#[derive(Debug)]
pub enum CaptureError {
    /// The file `var` names cannot be written (or, for the capture a
    /// Chrome trace is exported from, read back).
    Io {
        /// The environment variable that named the file.
        var: &'static str,
        /// Its value.
        path: OsString,
        /// What the file system said.
        source: std::io::Error,
    },
    /// `POLLUX_CHROME_TRACE` is set and `POLLUX_TELEMETRY_OUT` is not:
    /// there is no capture to export.
    ChromeTraceWithoutCapture,
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { var, path, source } => write!(f, "{var} {path:?} is unusable: {source}"),
            Self::ChromeTraceWithoutCapture => {
                f.write_str("POLLUX_CHROME_TRACE is set but POLLUX_TELEMETRY_OUT is not")
            }
        }
    }
}

impl std::error::Error for CaptureError {}

impl CaptureError {
    fn io<'a>(var: &'static str, path: &'a OsStr) -> impl FnOnce(std::io::Error) -> Self + 'a {
        move |source| Self::Io {
            var,
            path: path.to_owned(),
            source,
        }
    }
}

const TELEMETRY_OUT: &str = "POLLUX_TELEMETRY_OUT";
const CHROME_TRACE: &str = "POLLUX_CHROME_TRACE";

static CAPTURE: OnceLock<Recorder> = OnceLock::new();

/// Opens the process-wide capture the environment asks for, once. When
/// `POLLUX_TELEMETRY_OUT` names a file, telemetry from every simulation
/// run through the experiment drivers is captured there as JSONL
/// (summarize it with the `telemetry-report` bin), so sweeps over many
/// traces append into one capture; unset, the recorder is disabled and
/// every call site is a no-op. Binaries call this before simulating
/// anything; the drivers then record through what it opened.
///
/// # Errors
///
/// [`CaptureError`] when either output path cannot be created, or
/// `POLLUX_CHROME_TRACE` is set without a capture to export.
pub fn capture_recorder() -> Result<Recorder, CaptureError> {
    if let Some(recorder) = CAPTURE.get() {
        return Ok(recorder.clone());
    }
    let capture = std::env::var_os(TELEMETRY_OUT);
    if let Some(out) = std::env::var_os(CHROME_TRACE) {
        if capture.is_none() {
            return Err(CaptureError::ChromeTraceWithoutCapture);
        }
        std::fs::File::create(&out).map_err(CaptureError::io(CHROME_TRACE, &out))?;
    }
    let recorder = match capture {
        Some(path) => {
            let sink = JsonlSink::create(&path).map_err(CaptureError::io(TELEMETRY_OUT, &path))?;
            Recorder::new(Arc::new(sink))
        }
        None => Recorder::disabled(),
    };
    Ok(CAPTURE.get_or_init(|| recorder).clone())
}

/// The recorder [`capture_recorder`] opened; disabled in a process
/// that never opened one.
pub(crate) fn recorder() -> Recorder {
    CAPTURE.get().cloned().unwrap_or_default()
}

/// Unwraps a capture result, or prints the error on one line and exits
/// with status 2.
pub fn exit_on_capture_error<T>(result: Result<T, CaptureError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Dumps end-of-run timeline artifacts from the process capture.
///
/// When `POLLUX_CHROME_TRACE` names an output file, the JSONL capture
/// written via [`capture_recorder`] is flushed, re-read, and exported
/// as a Chrome trace — per-node placement slices, goodput/queue counter
/// tracks, restart instants — loadable in Perfetto or
/// `chrome://tracing`. Call this once, after every simulation in the
/// process has finished; it is a no-op when the variable is unset.
///
/// # Errors
///
/// [`CaptureError`] when the capture cannot be read back or the trace
/// cannot be written.
pub fn dump_timeline_artifacts() -> Result<(), CaptureError> {
    let Some(out) = std::env::var_os(CHROME_TRACE) else {
        return Ok(());
    };
    let capture = std::env::var_os(TELEMETRY_OUT).ok_or(CaptureError::ChromeTraceWithoutCapture)?;
    recorder().flush();
    let text =
        std::fs::read_to_string(&capture).map_err(CaptureError::io(TELEMETRY_OUT, &capture))?;
    let events: Vec<Event> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(Event::parse_jsonl)
        .collect();
    let (trace, stats) = chrome::export_with_stats(&events);
    std::fs::write(&out, &trace).map_err(CaptureError::io(CHROME_TRACE, &out))?;
    eprintln!(
        "chrome trace: {out:?} ({} slices, {} counter samples, {} instants)",
        stats.slices, stats.counters, stats.instants
    );
    Ok(())
}

/// Mean of a slice (None when empty).
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Renders an ASCII table with aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (c, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = row.get(c).unwrap_or(&empty);
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Renders an ASCII line chart of one or more `(x, y)` series, labeled
/// per series, in a fixed `width × height` character grid. Used to make
/// the printed figures visually resemble the paper's plots.
pub fn render_chart(
    title: &str,
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    if all.is_empty() {
        return format!("{title}\n(empty)\n");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if x_max <= x_min {
        x_max = x_min + 1.0;
    }
    if y_max <= y_min {
        y_max = y_min + 1.0;
    }

    let mut grid = vec![vec![' '; width]; height];
    let marks = ['*', 'o', '+', 'x', '#'];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in pts.iter() {
            let cx = ((x - x_min) / (x_max - x_min) * (width - 1) as f64).round() as usize;
            let cy = ((y - y_min) / (y_max - y_min) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx.min(width - 1)] = mark;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:>9.2} |")
        } else if i == height - 1 {
            format!("{y_min:>9.2} |")
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10}+{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>11}{:<12.2}{:>width$.2}\n",
        "",
        x_min,
        x_max,
        width = width - 12
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", marks[i % marks.len()]))
        .collect();
    out.push_str(&format!("{:>11}legend: {}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_marks_and_legend() {
        let a: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64)).collect();
        let b: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, (10 - i) as f64)).collect();
        let s = render_chart("demo", &[("up", &a), ("down", &b)], 40, 10);
        assert!(s.contains('*') && s.contains('o'));
        assert!(s.contains("legend: * up   o down"));
        assert!(s.contains("demo"));
        // Y-axis bounds rendered.
        assert!(s.contains("10.00") && s.contains("0.00"));
    }

    #[test]
    fn chart_handles_degenerate_input() {
        assert!(render_chart("t", &[("e", &[])], 30, 8).contains("(empty)"));
        let flat = [(1.0, 5.0)];
        let s = render_chart("t", &[("p", &flat)], 30, 8);
        assert!(s.contains('*'));
    }

    #[test]
    fn table_renders_all_cells() {
        let s = render_table(
            &["policy", "jct"],
            &[
                vec!["pollux".into(), "1.2".into()],
                vec!["tiresias".into(), "2.4".into()],
            ],
        );
        assert!(s.contains("pollux"));
        assert!(s.contains("2.4"));
        // Header and 2 rows and 3 separators.
        assert_eq!(s.lines().count(), 6);
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn traces_differ_by_index() {
        let a = evaluation_trace(0, 1.0);
        let b = evaluation_trace(1, 1.0);
        assert_ne!(a, b);
        assert_eq!(a.len(), 160);
        assert_eq!(evaluation_trace(0, 0.5).len(), 80);
    }
}
