//! Shared experiment infrastructure: the standard configurations, the
//! process-wide telemetry capture, the command-line rules the three
//! binaries share, and table / chart printing.

use pollux_cluster::ClusterSpec;
use pollux_core::PolluxConfig;
use pollux_sched::GaConfig;
use pollux_simulator::SimConfig;
use pollux_telemetry::{JsonlSink, Recorder};
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

/// The Pollux configuration every experiment starts from: defaults,
/// with the GA at [`experiment_ga`].
pub fn experiment_pollux() -> PolluxConfig {
    let mut config = PolluxConfig::default();
    config.sched.ga = experiment_ga();
    config
}

/// Default simulation settings for workload experiments.
pub fn experiment_sim(seed: u64) -> SimConfig {
    SimConfig {
        max_sim_time: 96.0 * 3600.0,
        seed,
        ..Default::default()
    }
}

/// A file the process cannot write (or, for a capture being reported,
/// read). The environment and the command line are user input: the
/// binaries print this on one line and exit 2 before simulating or
/// reporting anything.
#[derive(Debug)]
pub struct CaptureError {
    /// The environment variable or flag that named the file.
    var: &'static str,
    /// Its value.
    path: OsString,
    /// What the file system said.
    source: std::io::Error,
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { var, path, source } = self;
        write!(f, "{var} {path:?} is unusable: {source}")
    }
}

impl std::error::Error for CaptureError {}

impl CaptureError {
    /// The error for `path`, which `var` named, failing with `source`.
    pub fn io<'a>(var: &'static str, path: &'a OsStr) -> impl FnOnce(std::io::Error) -> Self + 'a {
        move |source| Self {
            var,
            path: path.to_owned(),
            source,
        }
    }
}

const TELEMETRY_OUT: &str = "POLLUX_TELEMETRY_OUT";

static CAPTURE: OnceLock<Recorder> = OnceLock::new();

/// The file `CAPTURE` writes, if one was asked for, and its sink.
static CAPTURE_FILE: OnceLock<(OsString, Arc<JsonlSink>)> = OnceLock::new();

/// Opens the process-wide capture the environment asks for, once. When
/// `POLLUX_TELEMETRY_OUT` names a file, telemetry from every simulation
/// run through the experiment drivers is captured there as JSONL
/// (summarize it with the `telemetry-report` bin), so sweeps over many
/// traces append into one capture; unset, the recorder is disabled and
/// every call site is a no-op. Binaries call this before simulating
/// anything, and [`finish_capture`] after their output; the drivers
/// record through what it opened.
///
/// # Errors
///
/// [`CaptureError`] when the capture file cannot be created.
pub fn capture_recorder() -> Result<Recorder, CaptureError> {
    if let Some(recorder) = CAPTURE.get() {
        return Ok(recorder.clone());
    }
    let recorder = match std::env::var_os(TELEMETRY_OUT) {
        Some(path) => {
            let sink = JsonlSink::create(&path).map_err(CaptureError::io(TELEMETRY_OUT, &path))?;
            let (_, sink) = CAPTURE_FILE.get_or_init(|| (path, Arc::new(sink)));
            Recorder::new(sink.clone())
        }
        None => Recorder::disabled(),
    };
    Ok(CAPTURE.get_or_init(|| recorder).clone())
}

/// Flushes the capture [`capture_recorder`] opened, if it opened one.
///
/// # Errors
///
/// [`CaptureError`] when a write to the capture failed.
pub fn finish_capture() -> Result<(), CaptureError> {
    match CAPTURE_FILE.get() {
        Some((path, sink)) => sink.finish().map_err(CaptureError::io(TELEMETRY_OUT, path)),
        None => Ok(()),
    }
}

/// The recorder [`capture_recorder`] opened; disabled in a process
/// that never opened one.
pub(crate) fn recorder() -> Recorder {
    CAPTURE.get().cloned().unwrap_or_default()
}

/// Unwraps a result whose error is the user's doing — a capture path, a
/// flag, a cell that cannot be built — or prints the error on one line
/// and exits with status 2: the one rule every binary keeps.
pub fn exit_on_error<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The command-line arguments after the program's name. They are user
/// input too: one that is not valid UTF-8 is refused by
/// [`exit_on_error`] before the binary looks at any of them.
pub fn cli_args() -> std::vec::IntoIter<String> {
    let args: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|arg| {
            exit_on_error(
                arg.into_string()
                    .map_err(|arg| format!("argument {arg:?} is not valid UTF-8")),
            )
        })
        .collect();
    args.into_iter()
}

/// Parses a flag's value and checks it against the accepted range (NaN
/// is in no range).
///
/// # Errors
///
/// One line naming the flag and the range, when the value is missing,
/// unparseable or out of range.
pub fn flag_value<T>(
    flag: &str,
    v: Option<String>,
    range: std::ops::RangeInclusive<T>,
) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
{
    match v.as_deref().map(T::from_str) {
        Some(Ok(x)) if range.contains(&x) => Ok(x),
        _ => Err(format!(
            "invalid or missing value for {flag} (expected {}..={})",
            range.start(),
            range.end()
        )),
    }
}

/// Records `arg` in `seen` when it is one of `value_flags`: a value
/// flag given twice is refused, where the second value would silently
/// replace the first.
///
/// # Errors
///
/// One line naming the flag, when `arg` is a value flag already seen.
pub fn first_use(seen: &mut Vec<String>, arg: &str, value_flags: &[&str]) -> Result<(), String> {
    if !value_flags.contains(&arg) {
        return Ok(());
    }
    if seen.iter().any(|flag| flag == arg) {
        return Err(format!("{arg} is given twice; give each value flag once"));
    }
    seen.push(arg.to_string());
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
    fn flag_values_are_parsed_and_range_checked() {
        let v = |s: &str| Some(s.to_string());
        assert_eq!(flag_value("--traces", v("8"), 1..=16), Ok(8u64));
        assert_eq!(flag_value("--load", v("0.5"), 0.01..=8.0), Ok(0.5));
        for bad in ["0", "17", "-1", "eight", ""] {
            let err = flag_value("--traces", v(bad), 1..=16u64).unwrap_err();
            assert!(err.contains("--traces") && err.contains("1..=16"), "{err}");
        }
        for bad in ["nan", "inf", "-inf", "0", "9"] {
            assert!(flag_value("--load", v(bad), 0.01..=8.0).is_err(), "{bad}");
        }
        assert!(flag_value("--jobs", None, 1..=9usize).is_err());
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }
}
