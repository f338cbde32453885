//! `pollux-sim` treats its environment as user input: an output path
//! it cannot write is one line on stderr and exit status 2, never a
//! panic or a run that quietly goes without. Live event streaming is
//! the one capture path pointed at `/dev/stderr`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const UNWRITABLE: &str = "/nonexistent-dir/pollux-sim-out";

/// A two-job `pollux-sim` run with the given extra environment.
fn pollux_sim(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pollux-sim"))
        .args(args)
        .env("POLLUX_SIM_JOBS", "2")
        .envs(env.iter().copied())
        .output()
        .expect("pollux-sim runs")
}

/// A scratch file of this test binary's own, under cargo's target
/// directory, removed if a previous run left it.
fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// The `digest` column of each summary line of a successful run.
fn digests(out: &Output) -> Vec<String> {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| line.split("digest ").nth(1))
        .map(|d| d.trim().to_string())
        .collect()
}

#[test]
fn telemetry_out_dev_stderr_streams_parseable_jsonl() {
    let out = pollux_sim(
        &["tiresias", "1"],
        &[("POLLUX_TELEMETRY_OUT", "/dev/stderr")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.lines().count() > 0, "no events streamed");
    for line in stderr.lines() {
        assert!(
            pollux_telemetry::Event::parse_jsonl(line).is_some(),
            "not a telemetry event: {line}"
        );
    }
}

/// A capture the process cannot open is refused before anything is
/// simulated — by every binary that reads the capture settings.
#[test]
fn unusable_capture_settings_exit_2_before_simulating() {
    let bins: [(&str, &[&str]); 3] = [
        (env!("CARGO_BIN_EXE_pollux-sim"), &["tiresias", "1"]),
        (
            env!("CARGO_BIN_EXE_policy-zoo"),
            &["--traces", "1", "--jobs", "2"],
        ),
        (env!("CARGO_BIN_EXE_experiments"), &["fig6"]),
    ];
    for (bin, args) in bins {
        let out = Command::new(bin)
            .args(args)
            .env("POLLUX_SIM_JOBS", "2")
            .env("POLLUX_TELEMETRY_OUT", UNWRITABLE)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin}: {stderr}");
        assert!(stderr.contains("POLLUX_TELEMETRY_OUT"), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin}: something ran");
    }
}

/// A capture whose writes fail runs to the end and prints its normal
/// output, then says so on one line naming the file and exits 2 — in
/// every binary that writes one, `policy-zoo`'s `--trace-dir` files
/// included.
#[test]
fn failed_capture_writes_exit_2_after_the_output() {
    if !Path::new("/dev/full").exists() {
        return;
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("full-trace-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the trace dir");
    let full_trace = dir.join("tiresias.jsonl");
    std::os::unix::fs::symlink("/dev/full", &full_trace).expect("symlink");
    let zoo = [
        "--traces",
        "1",
        "--jobs",
        "2",
        "--policies",
        "tiresias",
        "--trace-dir",
        dir.to_str().unwrap(),
    ];
    // Runs `bin` and checks it printed its output, then one line naming
    // the capture `names`, and exited 2.
    let fails_after_output = |bin: &str, args: &[&str], env: &[(&str, &str)], names: &str| {
        let out = Command::new(bin)
            .args(args)
            .env("POLLUX_SIM_JOBS", "8")
            .envs(env.iter().copied())
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin}: {stderr}");
        assert!(stderr.contains(names), "{bin}: {stderr}");
        assert!(!out.stdout.is_empty(), "{bin}: no output before the error");
    };
    let full = [("POLLUX_TELEMETRY_OUT", "/dev/full")];
    let named = "POLLUX_TELEMETRY_OUT \"/dev/full\"";
    fails_after_output(
        env!("CARGO_BIN_EXE_pollux-sim"),
        &["tiresias", "1"],
        &full,
        named,
    );
    fails_after_output(
        env!("CARGO_BIN_EXE_policy-zoo"),
        &["--traces", "1", "--jobs", "2", "--policies", "tiresias"],
        &full,
        named,
    );
    fails_after_output(
        env!("CARGO_BIN_EXE_experiments"),
        &["fig10", "--imagenet-scale", "0.01"],
        &full,
        named,
    );
    fails_after_output(
        env!("CARGO_BIN_EXE_policy-zoo"),
        &zoo,
        &[],
        full_trace.to_str().unwrap(),
    );
}

/// Nothing follows the seed: a third argument is refused before
/// anything is simulated — one line naming it, exit 2.
#[test]
fn arguments_past_the_seed_exit_2() {
    let out = pollux_sim(&["tiresias", "1", "--jobs", "9"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("\"--jobs\""), "{stderr}");
    assert!(out.stdout.is_empty(), "something ran");
}

/// A trace size outside 1–100000, or not a number, is refused before
/// anything is simulated — one line, exit 2 — never an allocation the
/// process cannot survive.
#[test]
fn out_of_range_trace_sizes_exit_2() {
    for jobs in ["0", "100000000000", "many"] {
        let out = pollux_sim(&["tiresias", "1"], &[("POLLUX_SIM_JOBS", jobs)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{jobs}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{jobs}: {stderr}");
        assert!(stderr.contains("POLLUX_SIM_JOBS"), "{jobs}: {stderr}");
        assert!(out.stdout.is_empty(), "{jobs}: something ran");
    }
}

/// `telemetry-report --chrome-trace` draws one simulation. The runs of
/// `pollux-sim all` share one capture and repeat each other's job ids,
/// so their trace is refused — one line, exit 2, nothing written —
/// while the report of the same capture still prints.
#[test]
fn a_chrome_trace_is_one_run_of_the_capture() {
    let report = |capture: &Path, args: &[&Path]| {
        Command::new(env!("CARGO_BIN_EXE_telemetry-report"))
            .arg(capture)
            .args(args)
            .output()
            .expect("telemetry-report runs")
    };
    let one = scratch("one-run.jsonl");
    let one_trace = scratch("one-run.trace.json");
    let env = [("POLLUX_TELEMETRY_OUT", one.to_str().unwrap())];
    assert_eq!(digests(&pollux_sim(&["tiresias", "1"], &env)).len(), 1);
    let out = report(&one, &["--chrome-trace".as_ref(), &one_trace]);
    assert!(out.status.success(), "{out:?}");
    let trace = std::fs::read_to_string(&one_trace).expect("the trace is written");
    assert!(pollux_telemetry::chrome::stats(&trace).is_some(), "{trace}");

    let all = scratch("three-runs.jsonl");
    let all_trace = scratch("three-runs.trace.json");
    let env = [("POLLUX_TELEMETRY_OUT", all.to_str().unwrap())];
    assert_eq!(digests(&pollux_sim(&["all", "1"], &env)).len(), 3);
    let out = report(&all, &["--chrome-trace".as_ref(), &all_trace]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("3 simulations"), "{stderr}");
    assert!(out.stdout.is_empty(), "reported before refusing");
    assert!(!all_trace.exists(), "a refused trace was written");

    let out = report(&all, &[]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("capture: "));
}

/// The summary line's digest answers "did these two runs diverge":
/// equal for equal inputs, different for a different seed.
#[test]
fn the_summary_line_carries_the_result_digest() {
    let first = digests(&pollux_sim(&["tiresias", "1"], &[]));
    assert_eq!(first.len(), 1, "one summary line, one digest");
    assert_eq!(first[0].len(), 16, "sixteen hex digits: {first:?}");
    assert_eq!(first, digests(&pollux_sim(&["tiresias", "1"], &[])));
    assert_ne!(first, digests(&pollux_sim(&["tiresias", "2"], &[])));
}
