//! `pollux-sim` treats its environment as user input: an output path
//! it cannot write is one line on stderr and exit status 2, never a
//! panic. Live event streaming is the one capture path pointed at
//! `/dev/stderr`.

use std::process::Command;

#[test]
fn unwritable_output_paths_exit_2_with_one_line() {
    for var in ["POLLUX_TRACE_OUT", "POLLUX_JSON_OUT"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pollux-sim"))
            .args(["tiresias", "1"])
            .env("POLLUX_SIM_JOBS", "2")
            .env(var, "/nonexistent-dir/pollux-sim-out")
            .output()
            .expect("pollux-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{var}: {stderr}");
        assert!(
            stderr.starts_with("cannot write /nonexistent-dir/"),
            "{var}: {stderr}"
        );
    }
}

#[test]
fn telemetry_out_dev_stderr_streams_parseable_jsonl() {
    let out = Command::new(env!("CARGO_BIN_EXE_pollux-sim"))
        .args(["tiresias", "1"])
        .env("POLLUX_SIM_JOBS", "2")
        .env("POLLUX_TELEMETRY_OUT", "/dev/stderr")
        .output()
        .expect("pollux-sim runs");
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
