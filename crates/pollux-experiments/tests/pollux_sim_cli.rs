//! `pollux-sim` treats its environment as user input: an output path
//! it cannot write is one line on stderr and exit status 2, never a
//! panic.

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
