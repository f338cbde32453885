//! The `experiments` runner: its registry is the table in `lib.rs`,
//! its flags are user input (one line on stderr and exit status 2,
//! the `pollux-sim` contract), and a runner prints what its module's
//! `Display` renders.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs")
}

#[test]
fn list_is_the_lib_rs_table_minus_the_zoo() {
    // Rows of the module table look like "//! | [`fig1`] | Fig 1a/1b …".
    let documented: Vec<&str> = include_str!("../src/lib.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("//! | [`")?.split('`').next())
        .filter(|&name| name != "zoo")
        .collect();
    assert_eq!(documented.len(), 13, "{documented:?}");

    let out = experiments(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(listed, documented);
}

#[test]
fn bad_arguments_exit_2_with_one_line() {
    for args in [
        &["fig99"][..],
        &["fig1", "--traces", "many"],
        &["fig10", "--imagenet-scale", "1.5"],
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
    }
}

#[test]
fn fig6_prints_its_banner_then_the_module_rows() {
    let out = experiments(&["fig6"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("====="), "{stdout}");
    let rows = format!("{}\n", pollux_experiments::fig6::run(8));
    assert!(stdout.ends_with(&rows), "{stdout}");
}
