//! The `experiments` runner: its registry is the table in `lib.rs`,
//! its flags are user input (one line on stderr and exit status 2,
//! the `pollux-sim` contract, which `policy-zoo` keeps through the
//! same flag parser and `telemetry-report` for the files it reads and
//! writes), a runner prints what its module's `Display` renders, and
//! every `policy-zoo` row's capture renders into a Chrome trace.

use pollux_telemetry::chrome;
use pollux_telemetry::json::{self, JsonValue};
use std::ffi::OsStr;
use std::fmt::Debug;
use std::fs;
use std::os::unix::ffi::OsStrExt;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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
    assert_eq!(documented.len(), 11, "{documented:?}");

    let out = experiments(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert_eq!(listed, documented);
}

/// Runs `bin` with `args` and checks it refused them: one line on
/// stderr, exit status 2, nothing on stdout.
fn refused<A: AsRef<OsStr> + Debug>(bin: &str, args: &[A]) {
    let out = Command::new(bin).args(args).output().expect("the bin runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?}: ran before rejecting"
    );
}

#[test]
fn bad_arguments_exit_2_with_one_line() {
    // An argument that is not UTF-8, first on the line of every binary.
    for bin in [
        env!("CARGO_BIN_EXE_experiments"),
        env!("CARGO_BIN_EXE_policy-zoo"),
        env!("CARGO_BIN_EXE_pollux-sim"),
        env!("CARGO_BIN_EXE_telemetry-report"),
    ] {
        refused(bin, &[OsStr::from_bytes(b"\xff")]);
    }
    for args in [
        &["fig99"][..],
        &["fig1", "--traces", "many"],
        &["fig1", "--traces", "0"],
        &["fig10", "--imagenet-scale", "1.5"],
        &["fig1", "--traces", "1", "--traces", "2"],
    ] {
        refused(env!("CARGO_BIN_EXE_experiments"), args);
    }

    // A directory squats on the capture `--trace-dir` would create for
    // tiresias, so the directory is usable and that one file is not.
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("zoo-squatted-capture");
    std::fs::create_dir_all(trace_dir.join("tiresias.jsonl")).unwrap();
    let trace_dir = trace_dir.to_str().unwrap();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let (za, zb) = (tmp.join("za.json"), tmp.join("zb.json"));
    let (za, zb) = (za.to_str().unwrap(), zb.to_str().unwrap());
    let quick = ["--traces", "1", "--jobs", "2", "--policies", "tiresias"];
    for args in [
        &["--interference", "2"][..],
        &["--interference", "nan"],
        &["--load", "-1"],
        &["--load", "nan"],
        &["--load", "inf"],
        &["--jobs", "0"],
        &["--jobs", "-3"],
        &["--traces", "0"],
        &["--traces"],
        &["--policies", "nope"],
        &["--policies", ""],
        &["--policies", ","],
        &["--policies", "tiresias,tiresias"],
        &["--frobnicate"],
        &["--json", "/nonexistent-dir/zoo.json"],
        &["--trace-dir", "/dev/null/zoo-traces"],
        &["--trace-dir", trace_dir],
        &["--json", za, "--json", zb],
        // Opens, then fails the write: refused before the table prints.
        &["--json", "/dev/full"],
    ] {
        refused(
            env!("CARGO_BIN_EXE_policy-zoo"),
            &[&quick[..], args].concat(),
        );
    }

    // A capture of one event, and the same event followed by a line
    // that is not UTF-8.
    let line = pollux_telemetry::Event::Count {
        subsystem: "engine".into(),
        name: "chunks".into(),
        value: 1,
    }
    .to_jsonl();
    let capture = tmp.join("one-event.jsonl");
    std::fs::write(&capture, format!("{line}\n")).unwrap();
    let garbled = tmp.join("garbled.jsonl");
    std::fs::write(&garbled, [line.as_bytes(), b"\n\xff\xfe\n"].concat()).unwrap();
    let (capture, garbled) = (capture.to_str().unwrap(), garbled.to_str().unwrap());
    let (ta, tb) = (tmp.join("ta.json"), tmp.join("tb.json"));
    let (ta, tb) = (ta.to_str().unwrap(), tb.to_str().unwrap());
    for args in [
        &["/nonexistent-dir/capture.jsonl"][..],
        &[capture, "--chrome-trace", "/nonexistent-dir/trace.json"],
        &[garbled],
        &[capture, "--chrome-trace", ta, "--chrome-trace", tb],
    ] {
        refused(env!("CARGO_BIN_EXE_telemetry-report"), args);
    }
}

#[test]
fn a_refused_zoo_run_leaves_an_existing_json_file_as_it_was() {
    // The names are refused before any output is opened: a bad
    // `--policies` must not truncate the file `--json` names.
    let prior = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("prior.json");
    let before = b"{\"rows\": 1}";
    for policies in ["nope", "tiresias,tiresias"] {
        fs::write(&prior, before).unwrap();
        let prior = prior.to_str().unwrap();
        refused(
            env!("CARGO_BIN_EXE_policy-zoo"),
            &["--policies", policies, "--json", prior],
        );
        assert_eq!(fs::read(prior).unwrap(), before, "--policies {policies}");
    }
}

#[test]
fn fig1_and_fig6_print_their_banner_then_the_module_rows() {
    for (name, rows) in [
        ("fig1", pollux_experiments::fig1::run().to_string()),
        ("fig6", pollux_experiments::fig6::run(8).to_string()),
    ] {
        let out = experiments(&[name]);
        assert!(out.status.success(), "{name}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.starts_with("====="), "{stdout}");
        assert!(stdout.ends_with(&format!("{rows}\n")), "{stdout}");
    }
}

#[test]
fn every_zoo_row_has_the_schema_and_a_chrome_trace() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("zoo-smoke");
    let _ = fs::remove_dir_all(&tmp);
    fs::create_dir_all(&tmp).unwrap();
    let (table, traces) = (tmp.join("zoo.json"), tmp.join("traces"));
    let out = Command::new(env!("CARGO_BIN_EXE_policy-zoo"))
        .args(["--traces", "1", "--jobs", "24", "--json"])
        .arg(&table)
        .arg("--trace-dir")
        .arg(&traces)
        .output()
        .expect("policy-zoo runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let table = json::parse(&fs::read_to_string(&table).unwrap()).expect("the table parses");
    let rows = table.get("rows").and_then(JsonValue::as_arr).expect("rows");
    assert!(rows.len() >= 7, "zoo shrank: {} policies", rows.len());
    for row in rows {
        for key in [
            "policy",
            "stages",
            "avg_jct_hours",
            "p50_jct_hours",
            "p95_jct_hours",
            "p99_jct_hours",
            "avg_wait_hours",
            "p99_wait_hours",
            "makespan_hours",
            "avg_efficiency",
            "job_goodput",
            "unfinished",
        ] {
            assert!(
                row.get(key).is_some(),
                "table schema drifted: missing {key}"
            );
        }
        let policy = row.get("policy").and_then(JsonValue::as_str).unwrap();
        let trace = traces.join(format!("{policy}.trace.json"));
        let status = Command::new(env!("CARGO_BIN_EXE_telemetry-report"))
            .arg(traces.join(format!("{policy}.jsonl")))
            .arg("--chrome-trace")
            .arg(&trace)
            .stdout(Stdio::null())
            .status()
            .expect("telemetry-report runs");
        assert!(status.success(), "{policy}: {status}");
        let text = fs::read_to_string(&trace).unwrap();
        let parsed = json::parse(&text).expect("the trace parses");
        let named = parsed.get("otherData").and_then(|d| d.get("sched/policy"));
        assert_eq!(named.and_then(JsonValue::as_str), Some(policy));
        let stats = chrome::stats(&text).expect("a Chrome trace");
        assert!(
            stats.slices > 0 && stats.counters > 0 && stats.instants > 0,
            "{policy}: {stats:?}"
        );
    }
}
