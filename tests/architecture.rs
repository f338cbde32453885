//! One mechanism per concern, asserted over the source tree itself.
//!
//! Each guard reads the files with `std::fs` and fails with the lines
//! that broke it, so a second JSON writer, a second scheduling round, a
//! second Chrome exporter, a retired setting coming back or a vendored
//! stub nobody uses fails `cargo test` instead of lingering. The frozen
//! `benchmark/` stays outside the paths searched; only its manifest is
//! read, as a user of the vendored stubs. This file names every needle
//! it looks for, so it is skipped.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    fs::canonicalize(env!("CARGO_MANIFEST_DIR")).expect("the package root exists")
}

/// The files under each of `paths` (relative to the root; a file stands
/// for itself), in path order, this file excepted.
fn files(paths: &[&str]) -> Vec<String> {
    fn walk(root: &Path, rel: String, out: &mut Vec<String>) {
        let path = root.join(&rel);
        if path.is_dir() {
            let mut names: Vec<String> = fs::read_dir(&path)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            for name in names {
                walk(root, format!("{rel}/{name}"), out);
            }
        } else if rel != file!() {
            out.push(rel);
        }
    }
    let root = root();
    let mut out = Vec::new();
    for path in paths {
        walk(&root, path.to_string(), &mut out);
    }
    out
}

/// The files under `crates/*/src`.
fn crate_sources() -> Vec<String> {
    files(&["crates"])
        .into_iter()
        .filter(|f| f.split('/').nth(2) == Some("src"))
        .collect()
}

/// `path:line: text` for every line of `files` that `hit` matches.
fn grep(files: &[String], hit: impl Fn(&str) -> bool) -> Vec<String> {
    grep_until(files, |_| false, hit)
}

/// [`grep`] over the lines of each file before the first that `end`
/// matches.
fn grep_until(
    files: &[String],
    end: impl Fn(&str) -> bool,
    hit: impl Fn(&str) -> bool,
) -> Vec<String> {
    let root = root();
    let mut hits = Vec::new();
    for file in files {
        let bytes = fs::read(root.join(file)).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        for (n, line) in text.lines().take_while(|line| !end(line)).enumerate() {
            if hit(line) {
                hits.push(format!("{file}:{}: {line}", n + 1));
            }
        }
    }
    hits
}

/// Asserts that `hits` is exactly one line, and that it is in `file`.
fn assert_once_in(hits: &[String], file: &str, message: &str) {
    let in_file = hits.len() == 1 && hits[0].starts_with(&format!("{file}:"));
    assert!(in_file, "{message}\n{}", hits.join("\n"));
}

/// Whether `line` holds an escaped JSON key (`\"key\":`), the fragment
/// a hand-placed writer starts with.
fn hand_placed_key(line: &str) -> bool {
    line.match_indices(r#"\""#).any(|(i, quote)| {
        let rest = &line[i + quote.len()..];
        let key = rest.len()
            - rest
                .trim_start_matches(|c: char| c.is_ascii_alphabetic() || c == '_')
                .len();
        key > 0 && rest[key..].starts_with(r#"\":"#)
    })
}

/// `(table, key, value)` for every `key = value` line of a manifest's
/// dependency tables (`[dependencies]`, `[dev-dependencies]`,
/// `[workspace.dependencies]`, …). A `key.workspace = true` line keeps
/// its suffix in `key`.
fn dependencies(manifest: &str) -> Vec<(&str, &str, &str)> {
    let mut table = "";
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            table = header.trim_end_matches(']');
        } else if table.ends_with("dependencies") && !line.starts_with('#') {
            if let Some((key, value)) = line.split_once('=') {
                deps.push((table, key.trim(), value.trim()));
            }
        }
    }
    deps
}

/// The `path` of an inline dependency table, `{ path = "…", … }`.
fn path_of(value: &str) -> Option<&str> {
    value
        .trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .find_map(|entry| {
            let (key, path) = entry.split_once('=')?;
            (key.trim() == "path").then(|| path.trim().trim_matches('"'))
        })
}

// No crate derives or implements a serialization trait (vendor/serde
// and vendor/serde_json exist for the frozen benchmark/ alone).
#[test]
fn the_workspace_does_not_use_serde() {
    let sources: Vec<String> = files(&["crates", "src", "examples", "tests", "Cargo.toml"])
        .into_iter()
        .filter(|f| f.ends_with(".rs") || f == "Cargo.toml" || f.ends_with("/Cargo.toml"))
        .collect();
    let hits = grep(&sources, |line| {
        ["serde", "Serialize", "Deserialize"]
            .iter()
            .any(|needle| line.contains(needle))
    });
    assert!(
        hits.is_empty(),
        "the workspace does not use serde: write JSON through pollux-telemetry::json\n{}",
        hits.join("\n")
    );
}

// "The bytes a golden pins" are defined once, in SimResult::digest.
#[test]
fn one_simresult_digest() {
    let hits = grep(&files(&["crates", "tests", "src"]), |line| {
        line.contains("fn fnv1a64")
    });
    assert_once_in(
        &hits,
        "crates/pollux-simulator/src/metrics.rs",
        "one SimResult digest: `fn fnv1a64` lives in pollux-simulator's metrics.rs alone",
    );
}

// A run takes what is set and returns what is read: the removed event
// log, job series, scheduler interval and Debug dumps stay gone, and so
// do the second scheduler-stats channel, the settings every caller left
// at the default, the trainer's unused models, the Chrome exporters
// beside `telemetry-report --chrome-trace`, the rack-assignment GA
// whose pick phase 1 now makes outright, the gradient-accumulation
// extension the paper never uses and the public helpers nothing called.
#[test]
fn retired_identifiers_stay_gone() {
    const RETIRED: &[&str] = &[
        "SchedulingEvent",
        "record_job_series",
        "POLLUX_JSON_OUT",
        "interval_seconds",
        "sched_stats",
        ".take_interval_stats(",
        "speedup_stats(",
        "record_lookups",
        "rows_materialized",
        "TiresiasConfig",
        "OrEtAlConfig",
        "LbfgsbOptions",
        "tournament_size",
        "gputime_thres",
        "low_util",
        "high_util",
        "work_sigma",
        "gpus_per_node_hint",
        "gns_smoothing",
        "GradModel",
        "LogisticModel",
        "MlpModel",
        "SoftmaxModel",
        "EpochLoader",
        "POLLUX_CHROME_TRACE",
        "dump_timeline_artifacts",
        "export_chrome_trace",
        "ChromeTraceWithoutCapture",
        "export_with_stats",
        "MUTATION_PROB",
        "EARLY_STOP_GENS",
        "AccumulatedGoodput",
        "ext_accum",
        "run_with_cap",
        "row_equals",
        "effective_examples",
        "from_gradient_stats",
        "PreemptionPolicy",
        "PreemptAll",
        "NoPreemption",
        "yield_rows",
        "from_rack_of",
        "RowStripe",
        "Simulation::new(",
        "tuned_config",
        "realistic_config",
        "valid_tuned_gpu_counts",
    ];
    let hits = grep(&files(&["crates", "src", "tests", "examples"]), |line| {
        RETIRED.iter().any(|name| line.contains(name))
    });
    assert!(
        hits.is_empty(),
        "the capture is the one timeline, the recorder the one counter channel, \
         telemetry-report the one Chrome exporter, phase 1 a pick and no search, \
         goodput the paper's, preemption a rule, a topology a rack width; settings \
         are what a caller sets\n{}",
        hits.join("\n")
    );
}

// A Chrome trace is written in one place, `telemetry-report <capture>
// --chrome-trace <out>`; a second exporter starts with a second call to
// the renderer.
#[test]
fn one_chrome_exporter() {
    let sources: Vec<String> = crate_sources()
        .into_iter()
        .filter(|f| f != "crates/pollux-telemetry/src/chrome.rs")
        .collect();
    let hits = grep(&sources, |line| line.contains("chrome_trace("));
    assert_once_in(
        &hits,
        "crates/pollux-experiments/src/bin/telemetry-report.rs",
        "one Chrome exporter: only telemetry-report's --chrome-trace calls chrome::chrome_trace",
    );
}

// Every table, figure, the zoo and pollux-sim run their cells through
// pollux-experiments::cell; a second runner starts with a second call.
#[test]
fn one_experiment_cell_path() {
    let hits = grep(&files(&["crates/pollux-experiments/src"]), |line| {
        line.contains("run_trace_recorded")
    });
    assert_once_in(
        &hits,
        "crates/pollux-experiments/src/cell.rs",
        "every experiment simulates through cell::simulate, the one `run_trace_recorded` call",
    );
}

// The engine and the live service run one scheduling round; a second
// copy of it starts with a second call to the planner or the resize rule.
#[test]
fn one_scheduling_round() {
    let sources: Vec<String> = crate_sources()
        .into_iter()
        .filter(|f| f != "crates/pollux-control/src/round.rs")
        .collect();
    let hits = grep(&sources, |line| {
        line.contains(".plan(") || line.contains("resize_placement(")
    });
    assert!(
        hits.is_empty(),
        "only RoundPlanner::round plans a round and resizes a placement\n{}",
        hits.join("\n")
    );
}

// Captures, Chrome traces and the zoo table are written by
// pollux-telemetry::json's one writer, which places every brace, comma
// and escaped key.
#[test]
fn one_json_writer() {
    let sources: Vec<String> = crate_sources()
        .into_iter()
        .filter(|f| f != "crates/pollux-telemetry/src/json.rs")
        .collect();
    let hits = grep(&sources, hand_placed_key);
    assert!(
        hits.is_empty(),
        "write JSON through pollux_telemetry::json::write_obj\n{}",
        hits.join("\n")
    );
}

// Gang FIFO, LAS, SRTF, SRSF and Optimus' minimum pass admit through
// pollux-control's one ranked backfill; a second copy of the loop starts
// with a second `budget -= need`. The baselines reach the stages through
// pollux-control, not through the simulator.
#[test]
fn one_backfill_admission() {
    let hits = grep(&crate_sources(), |line| line.contains("budget -= need"));
    assert_once_in(
        &hits,
        "crates/pollux-control/src/stages.rs",
        "one ranked backfill: the one `budget -= need` is in pollux-control's stages.rs",
    );

    let manifest = fs::read_to_string(root().join("crates/pollux-baselines/Cargo.toml")).unwrap();
    let on_simulator = dependencies(&manifest)
        .into_iter()
        .any(|(table, key, value)| {
            table == "dependencies"
                && (key.contains("pollux-simulator") || value.contains("pollux-simulator"))
        });
    assert!(
        !on_simulator,
        "pollux-baselines depends on pollux-control, not on the simulator"
    );
}

// A placement row is scanned by pollux-cluster's one row kernel,
// `row_shape` / `row_is_empty`: folds with no early exit, which the
// compiler vectorizes, where an `any`, an `all` or a `filter().count()`
// scans a cell at a time. Test code (each file's `#[cfg(test)]` module,
// at its foot) may scan as it likes; it holds the kernels' oracles.
#[test]
fn one_row_kernel() {
    const EXEMPT: [&str; 1] = ["crates/pollux-cluster/src/alloc.rs"];
    const SCANS: [&str; 4] = [
        ".any(|&g| g > 0)",
        ".filter(|&&g| g > 0).count()",
        ".all(|&g| g == 0)",
        "fold(0, |any, &g| any | g)",
    ];
    let sources: Vec<String> = crate_sources()
        .into_iter()
        .filter(|f| !EXEMPT.contains(&f.as_str()))
        .collect();
    let hits = grep_until(
        &sources,
        |line| line.trim() == "#[cfg(test)]",
        |line| SCANS.iter().any(|scan| line.contains(scan)),
    );
    assert!(
        hits.is_empty(),
        "scan a placement row with pollux_cluster::row_shape or row_is_empty\n{}",
        hits.join("\n")
    );
}

// A vendored stub lives only as long as the workspace or benchmark/
// depends on it (directly, or through another stub: serde_json pulls in
// serde); the one whose last user left fails the build instead of
// lingering.
#[test]
fn every_vendored_crate_has_a_user() {
    let root = root();
    let manifest = |dir: &Path| fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let root_manifest = manifest(&root);
    let shared: HashMap<&str, PathBuf> = dependencies(&root_manifest)
        .into_iter()
        .filter(|&(table, _, _)| table == "workspace.dependencies")
        .filter_map(|(_, key, value)| Some((key, root.join(path_of(value)?))))
        .collect();

    // The root package, every crate and benchmark/ are users; a stub one
    // of them reaches is a user of what it names in turn.
    let mut pending = vec![root.clone(), root.join("benchmark")];
    pending.extend(
        files(&["crates"])
            .iter()
            .filter(|f| f.ends_with("/Cargo.toml"))
            .map(|f| root.join(f).parent().unwrap().to_path_buf()),
    );
    let vendor = root.join("vendor");
    let mut used = BTreeSet::new();
    while let Some(dir) = pending.pop() {
        let text = manifest(&dir);
        for (table, key, value) in dependencies(&text) {
            if table == "workspace.dependencies" {
                continue;
            }
            let target = match path_of(value) {
                Some(path) => dir.join(path),
                None => match shared.get(key.trim_end_matches(".workspace")) {
                    Some(path) => path.clone(),
                    None => continue,
                },
            };
            let target = fs::canonicalize(&target).unwrap_or(target);
            if target.starts_with(&vendor) && used.insert(target.clone()) {
                pending.push(target);
            }
        }
    }

    let mut orphans = Vec::new();
    for entry in fs::read_dir(&vendor).unwrap() {
        let dir = entry.unwrap().path();
        if dir.is_dir() && !used.contains(&dir) {
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            orphans.push(format!(
                "vendor/{name}: neither Cargo.toml nor benchmark/Cargo.toml depends on it"
            ));
        }
    }
    orphans.sort();
    assert!(orphans.is_empty(), "{}", orphans.join("\n"));
}

/// ROADMAP.md's open list: each numbered entry's text, from its `N. `
/// line to the next, keyed by `N`. A retired stub is no open item.
fn open_items(roadmap: &str) -> BTreeMap<u32, String> {
    let list = roadmap
        .split_once("## Open items")
        .expect("ROADMAP.md has an open list")
        .1;
    let mut items: BTreeMap<u32, String> = BTreeMap::new();
    let mut current = None;
    for line in list.lines() {
        let number = line.split_once(". ").and_then(|(n, _)| n.parse().ok());
        if let Some(n) = number {
            current = Some(n);
        }
        if let Some(n) = current {
            let entry = items.entry(n).or_default();
            entry.push_str(line);
            entry.push('\n');
        }
    }
    items.retain(|_, text| !text.contains("*Retired"));
    items
}

/// Every `item N` or `item N(x)` of `doc`, joined across line breaks,
/// that names no open item, or a part `(x)` its entry does not have.
fn dead_item_references(items: &BTreeMap<u32, String>, doc: &str) -> Vec<String> {
    let text = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut dead = Vec::new();
    for (at, _) in text.match_indices("item ") {
        if text[..at].ends_with(|c: char| c.is_alphanumeric()) {
            continue;
        }
        let rest = &text[at + "item ".len()..];
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let Ok(n) = rest[..digits].parse::<u32>() else {
            continue;
        };
        let part = rest[digits..].strip_prefix('(').and_then(|p| {
            let mut chars = p.chars();
            let (letter, close) = (chars.next()?, chars.next()?);
            (letter.is_ascii_lowercase() && close == ')').then(|| format!("({letter})"))
        });
        let named = items
            .get(&n)
            .is_some_and(|entry| part.as_ref().is_none_or(|p| entry.contains(p.as_str())));
        if !named {
            dead.push(format!("item {n}{}", part.unwrap_or_default()));
        }
    }
    dead
}

// The docs point at work by its ROADMAP number; a reference to an item
// that was retired, renumbered or never had that part is caught here,
// not by a reader.
#[test]
fn docs_cite_open_roadmap_items() {
    let read = |file: &str| fs::read_to_string(root().join(file)).unwrap();
    let items = open_items(&read("ROADMAP.md"));
    let planted = dead_item_references(&items, "overshoots (ROADMAP item\n1(e) treats it)");
    assert_eq!(
        planted,
        ["item 1(e)"],
        "the checker finds a planted dead part"
    );

    let mut dead = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let refs = dead_item_references(&items, &read(doc));
        dead.extend(refs.into_iter().map(|r| format!("{doc}: {r}")));
    }
    assert!(
        dead.is_empty(),
        "cite a numbered entry of ROADMAP.md's open list (and a part it has)\n{}",
        dead.join("\n")
    );
}

#[test]
fn a_hand_placed_key_is_an_escaped_quote_pair_around_a_name() {
    assert!(hand_placed_key(r#"out.push_str("{\"policy\":");"#));
    assert!(hand_placed_key(r#"  \"sched_policy\": 1"#));
    assert!(!hand_placed_key(r#"\"two words\":"#));
    assert!(!hand_placed_key(r#"\"\":"#));
    assert!(!hand_placed_key(r#""key": 1"#));
    assert!(!hand_placed_key(r#"\"key\" :"#));
}
