//! The policy zoo: a name → constructor registry over every scheduler
//! in the repo, plus a config-driven head-to-head sweep.
//!
//! The Blox-style stage decomposition (DESIGN.md §10) makes new
//! schedulers one-stage cheap, so the zoo is how they earn their keep:
//! [`registry`] lists every policy by name, [`run`] plays any subset
//! of them against the same traces on the same cluster, and the
//! resulting [`ZooResult`] is one table of JCT / queue-percentile /
//! goodput columns per policy. Staged entries also report which
//! admission / placement / preemption stages they compose, so
//! one-stage-apart pairs (e.g. `tiresias` vs `gandiva-packing`) read
//! as controlled comparisons.
//!
//! The `policy-zoo` bin wraps this module in a CLI; per-policy
//! telemetry captures hang off the same run via [`run_with_recorder`]. The cells themselves are [`crate::cell`]'s.

use crate::cell::{run_cells, Cell, CellError, Summary};
use crate::common::{experiment_pollux, render_table};
use pollux_control::baselines::{
    fifo_backfill, gandiva_packing, optimus, or_etal, srsf, srtf, tiresias,
};
use pollux_control::{SchedulingPolicy, StagedScheduler};
use pollux_core::{PolluxConfig, PolluxPolicy};
use pollux_telemetry::{json, Recorder};

/// A freshly-built zoo policy: either the Pollux GA scheduler on its
/// direct [`SchedulingPolicy`] implementation, or a staged
/// composition.
pub enum ZooPolicy {
    /// A policy with its own monolithic `schedule` (Pollux).
    Direct(Box<dyn SchedulingPolicy>),
    /// A Blox-style admission/placement/preemption composition.
    Staged(StagedScheduler),
}

impl ZooPolicy {
    /// Stage names of a staged composition (`None` for direct
    /// policies).
    pub fn stage_names(&self) -> Option<(&'static str, &'static str, &'static str)> {
        match self {
            ZooPolicy::Direct(_) => None,
            ZooPolicy::Staged(s) => Some(s.stage_names()),
        }
    }

    /// Erases the construction detail for the simulation driver.
    pub fn into_policy(self) -> Box<dyn SchedulingPolicy> {
        match self {
            ZooPolicy::Direct(p) => p,
            ZooPolicy::Staged(s) => Box::new(s),
        }
    }
}

/// One registry entry: a stable name plus a constructor.
#[derive(Debug)]
pub struct ZooEntry {
    /// Policy name as it appears in tables, configs, and telemetry
    /// (`sched/policy`).
    pub name: &'static str,
    /// One-line description for `policy-zoo --list` and the README.
    pub summary: &'static str,
    ctor: fn(&PolluxConfig) -> Option<ZooPolicy>,
}

impl ZooEntry {
    /// Builds a fresh policy instance, `pollux` at
    /// [`experiment_pollux`].
    pub fn build(&self) -> ZooPolicy {
        self.build_with(&experiment_pollux())
            .expect("the experiment default is valid")
    }

    /// Builds a fresh policy instance, `pollux` from `pollux` (the
    /// staged baselines have nothing to configure). `None` when
    /// `PolluxPolicy::new` refuses the configuration.
    pub fn build_with(&self, pollux: &PolluxConfig) -> Option<ZooPolicy> {
        (self.ctor)(pollux)
    }
}

fn build_pollux(config: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Direct(Box::new(PolluxPolicy::new(*config)?)))
}
fn build_tiresias(_: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Staged(tiresias()))
}
fn build_optimus(_: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Staged(optimus()))
}
fn build_or_etal(_: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Staged(or_etal(16)))
}
fn build_srtf(_: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Staged(srtf()))
}
fn build_srsf(_: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Staged(srsf()))
}
fn build_fifo(_: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Staged(fifo_backfill()))
}
fn build_gandiva(_: &PolluxConfig) -> Option<ZooPolicy> {
    Some(ZooPolicy::Staged(gandiva_packing()))
}

static REGISTRY: &[ZooEntry] = &[
    ZooEntry {
        name: "pollux",
        summary: "co-adaptive goodput optimization (the paper's scheduler)",
        ctor: build_pollux,
    },
    ZooEntry {
        name: "tiresias",
        summary: "least-attained-service two-queue, consolidated placement",
        ctor: build_tiresias,
    },
    ZooEntry {
        name: "optimus+oracle",
        summary: "marginal-gain allocation with a remaining-work oracle",
        ctor: build_optimus,
    },
    ZooEntry {
        name: "or-etal",
        summary: "single-tenant throughput-based autoscaling (Or et al.)",
        ctor: build_or_etal,
    },
    ZooEntry {
        name: "srtf",
        summary: "shortest remaining time first, backfilled",
        ctor: build_srtf,
    },
    ZooEntry {
        name: "srsf",
        summary: "shortest remaining service (time x GPUs) first",
        ctor: build_srsf,
    },
    ZooEntry {
        name: "fifo+backfill",
        summary: "gang FIFO with backfill, never preempts",
        ctor: build_fifo,
    },
    ZooEntry {
        name: "gandiva-packing",
        summary: "LAS admission with Gandiva-style best-fit packing",
        ctor: build_gandiva,
    },
];

/// Every registered policy, in fixed table order.
pub fn registry() -> &'static [ZooEntry] {
    REGISTRY
}

/// Looks a policy up by name.
pub fn lookup(name: &str) -> Option<&'static ZooEntry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// A `--policies` name that is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy(pub String);

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        write!(
            f,
            "unknown policy {:?}; registered: {}",
            self.0,
            known.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// Options sizing the head-to-head run.
#[derive(Debug, Clone)]
pub struct ZooOptions {
    /// Policies to run (empty = the whole registry).
    pub policies: Vec<String>,
    /// Independently-seeded traces averaged per policy.
    pub traces: u64,
    /// The cell every policy plays: its `jobs`, `load`, `choice`,
    /// `interference` and `pollux` as given, its policy and seeds set
    /// per `(policy, trace)`.
    pub cell: Cell,
}

impl Default for ZooOptions {
    fn default() -> Self {
        Self {
            policies: Vec::new(),
            traces: 2,
            cell: Cell::evaluation("pollux", 0),
        }
    }
}

/// One policy's row of the head-to-head table.
#[derive(Debug, Clone)]
pub struct ZooRow {
    /// Registry name.
    pub policy: &'static str,
    /// `(admission, placement, preemption)` for staged policies.
    pub stages: Option<(&'static str, &'static str, &'static str)>,
    /// The policy's cells, averaged over the traces.
    pub summary: Summary,
}

/// The full head-to-head result.
#[derive(Debug, Clone)]
pub struct ZooResult {
    /// One row per policy, in request (or registry) order.
    pub rows: Vec<ZooRow>,
    /// Traces averaged per policy.
    pub traces: usize,
    /// Jobs per trace.
    pub jobs: usize,
}

impl ZooResult {
    /// Renders the result as JSON through the telemetry codec's one
    /// writer, like the JSONL capture and the Chrome exporter. The row
    /// schema is pinned by `experiments_cli`'s zoo test, which parses
    /// the `--json` output of a `policy-zoo` run.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 * self.rows.len() + 64);
        json::write_obj(&mut out, |o| {
            o.arr("rows", |rows| {
                for row in &self.rows {
                    let s = &row.summary;
                    rows.obj(|o| {
                        o.field("policy", row.policy)
                            .field("stages", row.stages.map(|(a, p, y)| [a, p, y]))
                            .field("avg_jct_hours", s.avg_jct_hours)
                            .field("p50_jct_hours", s.p50_jct_hours)
                            .field("p95_jct_hours", s.p95_jct_hours)
                            .field("p99_jct_hours", s.p99_jct_hours)
                            .field("avg_wait_hours", s.avg_wait_hours)
                            .field("p99_wait_hours", s.p99_wait_hours)
                            .field("makespan_hours", s.makespan_hours)
                            .field("avg_efficiency", s.avg_efficiency)
                            .field("job_goodput", s.job_goodput)
                            .field("unfinished", s.unfinished);
                    });
                }
            })
            .field("traces", self.traces)
            .field("jobs", self.jobs);
        });
        out.push('\n');
        out
    }
}

/// The head-to-head table's column headers. Pinned by a test so
/// downstream parsers can rely on the schema.
pub fn table_headers() -> &'static [&'static str] {
    &[
        "policy",
        "avg JCT (h)",
        "p50/p95/p99 JCT (h)",
        "avg wait (h)",
        "p99 wait (h)",
        "makespan (h)",
        "stat. eff.",
        "goodput (ex/s)",
        "unfinished",
    ]
}

/// Resolves `opts.policies` against the registry (empty = all).
///
/// # Errors
///
/// [`CellError::UnknownPolicy`] naming the first entry that names no
/// policy (a blank one included), or [`CellError::RepeatedPolicy`]
/// naming the first entry given twice.
pub fn resolve(opts: &ZooOptions) -> Result<Vec<&'static ZooEntry>, CellError> {
    if opts.policies.is_empty() {
        return Ok(registry().iter().collect());
    }
    let mut entries: Vec<&'static ZooEntry> = Vec::with_capacity(opts.policies.len());
    for name in &opts.policies {
        let entry =
            lookup(name).ok_or_else(|| CellError::UnknownPolicy(UnknownPolicy(name.clone())))?;
        if entries.iter().any(|e| e.name == entry.name) {
            return Err(CellError::RepeatedPolicy(entry.name));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// Runs the head-to-head sweep with the process-wide capture recorder
/// (`POLLUX_TELEMETRY_OUT`).
///
/// # Errors
///
/// As [`run_with_recorder`].
pub fn run(opts: &ZooOptions) -> Result<ZooResult, CellError> {
    run_with_recorder(opts, |_| crate::common::recorder())
}

/// [`run`] with a caller-supplied recorder per policy, so each policy's
/// telemetry can land in its own capture file:
/// `recorder_for` is called once per policy, before anything is
/// simulated. The `(policy, trace)` cells are one [`run_cells`] grid.
///
/// # Errors
///
/// [`CellError`] when `opts.policies` names an unregistered policy or
/// one twice, `opts.traces` is 0 or `opts.cell` cannot be simulated;
/// nothing has run.
pub fn run_with_recorder(
    opts: &ZooOptions,
    recorder_for: impl Fn(&'static str) -> Recorder,
) -> Result<ZooResult, CellError> {
    let entries = resolve(opts)?;
    if opts.traces == 0 {
        return Err(CellError::NoTraces);
    }
    let recorders: Vec<Recorder> = entries.iter().map(|e| recorder_for(e.name)).collect();
    let cells: Vec<Cell> = entries
        .iter()
        .flat_map(|entry| (0..opts.traces).map(|i| opts.cell.at(entry.name, i)))
        .collect();
    let results = run_cells(&cells, |cell| {
        let at = entries.iter().position(|e| e.name == cell.policy);
        recorders[at.expect("every cell was built from an entry")].clone()
    })?;
    let rows = entries
        .iter()
        .zip(results.chunks(opts.traces as usize))
        .zip(&recorders)
        .map(|((entry, results), recorder)| {
            recorder.flush();
            ZooRow {
                policy: entry.name,
                stages: entry.build().stage_names(),
                summary: Summary::mean_of(results),
            }
        })
        .collect();
    Ok(ZooResult {
        rows,
        traces: opts.traces as usize,
        jobs: results.first().map_or(0, |r| r.records.len()),
    })
}

impl std::fmt::Display for ZooResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Policy zoo: {} policies x {} trace(s), {} jobs on 16x4 GPUs",
            self.rows.len(),
            self.traces,
            self.jobs
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                let s = &row.summary;
                vec![
                    row.policy.to_string(),
                    format!("{:.2}", s.avg_jct_hours),
                    format!(
                        "{:.2}/{:.1}/{:.1}",
                        s.p50_jct_hours, s.p95_jct_hours, s.p99_jct_hours
                    ),
                    format!("{:.2}", s.avg_wait_hours),
                    format!("{:.1}", s.p99_wait_hours),
                    format!("{:.1}", s.makespan_hours),
                    format!("{:.1}%", s.avg_efficiency * 100.0),
                    format!("{:.1}", s.job_goodput),
                    format!("{}", s.unfinished),
                ]
            })
            .collect();
        write!(f, "{}", render_table(table_headers(), &rows))?;
        writeln!(f, "\nstage composition (staged policies):")?;
        let stage_rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let (a, p, y) = r.stages.unwrap_or(("-", "-", "-"));
                [r.policy, a, p, y].map(String::from).to_vec()
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &["policy", "admission", "placement", "preemption"],
                &stage_rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_advertised_zoo() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert!(names.len() >= 7, "zoo shrank: {names:?}");
        for expect in [
            "pollux",
            "tiresias",
            "optimus+oracle",
            "or-etal",
            "srtf",
            "srsf",
            "fifo+backfill",
            "gandiva-packing",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        // Names are unique (they key telemetry and output files).
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn staged_entries_report_their_stages() {
        let s = lookup("gandiva-packing").unwrap().build();
        assert_eq!(
            s.stage_names(),
            Some(("las-two-queue", "best-fit-packing", "preempt-all"))
        );
        assert_eq!(lookup("pollux").unwrap().build().stage_names(), None);
        // tiresias and gandiva-packing differ in exactly one stage.
        let t = lookup("tiresias").unwrap().build().stage_names().unwrap();
        let g = lookup("gandiva-packing")
            .unwrap()
            .build()
            .stage_names()
            .unwrap();
        assert_eq!(t.0, g.0);
        assert_ne!(t.1, g.1);
        assert_eq!(t.2, g.2);
    }

    #[test]
    fn unknown_policy_is_a_typed_error() {
        let opts = ZooOptions {
            policies: vec!["tiresias".into(), "nope".into()],
            ..Default::default()
        };
        let err = resolve(&opts).unwrap_err();
        assert_eq!(err, CellError::UnknownPolicy(UnknownPolicy("nope".into())));
        assert!(err.to_string().contains("registered"));
    }

    #[test]
    fn resolve_refuses_blank_and_repeated_names() {
        let resolved = |names: &[&str]| {
            resolve(&ZooOptions {
                policies: names.iter().map(|&n| n.into()).collect(),
                ..Default::default()
            })
        };
        // What `--policies ""` and `--policies ,` parse to.
        for blank in [&[""][..], &["", ""]] {
            assert_eq!(
                resolved(blank).unwrap_err(),
                CellError::UnknownPolicy(UnknownPolicy(String::new()))
            );
        }
        let err = resolved(&["tiresias", "srtf", "tiresias"]).unwrap_err();
        assert_eq!(err, CellError::RepeatedPolicy("tiresias"));
        assert_eq!(err.to_string(), "policy \"tiresias\" is named twice");
        let entries = resolved(&["srtf", "tiresias"]).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        assert_eq!(names, ["srtf", "tiresias"]);
        assert_eq!(resolved(&[]).unwrap().len(), registry().len());
    }

    #[test]
    fn run_is_the_cell_grid_averaged_per_policy() {
        let opts = ZooOptions {
            policies: vec!["srtf".into(), "tiresias".into()],
            traces: 2,
            cell: Cell {
                jobs: 3,
                ..Cell::evaluation("pollux", 0)
            },
        };
        let result = run(&opts).unwrap();
        assert_eq!((result.traces, result.jobs), (2, 3));
        let names: Vec<&str> = result.rows.iter().map(|r| r.policy).collect();
        assert_eq!(names, ["srtf", "tiresias"]);
        for row in &result.rows {
            let cells = [opts.cell.at(row.policy, 0), opts.cell.at(row.policy, 1)];
            let alone = run_cells(&cells, |_| Recorder::disabled()).unwrap();
            assert_eq!(row.summary, Summary::mean_of(&alone), "{}", row.policy);
            assert!(row.summary.avg_jct_hours > 0.0);
            assert!(row.stages.is_some());
        }
        let none = ZooOptions { traces: 0, ..opts };
        assert_eq!(run(&none).unwrap_err(), CellError::NoTraces);
    }

    #[test]
    fn table_schema_is_stable() {
        // Tests and downstream parsers pin this schema; change it
        // deliberately (update EXPERIMENTS.md and the README) or not
        // at all.
        assert_eq!(
            table_headers(),
            &[
                "policy",
                "avg JCT (h)",
                "p50/p95/p99 JCT (h)",
                "avg wait (h)",
                "p99 wait (h)",
                "makespan (h)",
                "stat. eff.",
                "goodput (ex/s)",
                "unfinished",
            ]
        );
    }

    #[test]
    fn to_json_parses_back_with_the_pinned_row_schema() {
        // `experiments_cli`'s zoo test parses a real run's `--json`
        // output; the in-repo parser must accept this one too, with
        // every pinned key present.
        let result = ZooResult {
            rows: vec![ZooRow {
                policy: "optimus+oracle",
                stages: Some(("marginal-gain", "consolidated-largest-first", "preempt-all")),
                summary: Summary {
                    avg_jct_hours: 0.5,
                    p50_jct_hours: 0.25,
                    p95_jct_hours: 1.5,
                    p99_jct_hours: 2.0,
                    avg_wait_hours: 0.1,
                    p99_wait_hours: 0.4,
                    makespan_hours: 6.0,
                    avg_efficiency: 0.9,
                    job_throughput: 2345.6,
                    job_goodput: 1234.5,
                    unfinished: 3,
                },
            }],
            traces: 2,
            jobs: 64,
        };
        let parsed = pollux_telemetry::json::parse(&result.to_json()).expect("valid JSON");
        let rows = parsed.get("rows").and_then(|r| r.as_arr()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(
            row.get("policy").and_then(|v| v.as_str()),
            Some("optimus+oracle")
        );
        let stages = row.get("stages").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(stages[0].as_str(), Some("marginal-gain"));
        for key in [
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
                row.get(key).and_then(|v| v.as_f64()).is_some(),
                "missing {key}"
            );
        }
        assert_eq!(parsed.get("traces").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(parsed.get("jobs").and_then(|v| v.as_u64()), Some(64));
    }
}
