//! The metric tables (mirrored by `/BENCHMARK.json`; a test keeps the
//! two in step) and the per-layer breakdown of one traced repetition.

use crate::spans::{self_times, Span};
use crate::stats::{percentile, tail_percentile};
use crate::workloads::{Rep, Workload};
use pollux_telemetry::Event;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent commit's median by which the metric may
    /// worsen before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these, measured with telemetry
/// off.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
];

/// Per-layer metrics `(name, unit, better)`, from one traced
/// repetition and the probes. A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.rounds", "count", "lower"),
    ("round.mean_ms", "ms", "lower"),
    ("round.p95_ms", "ms", "lower"),
    ("quality.avg_jct_h", "h", "lower"),
    ("quality.finished_jobs", "jobs", "higher"),
    ("quality.unfinished_jobs", "jobs", "lower"),
    ("quality.never_started_jobs", "jobs", "lower"),
    ("quality.mean_utility", "ratio", "higher"),
    ("simulator.chunk_advance_s", "s", "lower"),
    ("simulator.report_round_self_s", "s", "lower"),
    ("simulator.ticks", "count", "lower"),
    ("simulator.chunks", "count", "lower"),
    ("simulator.mid_chunk_aborts", "count", "lower"),
    ("simulator.interference_recomputes", "count", "lower"),
    ("agent.refit_s", "s", "lower"),
    ("agent.refit_p50_us", "us", "lower"),
    ("agent.refit_p99_us", "us", "lower"),
    ("agent.refits", "count", "lower"),
    ("agent.refit_cold", "count", "lower"),
    ("agent.refit_warm_accepted", "count", "higher"),
    ("agent.warm_accept_ratio", "ratio", "higher"),
    ("models.fit_cold_us", "us", "lower"),
    ("models.fit_warm_us", "us", "lower"),
    ("models.speedup_us", "us", "lower"),
    ("control.round_self_s", "s", "lower"),
    ("core.policy_self_s", "s", "lower"),
    ("baselines.schedule_s", "s", "lower"),
    ("control.reallocations", "count", "lower"),
    ("control.views_rebuilt", "count", "lower"),
    ("control.admitted", "count", "higher"),
    ("control.preempted", "count", "lower"),
    ("control.plan_quiet_us", "us", "lower"),
    ("control.plan_churn_us", "us", "lower"),
    ("control.cache_refresh_us", "us", "lower"),
    ("sched.table_build_s", "s", "lower"),
    ("sched.ga_evolve_s", "s", "lower"),
    ("sched.rack_assign_s", "s", "lower"),
    ("sched.rack_evolve_s", "s", "lower"),
    ("sched.optimize_self_s", "s", "lower"),
    ("sched.round_cold_ms", "ms", "lower"),
    ("sched.generations", "count", "lower"),
    ("sched.fitness_evals", "count", "lower"),
    ("sched.incremental_evals", "count", "higher"),
    ("sched.rows_recomputed", "count", "lower"),
    ("sched.table_solves", "count", "lower"),
    ("sched.table_rows_reused", "count", "higher"),
    ("sched.racks_evolved", "count", "lower"),
    ("sched.racks_reused", "count", "higher"),
    ("sched.incremental_eval_ratio", "ratio", "higher"),
    ("sched.rack_reuse_ratio", "ratio", "higher"),
    ("sched.table_build_cold_ms", "ms", "lower"),
    ("sched.table_build_reuse_ms", "ms", "lower"),
    ("workload.tracegen_ms", "ms", "lower"),
    ("telemetry.overhead_pct", "%", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.dropped", "count", "lower"),
    ("telemetry.to_jsonl_ns", "ns", "lower"),
    ("telemetry.chrome_export_ms", "ms", "lower"),
];

/// Per-layer values by name; [`PER_LAYER`] fixes which are reported.
pub type Layers = BTreeMap<&'static str, f64>;

/// Spans that never adopt children (see `spans`).
fn is_leaf(subsystem: &str) -> bool {
    matches!(subsystem, "sched" | "agent")
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Breaks one traced repetition down by layer. Returns the values and
/// what is wrong with the capture, if anything.
pub fn layers(
    workload: Workload,
    rep: &Rep,
    events: &[Event],
    dropped: u64,
) -> (Layers, Vec<String>) {
    let mut spans = Vec::new();
    let mut refit_us = Vec::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for event in events {
        match event {
            Event::Span {
                subsystem,
                name,
                start_ns,
                dur_ns,
            } => {
                if subsystem == "agent" && name == "refit" {
                    refit_us.push(*dur_ns as f64 / 1e3);
                }
                spans.push(Span {
                    key: format!("{subsystem}/{name}"),
                    start_ns: *start_ns,
                    dur_ns: *dur_ns,
                    leaf: is_leaf(subsystem),
                });
            }
            Event::Count {
                subsystem,
                name,
                value,
            } => {
                counts.insert(format!("{subsystem}/{name}"), *value as f64);
            }
            _ => {}
        }
    }
    refit_us.sort_by(f64::total_cmp);
    let st = self_times(spans);
    let count = |key: &str| counts.get(key).copied().unwrap_or(0.0);

    let mut problems = Vec::new();
    if dropped > 0 {
        problems.push(format!("the telemetry sink dropped {dropped} events"));
    }
    if !st.reconciles() {
        problems.push(format!(
            "self times do not reconcile with the traced wall ({} spans with negative self time)",
            st.negative_spans
        ));
    }
    if rep.infeasible_rounds > 0 {
        problems.push(format!(
            "{} rounds returned an infeasible allocation",
            rep.infeasible_rounds
        ));
    }

    // The one span the benchmark adds wraps whatever the workload
    // schedules with, so its self time belongs to that crate.
    let policy_self_s = st.self_s("bench/policy_schedule");
    let policy_self_of = |owner: &[Workload]| {
        if owner.contains(&workload) {
            policy_self_s
        } else {
            0.0
        }
    };
    let q = rep.quality;
    let values = [
        ("bench.traced_wall_s", st.roots_ns as f64 / 1e9),
        ("bench.rounds", rep.round_ns.len() as f64),
        ("quality.avg_jct_h", q.avg_jct_h),
        ("quality.finished_jobs", q.finished_jobs),
        ("quality.unfinished_jobs", q.unfinished_jobs),
        ("quality.never_started_jobs", q.never_started_jobs),
        ("quality.mean_utility", q.mean_utility),
        ("simulator.chunk_advance_s", st.self_s("bench/run")),
        (
            "simulator.report_round_self_s",
            st.self_s("engine/report_round"),
        ),
        ("simulator.ticks", count("engine/ticks")),
        ("simulator.chunks", count("engine/chunks")),
        (
            "simulator.mid_chunk_aborts",
            count("engine/mid_chunk_aborts"),
        ),
        (
            "simulator.interference_recomputes",
            count("engine/interference_recomputes"),
        ),
        ("agent.refit_s", st.total_s("agent/refit")),
        (
            "agent.refit_p50_us",
            percentile(&refit_us, 50.0).unwrap_or(0.0),
        ),
        (
            "agent.refit_p99_us",
            tail_percentile(&refit_us, 99.0).unwrap_or(0.0),
        ),
        ("agent.refits", count("agent/refits")),
        ("agent.refit_cold", count("agent/refit_cold")),
        (
            "agent.refit_warm_accepted",
            count("agent/refit_warm_accepted"),
        ),
        (
            "agent.warm_accept_ratio",
            ratio(count("agent/refit_warm_accepted"), count("agent/refits")),
        ),
        ("control.round_self_s", st.self_s("engine/reschedule")),
        (
            "core.policy_self_s",
            policy_self_of(&[Workload::PaperTrace]),
        ),
        (
            "baselines.schedule_s",
            policy_self_of(&[Workload::DcTiresias]),
        ),
        ("control.reallocations", count("control/reallocations")),
        ("control.views_rebuilt", count("control/views_rebuilt")),
        ("control.admitted", count("control/admitted")),
        ("control.preempted", count("control/preempted")),
        ("sched.table_build_s", st.total_s("sched/table_build")),
        ("sched.ga_evolve_s", st.total_s("sched/ga_evolve")),
        ("sched.rack_assign_s", st.total_s("sched/rack_assign")),
        ("sched.rack_evolve_s", st.total_s("sched/rack_evolve")),
        (
            "sched.optimize_self_s",
            policy_self_of(&[Workload::SchedRounds]),
        ),
        ("sched.round_cold_ms", rep.cold_round_ns as f64 / 1e6),
        ("sched.generations", count("sched/generations")),
        ("sched.fitness_evals", count("sched/fitness_evals")),
        ("sched.incremental_evals", count("sched/incremental_evals")),
        ("sched.rows_recomputed", count("sched/rows_recomputed")),
        ("sched.table_solves", count("sched/table_solves")),
        ("sched.table_rows_reused", count("sched/table_rows_reused")),
        ("sched.racks_evolved", count("sched/racks_evolved")),
        ("sched.racks_reused", count("sched/racks_reused")),
        (
            "sched.incremental_eval_ratio",
            ratio(
                count("sched/incremental_evals"),
                count("sched/fitness_evals"),
            ),
        ),
        (
            "sched.rack_reuse_ratio",
            ratio(
                count("sched/racks_reused"),
                count("sched/racks_reused") + count("sched/racks_evolved"),
            ),
        ),
        ("telemetry.events", events.len() as f64),
        ("telemetry.dropped", dropped as f64),
    ];
    (values.into_iter().collect(), problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_telemetry::json::{self, JsonValue};

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    /// `/BENCHMARK.json` is what the driver reads; the tables above
    /// are what the binary reports. They must name the same metrics.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");

        let e2e = field(&doc, "end_to_end").as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name").as_str(), Some(def.name));
            assert_eq!(field(entry, "unit").as_str(), Some(def.unit));
            assert_eq!(field(entry, "better").as_str(), Some(def.better));
            assert_eq!(field(entry, "bound").as_f64(), Some(def.bound));
        }
        let layers = field(&doc, "per_layer").as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name").as_str(), Some(name));
            assert_eq!(field(entry, "unit").as_str(), Some(unit));
            assert_eq!(field(entry, "better").as_str(), Some(better));
        }
        let workloads = field(&doc, "workloads").as_arr().unwrap();
        let names: Vec<_> = workloads
            .iter()
            .map(|w| field(w, "name").as_str().unwrap())
            .collect();
        let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert_eq!(
            field(&doc, "paths").as_arr().unwrap(),
            &[JsonValue::Str("benchmark".into())]
        );
    }
}
