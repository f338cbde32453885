//! Table 2: Pollux vs Optimus+Oracle vs Tiresias+TunedJobs with
//! ideally-configured jobs (Sec. 5.2), plus the Sec. 5.2.1 breakdown
//! (statistical efficiency, throughput and goodput factors).

use crate::common::{
    evaluation_trace, experiment_ga, experiment_sim, mean, recorder, render_table, testbed_cluster,
};
use crate::sweep::sweep;
use pollux_baselines::{optimus, tiresias, TiresiasConfig};
use pollux_core::{run_trace_recorded, ConfigChoice, PolluxConfig, PolluxPolicy};
use pollux_simulator::{SchedulingPolicy, SimResult};

/// Which scheduler to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Pollux (co-adaptive).
    Pollux,
    /// Optimus with a remaining-work oracle (only-resource-adaptive).
    OptimusOracle,
    /// Tiresias with idealized tuned configurations
    /// (non-resource-adaptive).
    Tiresias,
}

impl Policy {
    /// All three Table-2 policies.
    pub const ALL: [Policy; 3] = [Policy::Pollux, Policy::OptimusOracle, Policy::Tiresias];

    /// Display name used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Pollux => "Pollux",
            Policy::OptimusOracle => "Optimus+Oracle",
            Policy::Tiresias => "Tiresias+TunedJobs",
        }
    }
}

/// Aggregated per-policy results.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Which policy.
    pub policy: Policy,
    /// Mean of per-trace average JCTs (hours).
    pub avg_jct_hours: f64,
    /// Mean of per-trace 99th-percentile JCTs (hours).
    pub p99_jct_hours: f64,
    /// Mean makespan (hours).
    pub makespan_hours: f64,
    /// Mean time-averaged cluster statistical efficiency.
    pub avg_efficiency: f64,
    /// Mean per-job lifetime throughput (examples/s).
    pub job_throughput: f64,
    /// Mean per-job lifetime goodput (useful examples/s).
    pub job_goodput: f64,
    /// Jobs that failed to finish within the horizon (should be 0).
    pub unfinished: usize,
}

/// The full Table-2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// One outcome per policy, in `Policy::ALL` order.
    pub outcomes: Vec<PolicyOutcome>,
    /// Number of traces averaged.
    pub traces: usize,
}

/// Options for sizing the experiment.
#[derive(Debug, Clone, Copy)]
pub struct Table2Options {
    /// Number of traces to average (the paper uses 8).
    pub traces: u64,
    /// Workload scale (1.0 = the paper's 160 jobs / 8 h).
    pub load: f64,
    /// Per-job configuration source.
    pub choice: ConfigChoice,
    /// Interference slowdown injected (0 in Table 2).
    pub interference: f64,
    /// Disable Pollux's interference-avoidance constraint (Fig 9).
    pub disable_avoidance: bool,
    /// Pollux job-weight decay λ (0.5 default; Table 3 sweeps it).
    pub lambda: f64,
}

impl Default for Table2Options {
    fn default() -> Self {
        Self {
            traces: 8,
            load: 1.0,
            choice: ConfigChoice::Tuned,
            interference: 0.0,
            disable_avoidance: false,
            lambda: 0.5,
        }
    }
}

/// Builds one policy instance.
fn make_policy(policy: Policy, opts: &Table2Options) -> Box<dyn SchedulingPolicy> {
    match policy {
        Policy::Pollux => {
            let mut cfg = PolluxConfig::default();
            cfg.sched.ga = experiment_ga();
            cfg.sched.ga.interference_avoidance = !opts.disable_avoidance;
            cfg.sched.weights.lambda = opts.lambda;
            Box::new(PolluxPolicy::new(cfg).expect("valid config"))
        }
        Policy::OptimusOracle => Box::new(optimus(4)),
        Policy::Tiresias => Box::new(tiresias(TiresiasConfig::default())),
    }
}

/// Runs one `(policy, trace index)` cell and returns the raw result.
pub fn run_one(policy: Policy, trace_idx: u64, opts: &Table2Options) -> SimResult {
    let trace = evaluation_trace(trace_idx, opts.load);
    let mut sim = experiment_sim(trace_idx);
    sim.interference_slowdown = opts.interference;
    let boxed = make_policy(policy, opts);
    run_trace_recorded(
        boxed,
        &trace,
        opts.choice,
        testbed_cluster(),
        sim,
        recorder(),
    )
    .expect("valid simulation inputs")
}

/// Runs the full experiment. Per-trace cells run on the [`sweep`]
/// worker pool; cells are independent, so the aggregate is identical
/// to a serial loop.
pub fn run(opts: &Table2Options) -> Table2Result {
    let outcomes = Policy::ALL
        .iter()
        .map(|&policy| {
            let results: Vec<SimResult> = sweep(opts.traces.max(1), |i| run_one(policy, i, opts));
            summarize(policy, &results)
        })
        .collect();
    Table2Result {
        outcomes,
        traces: opts.traces.max(1) as usize,
    }
}

/// Aggregates per-trace results into one row.
pub fn summarize(policy: Policy, results: &[SimResult]) -> PolicyOutcome {
    let collect = |f: &dyn Fn(&SimResult) -> Option<f64>| -> f64 {
        let vals: Vec<f64> = results.iter().filter_map(f).collect();
        mean(&vals).unwrap_or(0.0)
    };
    PolicyOutcome {
        policy,
        avg_jct_hours: collect(&|r| r.avg_jct().map(|v| v / 3600.0)),
        p99_jct_hours: collect(&|r| r.percentile_jct(99.0).map(|v| v / 3600.0)),
        makespan_hours: collect(&|r| Some(r.makespan() / 3600.0)),
        avg_efficiency: collect(&|r| r.avg_cluster_efficiency()),
        job_throughput: collect(&|r| r.mean_job_throughput()),
        job_goodput: collect(&|r| r.mean_job_goodput()),
        unfinished: results.iter().map(|r| r.unfinished()).sum(),
    }
}

impl std::fmt::Display for Table2Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 2: ideally-tuned workload, {} trace(s) averaged",
            self.traces
        )?;
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.policy.label().to_string(),
                    format!("{:.2}", o.avg_jct_hours),
                    format!("{:.1}", o.p99_jct_hours),
                    format!("{:.1}", o.makespan_hours),
                    format!("{:.1}%", o.avg_efficiency * 100.0),
                    format!("{}", o.unfinished),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "policy",
                    "avg JCT (h)",
                    "99% JCT (h)",
                    "makespan (h)",
                    "stat. eff.",
                    "unfinished"
                ],
                &rows
            )
        )?;
        if let Some(pollux) = self.outcomes.iter().find(|o| o.policy == Policy::Pollux) {
            writeln!(f, "\nSec 5.2.1 factors relative to Pollux:")?;
            for o in &self.outcomes {
                if o.policy == Policy::Pollux {
                    continue;
                }
                writeln!(
                    f,
                    "  vs {}: JCT -{:.0}%, throughput x{:.2}, goodput x{:.2}",
                    o.policy.label(),
                    (1.0 - pollux.avg_jct_hours / o.avg_jct_hours) * 100.0,
                    pollux.job_throughput / o.job_throughput.max(1e-9),
                    pollux.job_goodput / o.job_goodput.max(1e-9),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full Table-2 runs are exercised by the bench harness; unit tests
    // here cover the aggregation plumbing on tiny workloads.

    #[test]
    fn summarize_averages_across_traces() {
        use pollux_simulator::SimResult;
        let a = SimResult {
            records: vec![],
            ..Default::default()
        };
        let out = summarize(Policy::Pollux, &[a]);
        assert_eq!(out.policy, Policy::Pollux);
        assert_eq!(out.avg_jct_hours, 0.0);
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels: Vec<&str> = Policy::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains(&"Pollux"));
    }

    #[test]
    #[ignore = "several minutes of simulation; run via `experiments table2`"]
    fn full_table2_ordering() {
        let opts = Table2Options {
            traces: 1,
            ..Default::default()
        };
        let r = run(&opts);
        let get = |p: Policy| {
            r.outcomes
                .iter()
                .find(|o| o.policy == p)
                .unwrap()
                .avg_jct_hours
        };
        assert!(get(Policy::Pollux) < get(Policy::OptimusOracle));
        assert!(get(Policy::OptimusOracle) < get(Policy::Tiresias));
    }
}
