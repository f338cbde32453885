//! Table 2: Pollux vs Optimus+Oracle vs Tiresias+TunedJobs with
//! ideally-configured jobs (Sec. 5.2), plus the Sec. 5.2.1 breakdown
//! (statistical efficiency, throughput and goodput factors).

use crate::cell::{run_averaged, Cell, CellError, Summary};
use crate::common::render_table;

/// The paper's three policies in column order — Pollux (co-adaptive),
/// Optimus with a remaining-work oracle (only-resource-adaptive) and
/// Tiresias with idealized tuned configurations
/// (non-resource-adaptive): zoo registry name and Table 2 label.
pub const POLICIES: [(&str, &str); 3] = [
    ("pollux", "Pollux"),
    ("optimus+oracle", "Optimus+Oracle"),
    ("tiresias", "Tiresias+TunedJobs"),
];

/// The full Table-2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// One summary per policy, in [`POLICIES`] order.
    pub outcomes: [Summary; 3],
    /// Number of traces averaged (the paper uses 8).
    pub traces: u64,
}

/// Runs the full experiment, `traces` traces per policy.
///
/// # Errors
///
/// [`CellError::NoTraces`] for `traces == 0`.
pub fn run(traces: u64) -> Result<Table2Result, CellError> {
    let cells: Vec<Cell> = POLICIES
        .iter()
        .flat_map(|&(policy, _)| (0..traces).map(move |i| Cell::evaluation(policy, i)))
        .collect();
    let outcomes = run_averaged(&cells, traces)?;
    Ok(Table2Result {
        outcomes: [outcomes[0], outcomes[1], outcomes[2]],
        traces,
    })
}

impl std::fmt::Display for Table2Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 2: ideally-tuned workload, {} trace(s) averaged",
            self.traces
        )?;
        let rows: Vec<Vec<String>> = POLICIES
            .iter()
            .zip(&self.outcomes)
            .map(|(&(_, label), o)| {
                vec![
                    label.to_string(),
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
        let pollux = &self.outcomes[0];
        writeln!(f, "\nSec 5.2.1 factors relative to Pollux:")?;
        for (&(_, label), o) in POLICIES.iter().zip(&self.outcomes).skip(1) {
            writeln!(
                f,
                "  vs {label}: JCT -{:.0}%, throughput x{:.2}, goodput x{:.2}",
                (1.0 - pollux.avg_jct_hours / o.avg_jct_hours) * 100.0,
                pollux.job_throughput / o.job_throughput.max(1e-9),
                pollux.job_goodput / o.job_goodput.max(1e-9),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_policies_are_registered() {
        for (policy, _) in POLICIES {
            assert!(crate::zoo::lookup(policy).is_some(), "{policy}");
        }
    }
}
