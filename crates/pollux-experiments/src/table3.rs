//! Table 3: impact of the job-weight decay λ (Eqn 16, Sec. 5.3.2).
//!
//! Runs Pollux with λ ∈ {0, 0.5, 1.0} and reports avg/50p/99p JCT
//! relative to λ = 0. The paper: larger λ strongly improves the median
//! JCT (small jobs finish first), mildly hurts the tail.

use crate::common::{mean, render_table};
use crate::sweep::sweep;
use crate::table2::{run_one, Policy, Table2Options};

/// One λ row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Decay exponent λ.
    pub lambda: f64,
    /// Average JCT (hours).
    pub avg_jct_hours: f64,
    /// Median JCT (hours).
    pub p50_jct_hours: f64,
    /// 99th-percentile JCT (hours).
    pub p99_jct_hours: f64,
}

/// The full Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Rows for λ = 0, 0.5, 1.0.
    pub rows: Vec<Table3Row>,
    /// Traces averaged per cell.
    pub traces: u64,
}

/// Runs the sweep.
pub fn run(traces: u64) -> Table3Result {
    let rows = [0.0, 0.5, 1.0]
        .iter()
        .map(|&lambda| {
            let mut avg = Vec::new();
            let mut p50 = Vec::new();
            let mut p99 = Vec::new();
            let cells = sweep(traces.max(1), |t| {
                let opts = Table2Options {
                    traces: 1,
                    lambda,
                    ..Default::default()
                };
                run_one(Policy::Pollux, t, &opts)
            });
            for r in cells {
                if let Some(v) = r.avg_jct() {
                    avg.push(v / 3600.0);
                }
                if let Some(v) = r.percentile_jct(50.0) {
                    p50.push(v / 3600.0);
                }
                if let Some(v) = r.percentile_jct(99.0) {
                    p99.push(v / 3600.0);
                }
            }
            Table3Row {
                lambda,
                avg_jct_hours: mean(&avg).unwrap_or(0.0),
                p50_jct_hours: mean(&p50).unwrap_or(0.0),
                p99_jct_hours: mean(&p99).unwrap_or(0.0),
            }
        })
        .collect();
    Table3Result {
        rows,
        traces: traces.max(1),
    }
}

impl std::fmt::Display for Table3Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 3: JCT vs job-weight decay λ, relative to λ = 0 ({} trace/cell)",
            self.traces
        )?;
        let base = &self.rows[0];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.1}", r.lambda),
                    format!("{:.2}", r.avg_jct_hours / base.avg_jct_hours.max(1e-9)),
                    format!("{:.2}", r.p50_jct_hours / base.p50_jct_hours.max(1e-9)),
                    format!("{:.2}", r.p99_jct_hours / base.p99_jct_hours.max(1e-9)),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["lambda", "avg JCT", "50% JCT", "99% JCT"], &rows)
        )
    }
}
