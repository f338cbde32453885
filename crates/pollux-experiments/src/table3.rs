//! Table 3: impact of the job-weight decay λ (Eqn 16, Sec. 5.3.2).
//!
//! Runs Pollux with λ ∈ {0, 0.5, 1.0} and reports avg/50p/99p JCT
//! relative to λ = 0. The paper: larger λ strongly improves the median
//! JCT (small jobs finish first), mildly hurts the tail.

use crate::cell::{run_averaged, Cell, CellError};
use crate::common::render_table;

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
///
/// # Errors
///
/// [`CellError::NoTraces`] for `traces == 0`.
pub fn run(traces: u64) -> Result<Table3Result, CellError> {
    let lambdas = [0.0, 0.5, 1.0];
    let cells: Vec<Cell> = lambdas
        .iter()
        .flat_map(|&lambda| {
            let mut point = Cell::evaluation("pollux", 0);
            point.pollux.sched.weights.lambda = lambda;
            (0..traces).map(move |t| point.at("pollux", t))
        })
        .collect();
    let rows = lambdas
        .iter()
        .zip(run_averaged(&cells, traces)?)
        .map(|(&lambda, s)| Table3Row {
            lambda,
            avg_jct_hours: s.avg_jct_hours,
            p50_jct_hours: s.p50_jct_hours,
            p99_jct_hours: s.p99_jct_hours,
        })
        .collect();
    Ok(Table3Result { rows, traces })
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
