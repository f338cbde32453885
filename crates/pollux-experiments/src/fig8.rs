//! Fig 8: sensitivity to cluster load (Sec. 5.3.2).
//!
//! Sweeps the job-submission rate from 0.5× to 2× the base workload
//! and reports average JCT per policy. The paper's observation: every
//! policy degrades under load, but Pollux degrades most gracefully.

use crate::cell::{run_averaged, Cell, CellError};
use crate::common::render_table;
use crate::table2::POLICIES;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Load multiplier (relative job submission count).
    pub load: f64,
    /// Average JCT (hours) per policy, [`POLICIES`] order.
    pub avg_jct_hours: [f64; 3],
}

/// The full Fig 8 sweep.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Sweep points at 0.5×, 1×, 1.5×, 2×.
    pub points: Vec<Fig8Point>,
    /// Traces averaged per cell.
    pub traces: u64,
}

/// Runs the sweep with `traces` traces per cell.
///
/// # Errors
///
/// [`CellError::NoTraces`] for `traces == 0`.
pub fn run(traces: u64) -> Result<Fig8Result, CellError> {
    let loads = [0.5, 1.0, 1.5, 2.0];
    let mut cells = Vec::new();
    for &load in &loads {
        for (policy, _) in POLICIES {
            for t in 0..traces {
                cells.push(Cell {
                    load,
                    ..Cell::evaluation(policy, t)
                });
            }
        }
    }
    let summaries = run_averaged(&cells, traces)?;
    let points = loads
        .iter()
        .zip(summaries.chunks(POLICIES.len()))
        .map(|(&load, row)| Fig8Point {
            load,
            avg_jct_hours: [0, 1, 2].map(|p| row[p].avg_jct_hours),
        })
        .collect();
    Ok(Fig8Result { points, traces })
}

impl std::fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 8: avg JCT (hours) vs relative load ({} trace/cell)",
            self.traces
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.1}x", p.load),
                    format!("{:.2}", p.avg_jct_hours[0]),
                    format!("{:.2}", p.avg_jct_hours[1]),
                    format!("{:.2}", p.avg_jct_hours[2]),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["load", "Pollux", "Optimus+Oracle", "Tiresias"], &rows)
        )
    }
}
