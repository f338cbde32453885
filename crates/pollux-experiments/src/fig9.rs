//! Fig 9: impact of interference avoidance (Sec. 5.3.2).
//!
//! Injects artificial slowdowns (0 %, 25 %, 50 %) for distributed jobs
//! that share a node, with Pollux's interference-avoidance constraint
//! enabled vs disabled. The paper: with avoidance enabled, JCT is flat
//! across slowdowns (conflicts never happen); disabled, JCT grows up
//! to 1.4×; with zero slowdown, disabling buys only ~2 %.

use crate::cell::{run_averaged, Cell, CellError};
use crate::common::render_table;

/// One slowdown × avoidance cell.
#[derive(Debug, Clone)]
pub struct Fig9Point {
    /// Injected slowdown fraction.
    pub slowdown: f64,
    /// Avg JCT (hours) with avoidance enabled.
    pub enabled_jct_hours: f64,
    /// Avg JCT (hours) with avoidance disabled.
    pub disabled_jct_hours: f64,
}

/// The full Fig 9 sweep (Pollux only, like the paper).
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Points at slowdown 0, 0.25, 0.5.
    pub points: Vec<Fig9Point>,
    /// Traces averaged per cell.
    pub traces: u64,
}

/// Runs the sweep.
///
/// # Errors
///
/// [`CellError::NoTraces`] for `traces == 0`.
pub fn run(traces: u64) -> Result<Fig9Result, CellError> {
    let slowdowns = [0.0, 0.25, 0.5];
    let mut cells = Vec::new();
    for &interference in &slowdowns {
        for avoidance in [true, false] {
            let mut point = Cell {
                interference,
                ..Cell::evaluation("pollux", 0)
            };
            point.pollux.sched.ga.interference_avoidance = avoidance;
            cells.extend((0..traces).map(|t| point.at("pollux", t)));
        }
    }
    let summaries = run_averaged(&cells, traces)?;
    let points = slowdowns
        .iter()
        .zip(summaries.chunks(2))
        .map(|(&slowdown, pair)| Fig9Point {
            slowdown,
            enabled_jct_hours: pair[0].avg_jct_hours,
            disabled_jct_hours: pair[1].avg_jct_hours,
        })
        .collect();
    Ok(Fig9Result { points, traces })
}

impl std::fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 9: avg JCT vs interference slowdown, normalized to avoidance-enabled ({} trace/cell)",
            self.traces
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.slowdown * 100.0),
                    format!("{:.2}h (1.00)", p.enabled_jct_hours),
                    format!(
                        "{:.2}h ({:.2})",
                        p.disabled_jct_hours,
                        p.disabled_jct_hours / p.enabled_jct_hours.max(1e-9)
                    ),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &["slowdown", "avoidance enabled", "avoidance disabled"],
                &rows
            )
        )
    }
}
