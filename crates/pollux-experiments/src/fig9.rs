//! Fig 9: impact of interference avoidance (Sec. 5.3.2).
//!
//! Injects artificial slowdowns (0 %, 25 %, 50 %) for distributed jobs
//! that share a node, with Pollux's interference-avoidance constraint
//! enabled vs disabled. The paper: with avoidance enabled, JCT is flat
//! across slowdowns (conflicts never happen); disabled, JCT grows up
//! to 1.4×; with zero slowdown, disabling buys only ~2 %.

use crate::common::{mean, render_table};
use crate::table2::{run_one, Policy, Table2Options};

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
pub fn run(traces: u64) -> Fig9Result {
    let slowdowns = [0.0, 0.25, 0.5];
    let cell = |slowdown: f64, disable_avoidance: bool| -> f64 {
        let per_trace: Vec<f64> = (0..traces.max(1))
            .map(|t| {
                let opts = Table2Options {
                    traces: 1,
                    interference: slowdown,
                    disable_avoidance,
                    ..Default::default()
                };
                run_one(Policy::Pollux, t, &opts)
                    .avg_jct()
                    .map(|v| v / 3600.0)
                    .unwrap_or(f64::NAN)
            })
            .filter(|v| v.is_finite())
            .collect();
        mean(&per_trace).unwrap_or(0.0)
    };
    let points = slowdowns
        .iter()
        .map(|&s| Fig9Point {
            slowdown: s,
            enabled_jct_hours: cell(s, false),
            disabled_jct_hours: cell(s, true),
        })
        .collect();
    Fig9Result {
        points,
        traces: traces.max(1),
    }
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
