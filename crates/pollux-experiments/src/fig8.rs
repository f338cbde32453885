//! Fig 8: sensitivity to cluster load (Sec. 5.3.2).
//!
//! Sweeps the job-submission rate from 0.5× to 2× the base workload
//! and reports average JCT per policy. The paper's observation: every
//! policy degrades under load, but Pollux degrades most gracefully.

use crate::common::{mean, render_table};
use crate::sweep::sweep;
use crate::table2::{run_one, Policy, Table2Options};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Load multiplier (relative job submission count).
    pub load: f64,
    /// Average JCT (hours) per policy, `Policy::ALL` order.
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
pub fn run(traces: u64) -> Fig8Result {
    let loads = [0.5, 1.0, 1.5, 2.0];
    let points = loads
        .iter()
        .map(|&load| {
            let mut jct = [0.0f64; 3];
            for (pi, &policy) in Policy::ALL.iter().enumerate() {
                let per_trace: Vec<f64> = sweep(traces.max(1), |t| {
                    let opts = Table2Options {
                        traces: 1,
                        load,
                        ..Default::default()
                    };
                    run_one(policy, t, &opts)
                        .avg_jct()
                        .map(|v| v / 3600.0)
                        .unwrap_or(f64::NAN)
                })
                .into_iter()
                .filter(|v| v.is_finite())
                .collect();
                jct[pi] = mean(&per_trace).unwrap_or(0.0);
            }
            Fig8Point {
                load,
                avg_jct_hours: jct,
            }
        })
        .collect();
    Fig8Result {
        points,
        traces: traces.max(1),
    }
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
