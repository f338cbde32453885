//! Simulator-fidelity check (Sec. 5.3).
//!
//! The paper validates its simulator by comparing the simulated JCT
//! reductions against the testbed ones: simulated Pollux reduces avg
//! JCT by 26 % vs Optimus+Oracle and 40 % vs Tiresias+TunedJobs
//! (testbed: 25 % and 50 %). This module derives the same reduction
//! factors from a [`crate::table2`] run.

use crate::table2::Table2Result;

/// JCT-reduction factors relative to the baselines.
#[derive(Debug, Clone, Copy)]
pub struct FidelityResult {
    /// Avg-JCT reduction vs Optimus+Oracle (paper simulation: 0.26).
    pub reduction_vs_optimus: f64,
    /// Avg-JCT reduction vs Tiresias+TunedJobs (paper simulation: 0.40).
    pub reduction_vs_tiresias: f64,
}

/// Derives the reductions from a Table-2 result; `None` when a
/// baseline has no JCT to reduce.
pub fn from_table2(t: &Table2Result) -> Option<FidelityResult> {
    let [pollux, optimus, tiresias] = t.outcomes.map(|o| o.avg_jct_hours);
    if optimus <= 0.0 || tiresias <= 0.0 {
        return None;
    }
    Some(FidelityResult {
        reduction_vs_optimus: 1.0 - pollux / optimus,
        reduction_vs_tiresias: 1.0 - pollux / tiresias,
    })
}

impl std::fmt::Display for FidelityResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Simulator fidelity (Sec 5.3): avg JCT reduction by Pollux"
        )?;
        writeln!(
            f,
            "  vs Optimus+Oracle:     {:.0}%   (paper simulation: 26%, testbed: 25%)",
            self.reduction_vs_optimus * 100.0
        )?;
        write!(
            f,
            "  vs Tiresias+TunedJobs: {:.0}%   (paper simulation: 40%, testbed: 50%)",
            self.reduction_vs_tiresias * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Summary;

    fn table(jcts: [f64; 3]) -> Table2Result {
        Table2Result {
            outcomes: jcts.map(|avg_jct_hours| Summary {
                avg_jct_hours,
                ..Default::default()
            }),
            traces: 1,
        }
    }

    #[test]
    fn reductions_from_synthetic_table() {
        let f = from_table2(&table([1.2, 1.6, 2.4])).unwrap();
        assert!((f.reduction_vs_optimus - 0.25).abs() < 1e-9);
        assert!((f.reduction_vs_tiresias - 0.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_tables_rejected() {
        assert!(from_table2(&table([1.0, 0.0, 0.0])).is_none());
    }
}
