//! Fig 6: job submissions per hour of the synthetic workload window.
//!
//! The paper samples its 8-hour evaluation window around the daily
//! peak of the Microsoft trace, where the peak hour submits at ~3× the
//! rate of the first hour. This experiment regenerates the histogram
//! from our trace generator.

use crate::common::render_table;
use pollux_workload::{TraceConfig, TraceGenerator};

/// The Fig 6 reproduction: submissions per hour, averaged over traces.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Mean submissions in each of the 8 window hours.
    pub hourly: Vec<f64>,
    /// Ratio of the peak hour to the first hour (the paper reports 3×).
    pub peak_ratio: f64,
}

/// Generates and averages `traces` histograms.
pub fn run(traces: u64) -> Fig6Result {
    let traces = traces.max(1);
    let mut totals = vec![0.0f64; 8];
    for seed in 0..traces {
        let gen = TraceGenerator::new(TraceConfig {
            seed: 1000 + seed,
            ..Default::default()
        })
        .expect("static config");
        let jobs = gen.generate();
        for (h, c) in gen.hourly_counts(&jobs).iter().enumerate() {
            totals[h] += *c as f64;
        }
    }
    for t in &mut totals {
        *t /= traces as f64;
    }
    let peak = totals.iter().cloned().fold(0.0, f64::max);
    let peak_ratio = peak / totals[0].max(1e-9);
    Fig6Result {
        hourly: totals,
        peak_ratio,
    }
}

impl std::fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 6: submissions per hour (peak/first ratio = {:.2})",
            self.peak_ratio
        )?;
        let rows: Vec<Vec<String>> = self
            .hourly
            .iter()
            .enumerate()
            .map(|(h, c)| vec![format!("{h}"), format!("{c:.1}")])
            .collect();
        write!(f, "{}", render_table(&["hour", "submissions"], &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_hour_three_at_about_3x() {
        let r = run(16);
        let peak_hour = r
            .hourly
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak_hour, 3, "hourly = {:?}", r.hourly);
        assert!(
            (2.2..4.0).contains(&r.peak_ratio),
            "ratio = {}",
            r.peak_ratio
        );
    }

    #[test]
    fn total_is_160_per_trace() {
        let r = run(4);
        let total: f64 = r.hourly.iter().sum();
        assert!((total - 160.0).abs() < 1e-9);
    }
}
