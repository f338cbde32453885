//! Fig 1: the motivating trade-offs (ResNet18 on CIFAR-10).
//!
//! - **Fig 1a** — system throughput vs number of GPUs, for batch sizes
//!   512 and 2048: the larger batch scales to more GPUs.
//! - **Fig 1b** — the most efficient batch size vs number of GPUs, for
//!   the first and second half of training: later training tolerates
//!   much larger batches.

use crate::common::render_table;
use pollux_models::{EfficiencyModel, GoodputModel, PlacementShape};
use pollux_workload::ModelKind;

/// One Fig 1a series point.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// GPUs allocated (packed onto 4-GPU nodes).
    pub gpus: u32,
    /// Throughput at batch 512 (images/s).
    pub batch_512: f64,
    /// Throughput at batch 2048 (images/s).
    pub batch_2048: f64,
}

/// One Fig 1b series point.
#[derive(Debug, Clone, Copy)]
pub struct BestBatchPoint {
    /// GPUs allocated.
    pub gpus: u32,
    /// Goodput-optimal batch size in the first half of training.
    pub first_half: u64,
    /// Goodput-optimal batch size in the second half of training.
    pub second_half: u64,
}

/// The full Fig 1 reproduction.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Fig 1a series.
    pub throughput: Vec<ThroughputPoint>,
    /// Fig 1b series.
    pub best_batch: Vec<BestBatchPoint>,
}

fn packed(gpus: u32) -> PlacementShape {
    PlacementShape::new(gpus, gpus.div_ceil(4)).expect("gpus >= 1")
}

/// Runs the Fig 1 computation from the ResNet18 ground-truth profile.
pub fn run() -> Fig1Result {
    let profile = ModelKind::ResNet18Cifar10.profile();

    let throughput = (1..=16u32)
        .map(|gpus| {
            let shape = packed(gpus);
            ThroughputPoint {
                gpus,
                batch_512: profile.params.throughput(shape, 512),
                batch_2048: profile.params.throughput(shape, 2048),
            }
        })
        .collect();

    let model_at = |p: f64| {
        let eff = EfficiencyModel::from_noise_scale(profile.m0, profile.phi_at(p))
            .expect("profile phi > 0");
        GoodputModel::new(profile.params, eff, profile.limits).expect("m0 == limits.min")
    };
    let early = model_at(0.25);
    let late = model_at(0.75);
    let best_batch = [2u32, 4, 8, 16]
        .iter()
        .map(|&gpus| {
            let shape = packed(gpus);
            BestBatchPoint {
                gpus,
                first_half: early.optimal_batch_size(shape).map_or(0, |(m, _)| m),
                second_half: late.optimal_batch_size(shape).map_or(0, |(m, _)| m),
            }
        })
        .collect();

    Fig1Result {
        throughput,
        best_batch,
    }
}

impl std::fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 1a: throughput (imgs/s) vs GPUs, ResNet18/CIFAR-10")?;
        let rows: Vec<Vec<String>> = self
            .throughput
            .iter()
            .map(|p| {
                vec![
                    p.gpus.to_string(),
                    format!("{:.0}", p.batch_512),
                    format!("{:.0}", p.batch_2048),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["GPUs", "batch 512", "batch 2048"], &rows)
        )?;
        let s512: Vec<(f64, f64)> = self
            .throughput
            .iter()
            .map(|p| (p.gpus as f64, p.batch_512))
            .collect();
        let s2048: Vec<(f64, f64)> = self
            .throughput
            .iter()
            .map(|p| (p.gpus as f64, p.batch_2048))
            .collect();
        writeln!(
            f,
            "\n{}",
            crate::common::render_chart(
                "Fig 1a: throughput (imgs/s) vs GPUs",
                &[("batch 512", &s512), ("batch 2048", &s2048)],
                60,
                12,
            )
        )?;
        writeln!(f, "\nFig 1b: goodput-optimal batch size vs GPUs")?;
        let rows: Vec<Vec<String>> = self
            .best_batch
            .iter()
            .map(|p| {
                vec![
                    p.gpus.to_string(),
                    p.first_half.to_string(),
                    p.second_half.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(&["GPUs", "first half", "second half"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_large_batch_scales_better() {
        let r = run();
        let first = &r.throughput[0];
        let last = &r.throughput[15];
        let scale_small = last.batch_512 / first.batch_512;
        let scale_large = last.batch_2048 / first.batch_2048;
        // The paper's headline: scalability depends on the batch size.
        assert!(
            scale_large > 1.5 * scale_small,
            "512: {scale_small:.1}x vs 2048: {scale_large:.1}x"
        );
        // Throughput is monotone in GPUs within each series... up to
        // node-boundary effects; check endpoints at least.
        assert!(last.batch_2048 > first.batch_2048);
    }

    #[test]
    fn fig1b_best_batch_grows_with_gpus_and_progress() {
        let r = run();
        for p in &r.best_batch {
            assert!(
                p.second_half >= p.first_half,
                "GPUs {}: {} vs {}",
                p.gpus,
                p.first_half,
                p.second_half
            );
        }
        // More GPUs ⇒ larger optimal batch (both halves).
        let g2 = &r.best_batch[0];
        let g16 = &r.best_batch[3];
        assert!(g16.first_half > g2.first_half);
        assert!(g16.second_half > g2.second_half);
    }

    #[test]
    fn display_contains_both_series() {
        let s = run().to_string();
        assert!(s.contains("Fig 1a"));
        assert!(s.contains("Fig 1b"));
        assert!(s.contains("batch 2048"));
    }
}
