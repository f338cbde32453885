//! Fig 3: the throughput model (Eqn 11) fit to measured values
//! (ResNet-50/ImageNet).
//!
//! We reproduce the paper's procedure end-to-end: generate noisy
//! iteration-time measurements from the ground-truth profile over a
//! grid of configurations, fit θsys with the agent's RMSLE pipeline,
//! and compare model predictions against the true ("actual")
//! throughput — **Fig 3a** varies the number of nodes at a fixed batch
//! size, **Fig 3b** varies the batch size at a fixed allocation.

use crate::common::render_table;
use pollux_models::{fit_throughput_params, FitObservation, FitPriors, PlacementShape};
use pollux_workload::ModelKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One actual-vs-model comparison point.
#[derive(Debug, Clone, Copy)]
pub struct FitPoint {
    /// The varied quantity (nodes for Fig 3a, batch size for Fig 3b).
    pub x: u64,
    /// Ground-truth throughput (examples/s).
    pub actual: f64,
    /// Fitted-model prediction (examples/s).
    pub model: f64,
}

/// The full Fig 3 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Fig 3a: throughput vs nodes (1 GPU per node, batch 2048).
    pub vs_nodes: Vec<FitPoint>,
    /// Fig 3b: throughput vs batch size (4 nodes × 1 GPU).
    pub vs_batch: Vec<FitPoint>,
    /// RMSLE of the fit on its training observations.
    pub rmsle: f64,
}

/// Runs the fit + comparison.
pub fn run(noise: f64, seed: u64) -> Fig3Result {
    let profile = ModelKind::ResNet50ImageNet.profile();
    let mut rng = StdRng::seed_from_u64(seed);

    // Training observations: the grid of Sec. 5.3 (batch sizes spaced
    // by ~sqrt(2), placements up to 8 nodes).
    let mut obs = Vec::new();
    for (gpus, nodes) in [
        (1u32, 1u32),
        (2, 1),
        (2, 2),
        (4, 1),
        (4, 4),
        (6, 3),
        (8, 2),
        (8, 8),
    ] {
        let shape = PlacementShape::new(gpus, nodes).expect("static");
        let mut m = profile.m0;
        let cap = (profile.limits.max_per_gpu * gpus as u64).min(profile.limits.max_global);
        while m <= cap {
            let t = profile.params.t_iter(shape, m);
            let eps: f64 = rng.gen_range(-noise..=noise);
            obs.push(FitObservation {
                shape,
                batch_size: m,
                t_iter: t * (1.0 + eps),
            });
            m = ((m as f64) * std::f64::consts::SQRT_2).round() as u64;
        }
    }
    let report = fit_throughput_params(&obs, FitPriors::from_observations(&obs))
        .expect("non-empty observations");

    let vs_nodes = (1..=8u32)
        .map(|nodes| {
            let shape = PlacementShape::new(nodes, nodes).expect("one GPU per node");
            let m = 2048u64;
            FitPoint {
                x: nodes as u64,
                actual: profile.params.throughput(shape, m),
                model: report.params.throughput(shape, m),
            }
        })
        .collect();

    let shape_b = PlacementShape::new(4, 4).expect("static");
    let vs_batch = [512u64, 724, 1024, 1448, 2048, 2896]
        .iter()
        .map(|&m| FitPoint {
            x: m,
            actual: profile.params.throughput(shape_b, m),
            model: report.params.throughput(shape_b, m),
        })
        .collect();

    Fig3Result {
        vs_nodes,
        vs_batch,
        rmsle: report.rmsle,
    }
}

impl std::fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 3a: throughput vs nodes (ImageNet, batch 2048), RMSLE {:.4}",
            self.rmsle
        )?;
        let rows: Vec<Vec<String>> = self
            .vs_nodes
            .iter()
            .map(|p| {
                vec![
                    p.x.to_string(),
                    format!("{:.0}", p.actual),
                    format!("{:.0}", p.model),
                ]
            })
            .collect();
        write!(f, "{}", render_table(&["nodes", "actual", "model"], &rows))?;
        writeln!(f, "\nFig 3b: throughput vs batch size (4 nodes)")?;
        let rows: Vec<Vec<String>> = self
            .vs_batch
            .iter()
            .map(|p| {
                vec![
                    p.x.to_string(),
                    format!("{:.0}", p.actual),
                    format!("{:.0}", p.model),
                ]
            })
            .collect();
        write!(f, "{}", render_table(&["batch", "actual", "model"], &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_actual_closely() {
        let r = run(0.05, 1);
        for p in r.vs_nodes.iter().chain(&r.vs_batch) {
            let rel = (p.model - p.actual).abs() / p.actual;
            assert!(
                rel < 0.15,
                "x = {}: model {} vs actual {}",
                p.x,
                p.model,
                p.actual
            );
        }
        assert!(r.rmsle < 0.05, "rmsle = {}", r.rmsle);
    }

    #[test]
    fn throughput_saturates_with_nodes() {
        // Fig 3a's shape: increasing but saturating.
        let r = run(0.05, 2);
        let first = r.vs_nodes.first().unwrap().actual;
        let last = r.vs_nodes.last().unwrap().actual;
        assert!(last > first);
        let gain_early = r.vs_nodes[1].actual / r.vs_nodes[0].actual;
        let gain_late = r.vs_nodes[7].actual / r.vs_nodes[6].actual;
        assert!(gain_late < gain_early, "{gain_early} vs {gain_late}");
    }

    #[test]
    fn throughput_increases_with_batch() {
        let r = run(0.05, 3);
        for w in r.vs_batch.windows(2) {
            assert!(w[1].actual >= w[0].actual);
        }
    }
}
