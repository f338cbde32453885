//! Extension experiment: gradient accumulation in the goodput search.
//!
//! The deployed AdaptDL system (the paper's artifact) extends Pollux's
//! batch-size search with accumulation steps so memory-constrained
//! models can reach the large batch sizes that late-training noise
//! scales justify. This experiment reports the optimal
//! `(m*, s*, goodput)` across training progress, with and without
//! accumulation, for a chosen model profile and placement.
//!
//! Accumulation only pays when (a) the per-GPU memory cap binds the
//! single-step search and (b) synchronization is expensive enough to
//! amortize — i.e. large models on multi-node placements late in
//! training.

use crate::common::render_table;
use pollux_models::{AccumulatedGoodput, EfficiencyModel, GoodputModel, PlacementShape};
pub use pollux_workload::ModelKind;

/// One progress point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct AccumPoint {
    /// Normalized training progress.
    pub progress: f64,
    /// Noise scale at that progress.
    pub phi: f64,
    /// Goodput-optimal batch without accumulation.
    pub m_single: u64,
    /// Goodput without accumulation.
    pub goodput_single: f64,
    /// Goodput-optimal `(m, s)` with accumulation.
    pub m_accum: u64,
    /// Chosen accumulation steps.
    pub steps: u32,
    /// Goodput with accumulation.
    pub goodput_accum: f64,
}

/// The full extension-experiment result.
#[derive(Debug, Clone)]
pub struct AccumResult {
    /// Model profile used.
    pub model: String,
    /// Placement used.
    pub gpus: u32,
    /// Nodes used.
    pub nodes: u32,
    /// Sweep over training progress.
    pub points: Vec<AccumPoint>,
}

/// Runs the sweep for `kind` under `gpus` GPUs spread over `nodes`
/// nodes, with the profile's own per-GPU memory cap.
pub fn run(kind: ModelKind, gpus: u32, nodes: u32) -> AccumResult {
    run_with_cap(kind, gpus, nodes, None)
}

/// Like [`run`], but overriding the per-GPU batch cap — modelling a
/// larger model variant or smaller GPUs, where memory binds the
/// single-step search and accumulation becomes load-bearing.
pub fn run_with_cap(
    kind: ModelKind,
    gpus: u32,
    nodes: u32,
    per_gpu_cap: Option<u64>,
) -> AccumResult {
    let mut profile = kind.profile();
    if let Some(cap) = per_gpu_cap {
        let limits = pollux_models::BatchSizeLimits::new(
            profile.limits.min,
            profile.limits.max_global,
            cap.max(1),
        )
        .expect("max_per_gpu >= 1 by clamping");
        profile.limits = limits;
    }
    let shape = PlacementShape::new(gpus, nodes).expect("caller passes valid shape");
    let points = [0.05, 0.25, 0.5, 0.75, 0.95]
        .iter()
        .map(|&p| {
            let phi = profile.phi_at(p);
            let eff = EfficiencyModel::from_noise_scale(profile.m0, phi).expect("phi > 0");
            let base = GoodputModel::new(profile.params, eff, profile.limits).expect("m0 matches");
            let acc = AccumulatedGoodput::new(base, 8).expect("steps > 0");
            let (m_single, goodput_single) =
                base.optimal_batch_size(shape).unwrap_or((profile.m0, 0.0));
            let (m_accum, steps, goodput_accum) =
                acc.optimal(shape).unwrap_or((profile.m0, 1, 0.0));
            AccumPoint {
                progress: p,
                phi,
                m_single,
                goodput_single,
                m_accum,
                steps,
                goodput_accum,
            }
        })
        .collect();
    AccumResult {
        model: match per_gpu_cap {
            Some(cap) => format!("{} (per-GPU cap {})", profile.name, cap),
            None => profile.name.to_string(),
        },
        gpus,
        nodes,
        points,
    }
}

impl std::fmt::Display for AccumResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Extension: gradient accumulation, {} on {} GPUs / {} node(s)",
            self.model, self.gpus, self.nodes
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.progress * 100.0),
                    format!("{:.0}", p.phi),
                    format!("{}", p.m_single),
                    format!("{:.0}", p.goodput_single),
                    format!("{} x{}", p.m_accum, p.steps),
                    format!("{:.0}", p.goodput_accum),
                    format!(
                        "{:+.1}%",
                        (p.goodput_accum / p.goodput_single.max(1e-9) - 1.0) * 100.0
                    ),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                &[
                    "progress",
                    "phi",
                    "m* (s=1)",
                    "goodput",
                    "m* (accum)",
                    "goodput",
                    "gain"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_never_hurts() {
        // The accumulation search space contains s = 1, so it can
        // never do worse than the single-step search.
        for r in [
            run(ModelKind::ResNet50ImageNet, 16, 4),
            run(ModelKind::DeepSpeech2Arctic, 8, 2),
        ] {
            for p in &r.points {
                assert!(
                    p.goodput_accum >= p.goodput_single * (1.0 - 1e-9),
                    "progress {}: accum {} < single {}",
                    p.progress,
                    p.goodput_accum,
                    p.goodput_single
                );
            }
        }
    }

    #[test]
    fn calibrated_profiles_are_efficiency_limited() {
        // Honest negative result: with the Table-1 calibration the
        // goodput-optimal batch stays below the memory cap, so
        // accumulation never engages (s* = 1 everywhere).
        let r = run(ModelKind::ResNet50ImageNet, 16, 4);
        assert!(r.points.iter().all(|p| p.steps == 1), "{r}");
    }

    #[test]
    fn memory_tight_variant_engages_accumulation() {
        // Shrink the per-GPU cap 4x (a bigger model / smaller GPUs):
        // late in training the cap binds and accumulation wins.
        let r = run_with_cap(ModelKind::ResNet50ImageNet, 16, 4, Some(64));
        let late = r.points.last().unwrap();
        assert!(late.steps > 1, "late steps = {}\n{r}", late.steps);
        assert!(late.m_accum > late.m_single);
        assert!(
            late.goodput_accum > late.goodput_single * 1.05,
            "gain too small: {} vs {}",
            late.goodput_accum,
            late.goodput_single
        );
    }

    #[test]
    fn single_gpu_accumulation_is_modest() {
        // Co-located single GPU: no sync to amortize, so accumulation
        // buys little or nothing beyond the memory extension.
        let r = run(ModelKind::DeepSpeech2Arctic, 1, 1);
        for p in &r.points {
            assert!(p.goodput_accum >= p.goodput_single * (1.0 - 1e-9));
        }
    }
}
