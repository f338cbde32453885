//! Ground-truth profiles of the five evaluation models (Table 1).
//!
//! Each profile carries the *true* θsys throughput parameters (what the
//! paper measured on its T4 testbed, which `PolluxAgent` must learn
//! from noisy samples), a φ(progress) trajectory, batch-size limits,
//! and the total work to reach the Table-1 validation metric.
//!
//! The absolute constants are calibrated so that (a) single-GPU
//! throughput and 16-GPU scaling curves have the shapes of Figs 1 and
//! 3, and (b) single-GPU completion times land each model in its
//! Table-1 GPU-time category (Small < 1 GPU-h, Medium 1–10, Large
//! 10–100, XLarge 100–1000).

use crate::gns::GnsProfile;
use pollux_models::{BatchSizeLimits, PlacementShape, ThroughputParams};

/// GPU-time categories from the Microsoft trace analysis (Sec. 5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeCategory {
    /// 0–1 GPU-hours.
    Small,
    /// 1–10 GPU-hours.
    Medium,
    /// 10–100 GPU-hours.
    Large,
    /// 100–1000 GPU-hours.
    XLarge,
}

/// The five evaluation models of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ResNet18 on CIFAR-10 (image classification, Small).
    ResNet18Cifar10,
    /// NeuMF on MovieLens (collaborative filtering, Small).
    NeuMFMovieLens,
    /// DeepSpeech2 on CMU-ARCTIC (speech recognition, Medium).
    DeepSpeech2Arctic,
    /// YOLOv3 on PASCAL-VOC (object detection, Large).
    Yolov3Voc,
    /// ResNet-50 on ImageNet (image classification, XLarge).
    ResNet50ImageNet,
}

impl ModelKind {
    /// All five models, in Table-1 order of increasing size.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::ResNet18Cifar10,
        ModelKind::NeuMFMovieLens,
        ModelKind::DeepSpeech2Arctic,
        ModelKind::Yolov3Voc,
        ModelKind::ResNet50ImageNet,
    ];

    /// This model's ground-truth profile.
    pub fn profile(&self) -> ModelProfile {
        match self {
            ModelKind::ResNet18Cifar10 => ModelProfile {
                kind: *self,
                name: "ResNet18/CIFAR-10",
                category: SizeCategory::Small,
                m0: 128,
                eta0: 0.1,
                limits: BatchSizeLimits::new(128, 8192, 1024).expect("static"),
                params: ThroughputParams::new(0.010, 1.0e-3, 0.02, 0.002, 0.07, 0.008, 1.8)
                    .expect("static"),
                gns: GnsProfile::new(300.0, 3500.0, vec![(0.5, 1.5)]).expect("static"),
                total_work: 2.5e6,
            },
            ModelKind::NeuMFMovieLens => ModelProfile {
                kind: *self,
                name: "NeuMF/MovieLens",
                category: SizeCategory::Small,
                m0: 256,
                eta0: 0.001,
                limits: BatchSizeLimits::new(256, 32_768, 4096).expect("static"),
                params: ThroughputParams::new(0.002, 5.0e-5, 0.010, 0.001, 0.05, 0.005, 2.0)
                    .expect("static"),
                gns: GnsProfile::new(600.0, 9000.0, vec![]).expect("static"),
                total_work: 4.0e7,
            },
            ModelKind::DeepSpeech2Arctic => ModelProfile {
                kind: *self,
                name: "DeepSpeech2/CMU-ARCTIC",
                category: SizeCategory::Medium,
                m0: 32,
                eta0: 3.0e-4,
                limits: BatchSizeLimits::new(32, 1024, 64).expect("static"),
                params: ThroughputParams::new(0.050, 1.0e-2, 0.10, 0.005, 0.30, 0.010, 1.6)
                    .expect("static"),
                gns: GnsProfile::new(50.0, 700.0, vec![]).expect("static"),
                total_work: 1.2e6,
            },
            ModelKind::Yolov3Voc => ModelProfile {
                kind: *self,
                name: "YOLOv3/PASCAL-VOC",
                category: SizeCategory::Large,
                m0: 8,
                eta0: 1.0e-3,
                limits: BatchSizeLimits::new(8, 512, 16).expect("static"),
                params: ThroughputParams::new(0.10, 6.0e-2, 0.08, 0.004, 0.25, 0.010, 2.0)
                    .expect("static"),
                gns: GnsProfile::new(30.0, 500.0, vec![(0.6, 1.5)]).expect("static"),
                total_work: 1.5e6,
            },
            ModelKind::ResNet50ImageNet => ModelProfile {
                kind: *self,
                name: "ResNet-50/ImageNet",
                category: SizeCategory::XLarge,
                m0: 256,
                eta0: 0.1,
                limits: BatchSizeLimits::new(256, 32_768, 256).expect("static"),
                params: ThroughputParams::new(0.020, 3.0e-3, 0.05, 0.003, 0.15, 0.006, 2.2)
                    .expect("static"),
                // Learning-rate decays at epochs 30 and 60 of 90 produce
                // the Fig 2a efficiency spikes.
                gns: GnsProfile::new(600.0, 6000.0, vec![(1.0 / 3.0, 3.0), (2.0 / 3.0, 2.0)])
                    .expect("static"),
                total_work: 1.3e8,
            },
        }
    }
}

/// A complete ground-truth model description.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Which Table-1 model this is.
    pub kind: ModelKind,
    /// Human-readable `model/dataset` name.
    pub name: &'static str,
    /// GPU-time category.
    pub category: SizeCategory,
    /// Initial (user-submitted) batch size.
    pub m0: u64,
    /// Initial learning rate.
    pub eta0: f64,
    /// Batch-size limits (memory, global cap).
    pub limits: BatchSizeLimits,
    /// True θsys throughput parameters.
    pub params: ThroughputParams,
    /// True gradient-noise-scale trajectory.
    pub gns: GnsProfile,
    /// Examples (at m0-efficiency) to reach the validation target.
    pub total_work: f64,
}

impl ModelProfile {
    /// The true noise scale at normalized progress `p`.
    pub fn phi_at(&self, progress: f64) -> f64 {
        self.gns.phi(progress)
    }

    /// Single-GPU completion time at `m0` with no adaptation, in
    /// GPU-seconds — the nominal job size used for categorization.
    pub fn nominal_gpu_seconds(&self) -> f64 {
        let tput = self.params.throughput(PlacementShape::single(), self.m0);
        self.total_work / tput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_internally_consistent() {
        for kind in ModelKind::ALL {
            let p = kind.profile();
            assert_eq!(p.kind, kind);
            assert_eq!(p.limits.min, p.m0, "{}: m0 must equal limits.min", p.name);
            assert!(p.params.is_valid(), "{}: invalid throughput params", p.name);
            assert!(p.total_work > 0.0);
            assert!(p.eta0 > 0.0);
            // m0 must fit on a single GPU for every model (the paper
            // starts each job on one GPU).
            assert!(
                p.limits.max_per_gpu >= p.m0,
                "{}: m0 does not fit on one GPU",
                p.name
            );
        }
    }

    #[test]
    fn nominal_sizes_match_table1_categories() {
        for kind in ModelKind::ALL {
            let p = kind.profile();
            let hours = p.nominal_gpu_seconds() / 3600.0;
            let (lo, hi) = match p.category {
                SizeCategory::Small => (0.0, 1.0),
                SizeCategory::Medium => (1.0, 10.0),
                SizeCategory::Large => (10.0, 100.0),
                SizeCategory::XLarge => (100.0, 1000.0),
            };
            assert!(
                hours > lo && hours <= hi,
                "{}: {hours:.2} GPU-h outside {:?} ({lo}-{hi})",
                p.name,
                p.category
            );
        }
    }

    #[test]
    fn noise_scales_grow_substantially() {
        // Sec. 2.2: φ grows during training, "up to 10× or more".
        for kind in ModelKind::ALL {
            let p = kind.profile();
            let growth = p.gns.total_growth();
            assert!(
                growth >= 10.0,
                "{}: φ growth {growth:.1}x is too small",
                p.name
            );
            assert!(
                growth <= 200.0,
                "{}: φ growth {growth:.1}x is absurd",
                p.name
            );
        }
    }

    #[test]
    fn imagenet_has_lr_decay_boosts() {
        let p = ModelKind::ResNet50ImageNet.profile();
        assert_eq!(p.gns.boosts.len(), 2);
        // Efficiency at batch 8000 improves sharply after the first
        // decay (the Fig 2a shape).
        use pollux_models::EfficiencyModel;
        let eff = |progress: f64| {
            EfficiencyModel::from_noise_scale(p.m0, p.phi_at(progress))
                .unwrap()
                .efficiency(8000)
        };
        assert!(
            eff(0.05) < 0.25,
            "early large-batch efficiency: {}",
            eff(0.05)
        );
        assert!(
            eff(0.95) > 0.6,
            "late large-batch efficiency: {}",
            eff(0.95)
        );
    }

    #[test]
    fn single_gpu_throughputs_are_plausible() {
        // Sanity band: between 5 and 50_000 examples/s depending on
        // model (speech/detection slow, recommendation fast).
        for kind in ModelKind::ALL {
            let p = kind.profile();
            let tput = p.params.throughput(PlacementShape::single(), p.m0);
            assert!(
                tput > 5.0 && tput < 50_000.0,
                "{}: single-GPU throughput {tput:.0}/s",
                p.name
            );
        }
    }

    #[test]
    fn resnet18_matches_fig1a_shape() {
        // Fig 1a: at batch 2048 ResNet18 scales much better to 16 GPUs
        // than at batch 512.
        let p = ModelKind::ResNet18Cifar10.profile();
        let k16 = PlacementShape::new(16, 4).unwrap();
        let k1 = PlacementShape::single();
        let scale_512 = p.params.throughput(k16, 512) / p.params.throughput(k1, 512);
        let scale_2048 = p.params.throughput(k16, 2048) / p.params.throughput(k1, 2048);
        assert!(scale_2048 > 1.5 * scale_512, "{scale_2048} vs {scale_512}");
        // And the absolute 16-GPU large-batch throughput lands in the
        // Fig 1a ballpark (≈ 8000–14000 images/s).
        let t = p.params.throughput(k16, 2048);
        assert!((6000.0..16_000.0).contains(&t), "throughput = {t:.0}");
    }
}
