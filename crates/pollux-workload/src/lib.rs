//! Synthetic DL workloads mirroring the paper's evaluation setup
//! (Sec. 5.1, Table 1, Fig 6).
//!
//! The paper measures five real models (ResNet-50/ImageNet, YOLOv3/VOC,
//! DeepSpeech2/CMU-ARCTIC, ResNet18/CIFAR-10, NeuMF/MovieLens) on real
//! GPUs and replays the measurements in its simulator. We substitute
//! analytic **ground-truth profiles** per model: true θsys parameters
//! for the throughput model, and a gradient-noise-scale trajectory
//! φ(progress) that rises over training (with learning-rate-decay
//! boosts for ImageNet, reproducing Fig 2a). The scheduler never sees
//! these profiles — it sees noisy measurements, exactly as in the
//! paper.
//!
//! - [`gns`] — φ(progress) trajectories;
//! - [`models`] — the five Table-1 model profiles;
//! - [`tracegen`] — Microsoft-trace-like job generation (diurnal
//!   submission pattern, category mix);
//! - [`configs`] — "TunedJobs" (Sec. 5.2) and "realistic user
//!   configuration" (Sec. 5.3.1) generators for the baseline
//!   schedulers.

pub mod configs;
pub mod gns;
pub mod models;
pub mod tracegen;

pub use configs::{UserConfig, UserConfigTable};
pub use gns::GnsProfile;
pub use models::{ModelKind, ModelProfile, SizeCategory};
pub use tracegen::{JobSpec, TraceConfig, TraceGenerator};
