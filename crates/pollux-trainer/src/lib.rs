//! A pure-Rust data-parallel SGD training substrate.
//!
//! The original Pollux integrates with PyTorch; this workspace has no
//! DL-framework dependency, so this crate provides the closest
//! equivalent that exercises the same code paths with **real
//! stochastic gradients**:
//!
//! - a synthetic supervised task ([`dataset`]): linear regression;
//! - its model ([`model`]): linear, with an analytically computed
//!   per-batch gradient;
//! - a data-parallel SGD loop ([`train`]) that splits each mini-batch
//!   across `K` simulated replicas, measures the gradient noise scale
//!   from the inter-replica spread (`pollux-agent`'s estimators), and
//!   scales the learning rate with AdaScale (Eqn 5).
//!
//! This substrate validates the paper's statistical claims end-to-end:
//! Eqn 7's efficiency prediction matches the measured extra examples a
//! large-batch run needs to reach the same loss (the Fig 2b check).

pub mod dataset;
pub mod model;
pub mod train;

pub use dataset::Dataset;
pub use model::LinearModel;
pub use train::{AdaptiveTrainer, StepStats, TrainerConfig};
