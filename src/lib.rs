//! Umbrella crate re-exporting the entire Pollux workspace.
//!
//! See the individual crates for detailed documentation:
//! [`pollux_core`], [`pollux_models`], [`pollux_sched`], [`pollux_agent`],
//! [`pollux_control`] (with the baseline schedulers),
//! [`pollux_simulator`], [`pollux_workload`], [`pollux_trainer`],
//! [`pollux_experiments`], [`pollux_cluster`].

pub use pollux_agent as agent;
pub use pollux_cluster as cluster;
pub use pollux_control as control;
pub use pollux_core as core;
pub use pollux_experiments as experiments;
pub use pollux_models as models;
pub use pollux_sched as sched;
pub use pollux_simulator as simulator;
pub use pollux_trainer as trainer;
pub use pollux_workload as workload;
