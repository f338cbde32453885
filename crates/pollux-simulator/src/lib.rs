//! Discrete-time DL cluster simulator (Sec. 5.3).
//!
//! Mirrors the paper's methodology: each simulated job carries a
//! ground-truth profile (true θsys + φ(progress) trajectory from
//! `pollux-workload`); the scheduler under test only ever sees noisy
//! profiled measurements through a real `PolluxAgent`. The simulator
//! reproduces:
//!
//! - placement-sensitive system throughput (co-located vs cross-node
//!   synchronization);
//! - statistical efficiency and its change across each job's lifetime
//!   ("statistical epoch" progress accounting);
//! - 30-second checkpoint-restart delays on re-allocation;
//! - optional network-interference slowdown when multiple distributed
//!   jobs share a node (Fig 9);
//! - cloud auto-scaling via a policy hook that resizes the cluster
//!   (Fig 10).
//!
//! Entry point: [`engine::Simulation`]. Scheduling policies implement
//! [`SchedulingPolicy`] (from `pollux-control`); Pollux itself lives in
//! `pollux-core` and the baselines in `pollux-control::baselines`.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod interference;
pub mod job;
pub mod metrics;

pub use config::{SimConfig, PHI_NOISE, REPORT_INTERVAL, SCHED_INTERVAL, TICK_SECONDS};
pub use engine::{SimBuildError, Simulation};
pub use interference::InterferenceIndex;
pub use job::{JobLifecycle, JobState, SimJob};
pub use metrics::{ClusterSample, JobRecord, SimResult};
// The policy interface the engine drives, from the shared control
// plane (the live `ClusterService` drives the very same one).
pub use pollux_control::{PolicyJobView, SchedulingPolicy};
