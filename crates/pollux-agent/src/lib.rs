//! `PolluxAgent` — job-level optimization (Sec. 4.1).
//!
//! One agent runs with each training job. It:
//!
//! 1. profiles the time per training iteration for every
//!    `(placement, batch size)` configuration encountered
//!    ([`profiler`]);
//! 2. estimates the gradient noise scale from per-replica gradients, or
//!    from consecutive gradients when only one replica exists
//!    ([`gns`]);
//! 3. periodically re-fits the θsys throughput model to the profiled
//!    data (via `pollux-models::fit`) and reports `(θsys, φ_t, m0)` —
//!    the full goodput specification — to `PolluxSched`;
//! 4. re-tunes its job's batch size to `argmax_m GOODPUT(a, m)` and
//!    its learning rate via AdaScale ([`agent`]).

pub mod agent;
pub mod gns;
pub mod profiler;

pub use agent::{AgentReport, PolluxAgent, TuningDecision};
pub use gns::{DifferencedGns, Ewma, ReplicaGns};
pub use profiler::{ObservationRun, ThroughputProfiler};
