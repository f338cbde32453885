//! The time-agnostic Pollux control-plane core (Sec. 4.3).
//!
//! The paper's architecture is *one* control plane — `PolluxSched`
//! reschedules, `PolluxAgent` tunes — driven either by a discrete-time
//! simulator or by a live cluster. This crate holds the pieces both
//! drivers share, so they can never disagree on lifecycle semantics:
//!
//! - [`JobLifecycle`]: the per-job state machine
//!   (`Pending → Running → Restarting → Finished`) owning restart,
//!   queue-time, and GPU-time accounting;
//! - [`SchedulingPolicy`] / [`PolicyJobView`]: the policy interface and
//!   the immutable per-job view policies consume;
//! - [`sched_jobs_from_views`] / [`bootstrap_sched_job`]: the single
//!   home for fairness weights (Eqn 16) and the prior-driven
//!   exploration bootstrap (Sec. 4.1);
//! - [`RoundPlanner::round`] over a [`JobStore`]: the one scheduling
//!   round the engine and the service both run — views, autoscale and
//!   resize (a job on a removed node is preempted whole),
//!   [`RoundPlanner::plan`] (invoke the policy, clamp its matrix to
//!   capacity, diff old vs new placements into [`Reallocation`]s), one
//!   apply rule, and the stamped decision audit. A store lends its jobs
//!   ([`JobMut`]); the rules live here;
//! - [`StagedScheduler`]: the Blox-style decomposition of a policy
//!   into preemption / admission / placement stages, each a closed
//!   set of rules, composed back into a [`SchedulingPolicy`]
//!   (DESIGN.md §10);
//! - [`baselines`]: the seven staged policies — the paper's Tiresias,
//!   Optimus+Oracle and Or et al., and the zoo's SRTF, SRSF, gang FIFO
//!   and Gandiva packing — one rule per stage each. Their six files
//!   sit at the crate root beside the stages.
//!
//! Nothing here reads clocks, sleeps, or touches global state: `now`
//! is always an input and the RNG is caller-owned, so the same core is
//! exact under simulated time (`pollux-simulator`) and approximate
//! under wall-clock time (`ClusterService` in `pollux-core`), with
//! bit-identical decisions for identical inputs.

pub mod baselines;
mod fifo;
mod gandiva;
pub mod lifecycle;
mod optimus;
mod or_etal;
pub mod policy;
pub mod round;
pub mod sched_jobs;
mod shortest;
mod stages;
mod tiresias;

pub use lifecycle::{JobLifecycle, JobState};
pub use policy::{PlacementDelta, PolicyJobView, SchedIntervalSample, SchedulingPolicy};
pub use round::{JobMut, JobStore, Reallocation, RoundError, RoundPlanner};
pub use sched_jobs::{bootstrap_sched_job, sched_jobs_from_views, SchedJobCache};
pub use stages::{pack_consolidated, StagedScheduler};
