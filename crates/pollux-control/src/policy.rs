//! The scheduling-policy interface.
//!
//! A policy is invoked at every scheduling round with read-only views
//! of all active (non-finished) jobs. It returns the allocation matrix
//! to apply; optionally it can also resize the cluster (cloud
//! auto-scaling). Both the simulator engine and the live
//! `ClusterService` drive the policy through the same
//! [`crate::RoundPlanner::round`].

use pollux_agent::AgentReport;
use pollux_cluster::{row_is_empty, AllocationMatrix, ClusterSpec, JobId, Topology};
use pollux_models::BatchSizeLimits;
use pollux_telemetry::Recorder;
use pollux_workload::{ModelProfile, UserConfig};
use rand::rngs::StdRng;

/// Read-only per-job information exposed to policies.
///
/// Ground truth is deliberately absent except for `remaining_work`,
/// which implements the paper's *Optimus+Oracle* concession ("we run
/// each job ahead of time and provide Optimus with the exact number of
/// iterations until completion", Sec. 5.2). Honest policies simply
/// ignore it.
#[derive(Debug, Clone)]
pub struct PolicyJobView<'a> {
    /// Stable job identifier.
    pub id: JobId,
    /// The user-submitted `(GPUs, batch size)` configuration.
    pub user: UserConfig,
    /// Static, user-visible model metadata (name, m0, memory limits).
    /// `None` for drivers without a ground-truth profile object (the
    /// live service, whose jobs exist only as agents).
    pub profile: Option<&'a ModelProfile>,
    /// Batch-size limits (same as `profile.limits` when a profile is
    /// present).
    pub limits: BatchSizeLimits,
    /// The agent's latest report, absent until its first θsys fit.
    pub report: Option<AgentReport>,
    /// Attained service in GPU-seconds (drives Tiresias priorities and
    /// Pollux job weights).
    pub gputime: f64,
    /// Submission time.
    pub submit_time: f64,
    /// The placement row currently applied (cluster-width).
    pub current_placement: &'a [u32],
    /// Whether the job has ever started training. The round pipeline
    /// uses this to decide which re-allocations pay the
    /// checkpoint-restart delay.
    pub started: bool,
    /// Current batch size in effect.
    pub batch_size: u64,
    /// ORACLE: remaining work in examples at m0-efficiency.
    pub remaining_work: f64,
}

impl PolicyJobView<'_> {
    /// True when the job currently holds GPUs.
    pub fn is_running(&self) -> bool {
        !row_is_empty(self.current_placement)
    }
}

/// The return type of [`SchedulingPolicy::take_interval_stats`].
///
/// Nothing in this workspace builds one: a scheduler's counters leave
/// through the telemetry recorder (`sched/*`, see
/// `PolluxSched::set_recorder`). The type and the trait method stay
/// only because the frozen `benchmark/` compiles against them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedIntervalSample {
    /// Simulation time of the interval (s).
    pub time: f64,
    /// GA generations executed.
    pub generations_run: u64,
    /// Full-chromosome fitness evaluations.
    pub fitness_evals: u64,
    /// Fitness evaluations answered incrementally (only touched rows
    /// recomputed).
    pub incremental_evals: u64,
    /// Per-job contribution rows recomputed across all incremental
    /// evaluations.
    pub rows_recomputed: u64,
    /// Dense-table lookups answered in range.
    pub table_hits: u64,
    /// Out-of-range table lookups (answered 0).
    pub table_misses: u64,
    /// Batch-size solves (Eqn 13) spent building the table.
    pub table_solves: u64,
}

/// One sparse placement decision: the new placement row for the view
/// at index `row`. Returned by [`SchedulingPolicy::schedule_sparse`]
/// so a quiet round never materializes a dense `jobs × nodes` matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementDelta {
    /// Index into the round's view slice.
    pub row: usize,
    /// The new placement row. The planner pads (or truncates) it to
    /// cluster width before diffing against the current placement.
    pub gpus: Vec<u32>,
}

/// A cluster scheduling policy under evaluation.
pub trait SchedulingPolicy {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Whether the driver should let each job's agent re-tune its
    /// batch size and learning rate (true for Pollux, false for the
    /// baselines, which use the user-submitted batch size with
    /// AdaScale LR only — Sec. 5.2).
    fn adapts_batch_size(&self) -> bool {
        false
    }

    /// Computes the allocation matrix for this round. Row `i`
    /// corresponds to `jobs[i]`. The returned matrix must be feasible
    /// for `spec`; the round pipeline clamps infeasible matrices
    /// defensively.
    fn schedule(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> AllocationMatrix;

    /// Sparse-round fast path, consulted by the round pipeline
    /// *before* [`Self::schedule`]: policies that can express this
    /// round's decision as "keep every current placement except these
    /// rows" may return just the changed rows, making a quiet round
    /// O(churn) instead of O(jobs × nodes). The default returns `None`
    /// (without touching `rng`), which routes the round through the
    /// dense [`Self::schedule`] path unchanged.
    ///
    /// Contract for implementers: deltas must be in ascending row
    /// order with each row appearing at most once, and — because the
    /// sparse path skips the dense defensive clamp — the implied
    /// allocation (current placements with the deltas applied) must be
    /// feasible for `spec`. The planner still pads rows to cluster
    /// width and drops no-op deltas.
    fn schedule_sparse(
        &mut self,
        _now: f64,
        _jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<Vec<PlacementDelta>> {
        None
    }

    /// Cloud auto-scaling hook: return the desired number of nodes, or
    /// `None` to keep the cluster fixed. Called before `schedule` at
    /// each round.
    fn desired_nodes(
        &mut self,
        _now: f64,
        _jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<u32> {
        None
    }

    /// Explicit batch-size choice for policies that scale the batch
    /// without goodput awareness (e.g. Or et al.'s throughput-based
    /// autoscaler, which grows the batch linearly with workers). Only
    /// consulted when [`Self::adapts_batch_size`] is `false`; `None`
    /// keeps the job's current batch size.
    fn choose_batch_size(&self, _job: &PolicyJobView<'_>) -> Option<u64> {
        None
    }

    /// Caps the threads the policy's optimizer may work on, for a
    /// driver that owns a thread budget (the simulator does not call
    /// it). Pollux's racked search otherwise uses as many workers as
    /// the host has cores, one rack each; the default is a no-op.
    /// Implementations must keep results independent of the worker
    /// count (Pollux guarantees bit-identical schedules for a fixed
    /// seed).
    fn configure_parallelism(&mut self, _threads: usize) {}

    /// Topology hint: a simulation calls this at startup (and the round
    /// again after a cluster resize) with the rack layout, or `None` when the
    /// cluster is flat. Rack-aware policies (Pollux's two-phase GA)
    /// decompose their placement search along the racks; the default
    /// is a no-op, so flat policies need not care. Implementations
    /// must stay bit-identical to their flat search under a
    /// single-rack topology — the golden-digest suites pin this for
    /// Pollux.
    fn configure_topology(&mut self, _topology: Option<&Topology>) {}

    /// Kept only because the frozen `benchmark/` compiles against it:
    /// no policy in this workspace overrides it and nothing calls it.
    /// A policy's counters leave through the [`Recorder`] handed to
    /// [`Self::attach_telemetry`].
    fn take_interval_stats(&mut self) -> Option<SchedIntervalSample> {
        None
    }

    /// Hands the policy a telemetry [`Recorder`] so its internals
    /// (e.g. Pollux's GA) can emit spans and counters. Called by the
    /// driver when a recorder is attached (the simulator's
    /// `Simulation::with_recorder`, the service's config); the default
    /// discards it. Implementations must uphold the determinism
    /// contract: recording may not change any scheduling decision.
    fn attach_telemetry(&mut self, _recorder: Recorder) {}

    /// Drains the decision audit of the most recent `schedule` call,
    /// if the policy built one (Pollux does, and only while a recorder
    /// is attached — see `pollux_telemetry::RoundExplain`).
    /// [`crate::RoundPlanner::round`] calls this after applying a
    /// round, stamps the record with the round time and interference
    /// co-residents, and emits it through the recorder. Purely observational: implementations must derive
    /// the record without drawing RNG or perturbing cached state. The
    /// default reports nothing.
    fn take_round_explain(&mut self) -> Option<pollux_telemetry::RoundExplain> {
        None
    }
}

impl<P: SchedulingPolicy + ?Sized> SchedulingPolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn adapts_batch_size(&self) -> bool {
        (**self).adapts_batch_size()
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> AllocationMatrix {
        (**self).schedule(now, jobs, spec, rng)
    }

    fn schedule_sparse(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Option<Vec<PlacementDelta>> {
        (**self).schedule_sparse(now, jobs, spec, rng)
    }

    fn desired_nodes(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Option<u32> {
        (**self).desired_nodes(now, jobs, spec, rng)
    }

    fn choose_batch_size(&self, job: &PolicyJobView<'_>) -> Option<u64> {
        (**self).choose_batch_size(job)
    }

    fn configure_parallelism(&mut self, threads: usize) {
        (**self).configure_parallelism(threads)
    }

    fn configure_topology(&mut self, topology: Option<&Topology>) {
        (**self).configure_topology(topology)
    }

    fn attach_telemetry(&mut self, recorder: Recorder) {
        (**self).attach_telemetry(recorder)
    }

    fn take_round_explain(&mut self) -> Option<pollux_telemetry::RoundExplain> {
        (**self).take_round_explain()
    }
}
