//! The discrete-time simulation engine.
//!
//! # Event-sparse execution
//!
//! [`Simulation::run`] keeps one persistent *run context* per running
//! job: the invariants its tick needs (interference slowdown,
//! iteration time, throughput, the progress step under the φ the job
//! currently holds), its hot accumulators, and an open profiler run.
//! Placement, batch size and interference change only at scheduling
//! rounds, report rounds, restart wake-ups and finishes, so a context
//! is rebuilt by exactly those events (`JobTable::sync_context`) and
//! by nothing else; the step is recomputed when the job's progress
//! leaves the sub-interval its φ is held over
//! (`SimJob::held_efficiency_at`), a few hundred times a lifetime. Time
//! advances in *chunks* between event horizons — the next arrival,
//! restart-delay expiry, report tick, scheduling tick and the
//! simulation end — and a chunk is one tick-major sweep over the
//! contexts (`Simulation::advance_chunk`) that ends early after the
//! tick in which a job finishes.
//!
//! The per-tick oracle, [`Simulation::run_reference`], lives in
//! `reference.rs`, and the determinism contract is strict: for a fixed
//! seed `run` produces a `SimResult` **bit-identical** to it (same RNG
//! draw sequence, same f64 operands in the same order per
//! accumulator). The suites in `tests/macro_step.rs` and the root
//! `tests/engine_identity.rs` pin this with golden digests and
//! reference-equality proptests.

use crate::config::{SimConfig, PHI_NOISE, REPORT_INTERVAL, SCHED_INTERVAL, TICK_SECONDS};
use crate::interference::InterferenceIndex;
use crate::job::{JobState, SimJob};
use crate::metrics::{ClusterSample, JobRecord, SimResult};
use pollux_agent::ObservationRun;
use pollux_cluster::{ClusterSpec, JobId, Topology};
use pollux_control::{
    JobMut, JobStore, PolicyJobView, Reallocation, RoundPlanner, SchedulingPolicy,
};
use pollux_models::{GradientStats, PlacementShape};
use pollux_telemetry::{Counter, HistogramHandle, Recorder};
use pollux_workload::{JobSpec, UserConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

// A child of this module, so that the oracle reads the engine's private
// state without any of it being widened for its sake.
#[path = "reference.rs"]
mod reference;

/// Ticks from one scheduling round to the next.
const SCHED_EVERY: u64 = (SCHED_INTERVAL / TICK_SECONDS) as u64;
/// Ticks from one report round to the next.
const REPORT_EVERY: u64 = (REPORT_INTERVAL / TICK_SECONDS) as u64;

/// A job submission handed to the simulation: the trace record plus
/// the user configuration in effect (tuned or realistic).
pub type Submission = (JobSpec, UserConfig);

/// A complete simulation run: cluster, workload, and policy.
///
/// # Examples
///
/// A minimal policy that gives every job one GPU on the first node
/// with space, simulated over a tiny workload:
///
/// ```
/// use pollux_cluster::{AllocationMatrix, ClusterSpec};
/// use pollux_simulator::{PolicyJobView, SchedulingPolicy, SimConfig, Simulation};
/// use pollux_workload::{TraceConfig, TraceGenerator};
/// use rand::rngs::StdRng;
///
/// struct OneGpuEach;
/// impl SchedulingPolicy for OneGpuEach {
///     fn name(&self) -> &'static str {
///         "one-gpu-each"
///     }
///     fn schedule(
///         &mut self,
///         _now: f64,
///         jobs: &[PolicyJobView<'_>],
///         spec: &ClusterSpec,
///         _rng: &mut StdRng,
///     ) -> AllocationMatrix {
///         let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
///         for (j, _) in jobs.iter().enumerate() {
///             let n = j % spec.num_nodes();
///             if m.gpus_used_on(n) < 4 {
///                 m.set(j, n, 1);
///             }
///         }
///         m
///     }
/// }
///
/// let trace = TraceGenerator::new(TraceConfig {
///     num_jobs: 4,
///     duration_hours: 0.2,
///     seed: 3,
///     ..Default::default()
/// })
/// .unwrap()
/// .generate();
/// let workload = trace.into_iter().map(|j| {
///     let user = j.tuned;
///     (j, user)
/// }).collect();
/// let sim = SimConfig {
///     max_sim_time: 24.0 * 3600.0,
///     ..Default::default()
/// };
/// let result = Simulation::new(sim, ClusterSpec::homogeneous(2, 4).unwrap(), OneGpuEach, workload)
///     .unwrap()
///     .run();
/// assert_eq!(result.records.len(), 4);
/// assert!(result.avg_jct().is_some());
/// ```
pub struct Simulation<P: SchedulingPolicy> {
    config: SimConfig,
    spec: ClusterSpec,
    policy: P,
    /// The shared control-plane round (also run by the live
    /// `ClusterService` in `pollux-core`) over [`Self::table`].
    planner: RoundPlanner,
    /// Not-yet-submitted jobs, sorted by ascending submit time.
    arrivals: Vec<Submission>,
    /// The spawned jobs, their run contexts and the interference index:
    /// the job store each scheduling round reads and writes.
    table: JobTable,
    rng: StdRng,
    series: Vec<ClusterSample>,
    node_seconds: f64,
    /// Telemetry handle (disabled by default; see
    /// [`Simulation::with_recorder`]). Purely observational: the
    /// determinism suite proves a `SimResult` is bit-identical with
    /// recording on and off.
    recorder: Recorder,
    /// Hoisted counter/histogram handles for the engine hot path.
    telem: EngineTelemetry,
}

/// The spawned jobs and what the engine keeps current about them.
/// A scheduling round reaches them through [`JobStore`]; ticks,
/// arrivals and reports reach them directly.
#[derive(Default)]
struct JobTable {
    /// Spawned jobs (active and finished).
    jobs: Vec<SimJob>,
    /// Indices of non-finished jobs, ascending. Maintained
    /// incrementally (push on spawn, remove on finish) so the hot
    /// paths never scan finished jobs. Ascending order matters: it is
    /// what keeps the per-job RNG draw sequence identical to a full
    /// index-order scan.
    active: Vec<usize>,
    /// Interference slowdown per job, as of the last
    /// [`Simulation::refresh_slowdowns`]. Jobs spawned since are past
    /// its end and read as 0 — they hold no GPUs yet.
    slowdown: Vec<f64>,
    /// The [`InterferenceIndex`] changed since `slowdown` was computed.
    slowdowns_stale: bool,
    /// Incremental interference index: per-node occupant sets and
    /// per-job node counts, updated on placement deltas (reallocation,
    /// finish, resize). Maintained on both steppers; only `run` reads
    /// it (the reference stepper scans the placements instead).
    interference: InterferenceIndex,
    /// One context per `Running` job, ascending by job index — the
    /// order of the per-tick RNG draws. Kept current by
    /// [`Self::sync_context`].
    running: Vec<RunCtx>,
    /// One entry per `Restarting` job, ascending by job index.
    restarting: Vec<RestartCtx>,
    /// The one switch between the steppers: false under
    /// [`Simulation::run_reference`], which keeps no contexts
    /// (`running` and `restarting` stay empty) and scans the jobs
    /// instead, so that the oracle shares none of this bookkeeping with
    /// what it checks.
    contexts_live: bool,
    /// Cumulative restart count across all jobs (feeds the
    /// `engine/cluster_sample` time-series; per-job counts live on
    /// the job records).
    restarts_total: u64,
    /// Racks of this many nodes, handed to the policy after a resize
    /// (0: a flat cluster).
    nodes_per_rack: u32,
    /// Run contexts opened or reopened (a grant, a wake-up, a new
    /// batch size, a changed slowdown).
    ctx_rebuilds: Counter,
    /// Open profiler runs written back with new samples in them.
    profiler_flushes: Counter,
}

/// Counter and histogram handles hoisted out of the engine hot path:
/// one atomic add per touch, no registry lookup; no-op handles when
/// no recorder is attached.
#[derive(Default)]
struct EngineTelemetry {
    /// Chunks executed.
    chunks: Counter,
    /// Ticks advanced (sum of chunk lengths).
    ticks: Counter,
    /// Chunks ended by a job finishing before their event horizon.
    mid_chunk_aborts: Counter,
    /// Slowdown-vector recomputations: one per chunk that follows a
    /// change to the interference index, none while interference is
    /// switched off.
    interference_recomputes: Counter,
    /// Which event horizon bounded each chunk.
    horizon_report: Counter,
    horizon_sched: Counter,
    horizon_arrival: Counter,
    horizon_restart: Counter,
    horizon_end: Counter,
    /// Distribution of chunk lengths in ticks.
    chunk_ticks: HistogramHandle,
}

impl EngineTelemetry {
    fn new(rec: &Recorder) -> Self {
        Self {
            chunks: rec.counter("engine", "chunks"),
            ticks: rec.counter("engine", "ticks"),
            mid_chunk_aborts: rec.counter("engine", "mid_chunk_aborts"),
            interference_recomputes: rec.counter("engine", "interference_recomputes"),
            horizon_report: rec.counter("engine", "horizon_report"),
            horizon_sched: rec.counter("engine", "horizon_sched"),
            horizon_arrival: rec.counter("engine", "horizon_arrival"),
            horizon_restart: rec.counter("engine", "horizon_restart"),
            horizon_end: rec.counter("engine", "horizon_end"),
            chunk_ticks: rec.histogram("engine", "chunk_ticks"),
        }
    }
}

/// What one running job's tick needs, kept from the event that opened
/// it to the next event that changes one of its inputs (see
/// `JobTable::sync_context`). Statistical efficiency is not an
/// invariant — it follows the job's own progress — but the job holds
/// it over sub-intervals of progress, so the context carries the step
/// under the current hold and the progress at which to ask again.
struct RunCtx {
    /// Index into `Simulation::jobs`.
    idx: usize,
    /// The job's `progress`, `examples_processed` and attained
    /// GPU-time. Advanced here and written back to the job at the end
    /// of every chunk, so boundary code reads the job as before.
    progress: f64,
    examples: f64,
    gputime: f64,
    /// Total work (examples at m0-efficiency) at which the job ends.
    work: f64,
    /// True throughput after interference (examples/s).
    throughput: f64,
    /// Per-tick progress increment under the φ the job holds
    /// (`throughput · efficiency · dt`).
    step: f64,
    /// The job's [`SimJob::hold_end`]: the progress at which `step`
    /// goes stale.
    refresh_at: f64,
    /// Per-tick raw-example increment (`throughput · dt`).
    tput_dt: f64,
    /// Iteration time the agent observes before measurement noise
    /// (`t_iter / (1 − slowdown)`; interference is indistinguishable
    /// from slowness to the agent).
    t_base: f64,
    /// GPU-seconds accrued per tick (`gpus · dt`).
    gpu_dt: f64,
    /// The interference slowdown the three fields above were derived
    /// from.
    slow: f64,
    /// Batch size in effect.
    batch: u64,
    /// Open profiler run for the job's `(shape, batch)` key, committed
    /// only when the profiler is about to be read or the key changes.
    obs: ObservationRun,
}

impl RunCtx {
    fn open(idx: usize, job: &mut SimJob, shape: PlacementShape, slow: f64, dt: f64) -> Self {
        let batch = job.batch_size;
        let t_iter = job.true_t_iter(shape, batch);
        let throughput = (batch as f64 / t_iter) * (1.0 - slow);
        let mut ctx = Self {
            idx,
            progress: job.progress,
            examples: job.examples_processed,
            gputime: job.lifecycle.gputime(),
            work: job.spec.work,
            throughput,
            step: 0.0,
            refresh_at: 0.0,
            tput_dt: throughput * dt,
            t_base: t_iter / (1.0 - slow),
            gpu_dt: shape.gpus as f64 * dt,
            slow,
            batch,
            obs: job.agent.begin_observation_run(shape, batch),
        };
        ctx.refresh_step(job, dt);
        ctx
    }

    /// Recomputes `step` from the φ `job` holds at the context's
    /// progress — the operands, in the order, of the reference
    /// stepper's per-tick `throughput * eff * dt`.
    #[cold]
    fn refresh_step(&mut self, job: &mut SimJob, dt: f64) {
        let eff = job.held_efficiency_at(self.progress, self.batch);
        self.step = self.throughput * eff * dt;
        self.refresh_at = job.hold_end();
    }
}

/// A job waiting out its restart delay: it only accrues GPU time.
struct RestartCtx {
    /// Index into `Simulation::jobs`.
    idx: usize,
    /// GPU-seconds accrued per tick (`gpus · dt`).
    gpu_dt: f64,
    /// When training resumes.
    until: f64,
}

struct ChunkOutcome {
    /// Ticks actually executed (≥ 1; short when a job finished).
    ticks: u64,
    /// Whether the simulation is over (no arrivals left, all jobs
    /// finished).
    exit: bool,
}

/// Makes `entry` the element at the position a binary search of the
/// sorted `list` returned: replaces or inserts `Some`, removes on
/// `None`.
fn put_sorted<T>(list: &mut Vec<T>, at: Result<usize, usize>, entry: Option<T>) {
    match (at, entry) {
        (Ok(k), Some(entry)) => list[k] = entry,
        (Err(k), Some(entry)) => list.insert(k, entry),
        (Ok(k), None) => {
            list.remove(k);
        }
        (Err(_), None) => {}
    }
}

/// Removes every finished index from `active` in one ordered merge.
/// Both lists are ascending (`active` by maintenance invariant,
/// `finished` because finishes are detected in ascending job order),
/// so a two-pointer sweep replaces the old O(active × finished)
/// `retain(.. any ..)` scan.
fn remove_finished_from_active(active: &mut Vec<usize>, finished: &[usize]) {
    debug_assert!(finished.windows(2).all(|w| w[0] < w[1]));
    let mut f = 0;
    active.retain(|&i| {
        while f < finished.len() && finished[f] < i {
            f += 1;
        }
        f >= finished.len() || finished[f] != i
    });
}

/// First tick index `t >= lo` whose wall-clock time `t · dt` is at or
/// after `time`. A float division seeds the guess and two integer
/// adjustment loops (at most a step or two each) make the answer exact
/// regardless of rounding in the division.
fn first_tick_at_or_after(time: f64, dt: f64, lo: u64) -> u64 {
    let guess = time / dt;
    if !guess.is_finite() || guess >= 9.0e18 {
        return u64::MAX; // Beyond any horizon; callers min() against max_ticks.
    }
    let mut t = guess.ceil().max(0.0) as u64;
    while t > 0 && (t - 1) as f64 * dt >= time {
        t -= 1;
    }
    while (t as f64) * dt < time {
        t += 1;
    }
    t.max(lo)
}

/// Why a [`Simulation`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBuildError {
    /// The [`SimConfig`] failed validation (a non-positive horizon, a
    /// negative restart delay, or a noise or slowdown fraction outside
    /// `[0, 1)`).
    InvalidConfig,
    /// The workload contains no submissions.
    EmptyWorkload,
    /// A submission's submit time is NaN or infinite, so it has no
    /// meaningful position in the arrival order.
    NonFiniteSubmitTime,
    /// Two submissions share this job id: a scheduling round could
    /// not tell them apart.
    DuplicateJobId(JobId),
}

impl std::fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig => write!(f, "invalid simulation config"),
            Self::EmptyWorkload => write!(f, "workload has no submissions"),
            Self::NonFiniteSubmitTime => write!(f, "submission with non-finite submit time"),
            Self::DuplicateJobId(id) => write!(f, "two submissions share job id {id}"),
        }
    }
}

impl std::error::Error for SimBuildError {}

impl<P: SchedulingPolicy> Simulation<P> {
    /// Creates a simulation. Returns `None` when [`Self::try_new`]
    /// would fail; kept as the concise constructor for tests and
    /// examples that don't care which input was bad.
    pub fn new(
        config: SimConfig,
        spec: ClusterSpec,
        policy: P,
        workload: Vec<Submission>,
    ) -> Option<Self> {
        Self::try_new(config, spec, policy, workload).ok()
    }

    /// Creates a simulation, reporting *why* the inputs were rejected.
    ///
    /// # Errors
    ///
    /// - [`SimBuildError::InvalidConfig`] when the config fails
    ///   validation;
    /// - [`SimBuildError::EmptyWorkload`] when no jobs are submitted;
    /// - [`SimBuildError::NonFiniteSubmitTime`] when a submit time is
    ///   NaN or infinite (the old `partial_cmp(..).unwrap_or(Equal)`
    ///   sort silently produced an arbitrary arrival order);
    /// - [`SimBuildError::DuplicateJobId`] when two submissions share
    ///   an id, which is what lets every round expect unique ids.
    pub fn try_new(
        config: SimConfig,
        spec: ClusterSpec,
        mut policy: P,
        mut workload: Vec<Submission>,
    ) -> Result<Self, SimBuildError> {
        let config = config.validated().ok_or(SimBuildError::InvalidConfig)?;
        if workload.is_empty() {
            return Err(SimBuildError::EmptyWorkload);
        }
        if workload.iter().any(|(s, _)| !s.submit_time.is_finite()) {
            return Err(SimBuildError::NonFiniteSubmitTime);
        }
        let mut ids = HashSet::new();
        if let Some((twin, _)) = workload.iter().find(|(s, _)| !ids.insert(s.id)) {
            return Err(SimBuildError::DuplicateJobId(twin.id));
        }
        if let Some(topo) = Topology::grouped(spec.num_nodes() as u32, config.nodes_per_rack) {
            policy.configure_topology(Some(&topo));
        }
        workload.sort_by(|a, b| a.0.submit_time.total_cmp(&b.0.submit_time));
        workload.reverse(); // Pop from the back in time order.
        let table = JobTable {
            interference: InterferenceIndex::new(spec.num_nodes()),
            contexts_live: true,
            nodes_per_rack: config.nodes_per_rack,
            ..JobTable::default()
        };
        Ok(Self {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            spec,
            policy,
            planner: RoundPlanner::new(),
            arrivals: workload,
            table,
            series: Vec::new(),
            node_seconds: 0.0,
            recorder: Recorder::disabled(),
            telem: EngineTelemetry::default(),
        })
    }

    /// Attaches a telemetry recorder to the simulation and its policy.
    ///
    /// Recording is observational only: it never draws from the
    /// simulation RNG or perturbs any f64 accumulation, so the
    /// resulting `SimResult` is bit-identical with or without a
    /// recorder (pinned by the golden-digest suite in
    /// `tests/macro_step.rs`).
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.telem = EngineTelemetry::new(&recorder);
        self.table.ctx_rebuilds = recorder.counter("engine", "ctx_rebuilds");
        self.table.profiler_flushes = recorder.counter("engine", "profiler_flushes");
        // Identify the policy in the capture so reports and Chrome
        // traces from different zoo runs are self-describing; staged
        // policies additionally emit their per-stage names from
        // `attach_telemetry`.
        recorder.meta("sched", "policy", self.policy.name());
        self.policy.attach_telemetry(recorder.clone());
        self.planner.attach_telemetry(recorder.clone());
        // Topology metadata for trace consumers (the Chrome exporter
        // groups node tracks by rack from this point).
        recorder.point(
            "engine",
            "topology",
            0.0,
            &[
                ("num_nodes", self.spec.num_nodes() as f64),
                ("nodes_per_rack", f64::from(self.config.nodes_per_rack)),
            ],
        );
        self.recorder = recorder;
        self
    }

    /// Runs the simulation to completion (all jobs finished) or to the
    /// configured time horizon, and returns the metrics.
    ///
    /// Boundary work (arrivals, wake-ups, reports, scheduling) happens
    /// at event horizons; the ticks in between run through
    /// `Self::advance_chunk` over the persistent run contexts.
    /// Bit-identical to [`Self::run_reference`] for any fixed seed.
    pub fn run(mut self) -> SimResult {
        let dt = TICK_SECONDS;
        let max_ticks = (self.config.max_sim_time / dt).ceil() as u64;

        let mut now = 0.0;
        let mut tick = 0u64;
        while tick < max_ticks {
            now = tick as f64 * dt;
            self.tick_boundaries(tick, now);
            let horizon = self.next_horizon(tick, max_ticks);
            let chunk = self.advance_chunk(tick, horizon);
            tick += chunk.ticks;
            now = (tick - 1) as f64 * dt;
            if chunk.exit {
                now += dt;
                break;
            }
        }

        self.sample(now);
        self.finalize(now)
    }

    /// Everything that may only happen on a tick boundary: arrivals,
    /// restart wake-ups, agent reports, rescheduling, sampling. Safe
    /// to call on non-boundary ticks (each action no-ops when not
    /// due), which is what makes resuming after a chunk that a finish
    /// ended early trivial.
    fn tick_boundaries(&mut self, tick: u64, now: f64) {
        self.spawn_arrivals(now);
        self.table.wake_restarts(now);

        if tick.is_multiple_of(REPORT_EVERY) {
            self.report_and_tune();
        }
        if tick.is_multiple_of(SCHED_EVERY) {
            self.reschedule(now);
            self.sample(now);
        }
    }

    /// The next event horizon after `tick` (exclusive chunk end, in
    /// `(tick, max_ticks]`): the earliest of the next report tick,
    /// next scheduling tick, next arrival, next restart-delay expiry,
    /// and the end of simulated time. Job completions are detected
    /// per tick by the chunk itself ([`Self::advance_chunk`]).
    ///
    /// Telemetry: bumps the `engine/horizon_*` counter of whichever
    /// source won (strictly earliest; ties go to the first candidate
    /// in end → report → sched → arrival → restart order). Counter
    /// handles use interior mutability, so `&self` suffices.
    fn next_horizon(&self, tick: u64, max_ticks: u64) -> u64 {
        let dt = TICK_SECONDS;
        let mut horizon = max_ticks;
        let mut fired = &self.telem.horizon_end;
        let report = (tick / REPORT_EVERY + 1) * REPORT_EVERY;
        if report < horizon {
            horizon = report;
            fired = &self.telem.horizon_report;
        }
        let sched = (tick / SCHED_EVERY + 1) * SCHED_EVERY;
        if sched < horizon {
            horizon = sched;
            fired = &self.telem.horizon_sched;
        }
        if let Some((spec, _)) = self.arrivals.last() {
            let arrival = first_tick_at_or_after(spec.submit_time, dt, tick + 1);
            if arrival < horizon {
                horizon = arrival;
                fired = &self.telem.horizon_arrival;
            }
        }
        for r in &self.table.restarting {
            let wake = first_tick_at_or_after(r.until, dt, tick + 1);
            if wake < horizon {
                horizon = wake;
                fired = &self.telem.horizon_restart;
            }
        }
        fired.add(1);
        horizon.max(tick + 1)
    }

    /// Recomputes the per-job interference slowdowns if the
    /// [`InterferenceIndex`] changed since the last chunk, and reopens
    /// the contexts whose slowdown moved: when two or more
    /// *distributed* jobs occupy one node, all of them are slowed
    /// (Sec. 4.2.1 / Fig 9). O(nodes + occupancy) from the index;
    /// [`Self::assert_contexts_current`] cross-checks the outcome
    /// against the full rescan in debug builds.
    fn refresh_slowdowns(&mut self) {
        let factor = self.config.interference_slowdown;
        let t = &mut self.table;
        if !t.slowdowns_stale || factor <= 0.0 {
            return;
        }
        t.slowdowns_stale = false;
        self.telem.interference_recomputes.add(1);
        t.slowdown.clear();
        t.slowdown.resize(t.jobs.len(), 0.0);
        t.interference.mark_slowdowns(factor, &mut t.slowdown);
        for k in 0..t.running.len() {
            let i = t.running[k].idx;
            if t.running[k].slow != t.slowdown[i] {
                t.sync_context(i);
            }
        }
    }

    /// Debug builds check, at the start of every chunk, that the
    /// contexts are what a scan of the jobs (and, for the slowdowns,
    /// of every placement) would build: a missed invalidation fails
    /// here, at the event that caused it, instead of as a digest
    /// mismatch at the end of a run.
    fn assert_contexts_current(&self) {
        let slowdown = self.interference_slowdowns_reference();
        let t = &self.table;
        let mut running = t.running.iter();
        let mut restarting = t.restarting.iter();
        for &i in &t.active {
            let job = &t.jobs[i];
            match job.state() {
                JobState::Running => {
                    let ctx = running.next().expect("running job without a context");
                    assert_eq!(ctx.idx, i, "contexts follow job order");
                    assert_eq!(Some(ctx.obs.shape()), job.shape());
                    assert_eq!(ctx.batch, job.batch_size);
                    assert_eq!(ctx.slow, slowdown[i]);
                    assert_eq!(ctx.progress.to_bits(), job.progress.to_bits());
                    assert_eq!(ctx.examples.to_bits(), job.examples_processed.to_bits());
                    assert_eq!(ctx.gputime.to_bits(), job.gputime().to_bits());
                    assert_eq!(ctx.refresh_at.to_bits(), job.hold_end().to_bits());
                }
                JobState::Restarting { until } => {
                    let ctx = restarting.next().expect("restarting job without an entry");
                    assert_eq!((ctx.idx, ctx.until), (i, until));
                    assert_eq!(ctx.gpu_dt, job.gpus() as f64 * TICK_SECONDS);
                }
                _ => {}
            }
        }
        assert!(
            running.next().is_none(),
            "context of a job that is not running"
        );
        assert!(
            restarting.next().is_none(),
            "entry of a job that is not restarting"
        );
    }

    /// Advances up to `horizon - start` ticks, one tick-major sweep
    /// over the run contexts per tick, and ends after the tick in
    /// which a job finishes. Per-chunk work is O(running jobs): the
    /// contexts are already current, so nothing here walks `active`,
    /// `jobs` or the nodes.
    ///
    /// Bit-compatibility with the reference stepper:
    /// - RNG: exactly one `gen_range(-noise..=noise)` per running job,
    ///   in ascending job order, per tick — nothing else draws inside
    ///   a chunk;
    /// - f64 accumulation: `progress`, `examples_processed`, `gputime`,
    ///   `node_seconds` and the profiler sum advance by one addition
    ///   per tick in the original order; the cached products
    ///   (`gpus · dt`, `throughput · dt`, `t_iter / (1 − slow)`,
    ///   `throughput · efficiency · dt`) have bit-identical operands to
    ///   the per-tick recomputation, and the efficiency is refreshed on
    ///   the comparison the reference makes every tick;
    /// - a context's accumulators start from the job's own values and
    ///   are written back absolutely, and an open profiler run starts
    ///   from the profiler's own aggregate and is written back
    ///   absolutely, so when either is committed cannot matter.
    fn advance_chunk(&mut self, start: u64, horizon: u64) -> ChunkOutcome {
        let dt = TICK_SECONDS;
        self.refresh_slowdowns();
        if cfg!(debug_assertions) {
            self.assert_contexts_current();
        }
        let noise = self.config.measurement_noise;
        let node_dt = self.spec.num_nodes() as f64 * dt;
        let max_len = horizon - start;
        let t = &mut self.table;

        let mut executed = 0u64;
        let mut any_finished = false;
        while executed < max_len && !any_finished {
            executed += 1;
            for ctx in &mut t.running {
                if ctx.progress >= ctx.refresh_at {
                    ctx.refresh_step(&mut t.jobs[ctx.idx], dt);
                }
                debug_assert!(
                    ctx.step >= 0.0,
                    "efficiency and throughput are never negative"
                );
                ctx.progress += ctx.step;
                ctx.examples += ctx.tput_dt;
                ctx.gputime += ctx.gpu_dt;

                // The agent observes a noisy iteration time (including
                // any interference slowdown, which it cannot
                // distinguish).
                let eps: f64 = self.rng.gen_range(-noise..=noise);
                ctx.obs.observe(ctx.t_base * (1.0 + eps));

                any_finished |= ctx.progress >= ctx.work;
            }
            self.node_seconds += node_dt;
        }

        for ctx in &t.running {
            let job = &mut t.jobs[ctx.idx];
            job.progress = ctx.progress;
            job.examples_processed = ctx.examples;
            job.lifecycle.set_gputime(ctx.gputime);
        }
        for r in &t.restarting {
            let lifecycle = &mut t.jobs[r.idx].lifecycle;
            for _ in 0..executed {
                lifecycle.accrue_gputime(r.gpu_dt);
            }
        }

        let mut exit = false;
        if any_finished {
            let finish_time = (start + executed - 1) as f64 * dt + dt;
            let finished: Vec<usize> = t
                .running
                .iter()
                .filter(|ctx| ctx.progress >= ctx.work)
                .map(|ctx| ctx.idx)
                .collect();
            for &i in &finished {
                let job = &mut t.jobs[i];
                job.lifecycle.finish(finish_time);
                t.interference.clear_job(i, job.placement());
                job.edit_placement(|row| row.fill(0));
                // Commits the job's profiler run (the reference
                // stepper records up to and including the finish tick
                // too) and drops its context.
                t.sync_context(i);
            }
            t.slowdowns_stale = true;
            remove_finished_from_active(&mut t.active, &finished);
            exit = self.arrivals.is_empty() && t.active.is_empty();
        }

        self.telem.chunks.add(1);
        self.telem.ticks.add(executed);
        self.telem.chunk_ticks.observe(executed);
        if executed < max_len {
            self.telem.mid_chunk_aborts.add(1);
        }

        ChunkOutcome {
            ticks: executed,
            exit,
        }
    }

    /// Moves due arrivals into the active job set.
    fn spawn_arrivals(&mut self, now: f64) {
        while let Some((spec, _)) = self.arrivals.last() {
            if spec.submit_time <= now {
                let (spec, user) = self.arrivals.pop().expect("checked non-empty");
                let t = &mut self.table;
                t.active.push(t.jobs.len());
                t.interference.push_job(); // Spawns with no placement.
                let mut job = SimJob::new(spec, user, self.spec.num_nodes());
                if self.recorder.is_enabled() {
                    // The job's lifecycle emits its own transitions
                    // from here on; the arrival instant carries the
                    // submit time, not the chunk boundary.
                    let id = u64::from(job.spec.id.0);
                    job.lifecycle.attach_telemetry(id, self.recorder.clone());
                    self.recorder.timeline(
                        "lifecycle",
                        "arrival",
                        job.spec.submit_time,
                        id,
                        &[],
                        &[],
                    );
                }
                self.table.jobs.push(job);
            } else {
                break;
            }
        }
    }

    /// Agent reporting interval: refresh gradient statistics, refit
    /// θsys when the profile gained information, and re-tune batch
    /// sizes for batch-adaptive policies.
    ///
    /// One serial pass over the running jobs in ascending order —
    /// the order of the φ-noise draws: observe the noisy gradient
    /// statistics, refit when the trigger fires, then tune (or ask the
    /// policy for) the batch size against the state just installed.
    ///
    /// The `engine/report_round` span opens at the round's first refit
    /// and closes at its end, so it encloses every `agent/refit` span
    /// of the round and rounds without a refit emit nothing: a span per
    /// round would be tens of thousands of events per simulated week
    /// for rounds that do next to no work.
    ///
    /// The round reads every running job's profiler, so the open runs
    /// are committed first; a job whose batch size the round changed
    /// gets its context reopened under the new `(shape, batch)` key.
    fn report_and_tune(&mut self) {
        let t = &mut self.table;
        t.flush_runs();
        let adapt = self.policy.adapts_batch_size();
        let mut round_span = None;
        let mut rekeyed = Vec::new();
        for &i in &t.active {
            let job = &mut t.jobs[i];
            if !job.is_running() {
                continue;
            }
            // Noisy measurement of the true noise scale, fed to the
            // agent in (variance, |grad|²) form.
            let eps: f64 = self.rng.gen_range(-PHI_NOISE..=PHI_NOISE);
            let phi_obs = (job.true_phi() * (1.0 + eps)).max(0.0);
            if let Some(stats) = GradientStats::new(phi_obs / job.profile.m0 as f64, 1.0) {
                job.agent.observe_gradient_stats(stats);
            }

            // Refit only when the profiler actually learned something
            // substantial, keeping the simulation fast without changing
            // fidelity: between refits the fitted θsys is simply
            // unchanged, which matches a real PolluxAgent whose fit has
            // converged. Batch-size re-tuning adds a new configuration
            // almost every report, so config-triggered refits back off
            // geometrically after the exploration phase.
            let configs = job.agent.profiler().num_configurations();
            let samples = job.agent.profiler().num_samples();
            let config_trigger = configs > job.last_fit_configs
                && (job.last_fit_configs < 8 || configs >= 2 * job.last_fit_configs);
            let sample_trigger = samples >= 4 * job.last_fit_samples.max(1);
            if configs > 0 && (config_trigger || sample_trigger) {
                round_span.get_or_insert_with(|| self.recorder.span("engine", "report_round"));
                if job.agent.refit_recorded(&self.recorder) {
                    job.last_fit_configs = configs;
                    job.last_fit_samples = samples;
                }
            }

            let batch_before = job.batch_size;
            if adapt {
                if let Some(d) = job.shape().and_then(|shape| job.agent.tune(shape)) {
                    job.batch_size = d.batch_size;
                }
            } else if let Some(m) = self.policy.choose_batch_size(&job.policy_view()) {
                if let Some(shape) = job.shape() {
                    if let Some((lo, hi)) = job.profile.limits.range(shape) {
                        job.batch_size = m.clamp(lo, hi);
                    }
                }
            }
            if job.batch_size != batch_before {
                rekeyed.push(i);
            }
        }
        for i in rekeyed {
            t.sync_context(i);
        }
    }

    /// Scheduling interval: the shared control-plane round over the
    /// engine's [`JobTable`]. The decision audit it emits is
    /// observational — nothing in it feeds back into scheduling or the
    /// digested `SimResult`.
    fn reschedule(&mut self, now: f64) {
        let _span = self.recorder.span("engine", "reschedule");
        let delay = self.config.restart_delay;
        self.planner
            .round(
                &mut self.policy,
                &mut self.table,
                &mut self.spec,
                now,
                delay,
                &mut self.rng,
            )
            .expect("try_new rejects duplicate job ids");
    }

    /// Records one cluster-state sample.
    fn sample(&mut self, now: f64) {
        let mut used = 0u32;
        let mut running = 0u32;
        let mut pending = 0u32;
        let mut eff_sum = 0.0;
        let mut tput = 0.0;
        let mut goodput = 0.0;
        for &i in &self.table.active {
            let job = &self.table.jobs[i];
            match job.state() {
                JobState::Running | JobState::Restarting { .. } => {
                    used += job.gpus();
                }
                _ => {}
            }
            match job.state() {
                JobState::Running => {
                    running += 1;
                    if let Some(shape) = job.shape() {
                        let e = job.true_efficiency(job.batch_size);
                        let t = job.true_throughput(shape, job.batch_size);
                        eff_sum += e;
                        tput += t;
                        goodput += t * e;
                    }
                }
                JobState::Pending => pending += 1,
                _ => {}
            }
        }
        let mean_efficiency = if running > 0 {
            eff_sum / running as f64
        } else {
            0.0
        };
        self.series.push(ClusterSample {
            time: now,
            nodes: self.spec.num_nodes() as u32,
            total_gpus: self.spec.total_gpus(),
            used_gpus: used,
            running_jobs: running,
            pending_jobs: pending,
            mean_efficiency,
            total_throughput: tput,
            total_goodput: goodput,
        });
        // The per-interval cluster time-series: values copied from the
        // sample just recorded, never computed differently for
        // telemetry (determinism contract).
        self.recorder.point(
            "engine",
            "cluster_sample",
            now,
            &[
                ("goodput", goodput),
                ("throughput", tput),
                ("mean_efficiency", mean_efficiency),
                ("used_gpus", used as f64),
                ("total_gpus", self.spec.total_gpus() as f64),
                ("running_jobs", running as f64),
                ("pending_jobs", pending as f64),
                ("restarts", self.table.restarts_total as f64),
            ],
        );
    }

    /// Builds the final result. Flushes the recorder first so counter
    /// and histogram snapshots land in the capture.
    fn finalize(self, end_time: f64) -> SimResult {
        self.recorder.flush();
        let records = self
            .table
            .jobs
            .iter()
            .map(|job| JobRecord {
                id: job.spec.id,
                kind: job.spec.kind,
                submit_time: job.spec.submit_time,
                start_time: job.start_time(),
                finish_time: job.lifecycle.finish_time(),
                gputime: job.gputime(),
                num_restarts: job.num_restarts(),
                examples_processed: job.examples_processed,
                useful_examples: job.progress,
            })
            .collect();
        SimResult {
            policy: self.policy.name().to_string(),
            records,
            series: self.series,
            end_time,
            node_seconds: self.node_seconds,
        }
    }
}

impl JobTable {
    /// Brings job `i`'s context in line with the job: the one place
    /// contexts are opened, reopened and dropped. Every event that
    /// changes an input of a context calls it after the change — a
    /// round's resize and apply (shape, state), the report round
    /// (batch size), `wake_restarts` (Restarting → Running), a finish,
    /// and `refresh_slowdowns` (slowdown). A running job's open
    /// profiler run is committed first, since its `(shape, batch)` key
    /// may be about to change.
    fn sync_context(&mut self, i: usize) {
        if !self.contexts_live {
            return;
        }
        let dt = TICK_SECONDS;
        let job = &mut self.jobs[i];

        let at = self.running.binary_search_by_key(&i, |c| c.idx);
        if let Ok(k) = at {
            if job.agent.record_observation_run(&mut self.running[k].obs) {
                self.profiler_flushes.add(1);
            }
        }
        let shape = if job.is_running() { job.shape() } else { None };
        debug_assert_eq!(shape.is_some(), job.is_running(), "running jobs hold GPUs");
        let ctx = shape.map(|shape| {
            let slow = self.slowdown.get(i).copied().unwrap_or(0.0);
            self.ctx_rebuilds.add(1);
            RunCtx::open(i, job, shape, slow, dt)
        });
        put_sorted(&mut self.running, at, ctx);

        let at = self.restarting.binary_search_by_key(&i, |r| r.idx);
        let entry = match job.state() {
            JobState::Restarting { until } => Some(RestartCtx {
                idx: i,
                gpu_dt: job.gpus() as f64 * dt,
                until,
            }),
            _ => None,
        };
        put_sorted(&mut self.restarting, at, entry);
    }

    /// Commits every open profiler run that holds new samples. Called
    /// before the report round reads the profilers.
    fn flush_runs(&mut self) {
        let mut flushed = 0;
        for ctx in &mut self.running {
            let agent = &mut self.jobs[ctx.idx].agent;
            flushed += u64::from(agent.record_observation_run(&mut ctx.obs));
        }
        self.profiler_flushes.add(flushed);
    }

    /// Wakes jobs whose restart delay elapsed, in ascending job order.
    fn wake_restarts(&mut self, now: f64) {
        if !self.contexts_live {
            for &i in &self.active {
                self.jobs[i].lifecycle.wake(now);
            }
            return;
        }
        let mut k = 0;
        while k < self.restarting.len() {
            let i = self.restarting[k].idx;
            if self.jobs[i].lifecycle.wake(now) {
                // Drops entry `k` and opens the job's run context.
                self.sync_context(i);
            } else {
                k += 1;
            }
        }
    }
}

/// What a scheduling round does to the engine's jobs beyond the
/// round's own rules: keep the interference index and the run
/// contexts current, clamp a re-placed job's batch size, count
/// restarts. Rows are the active jobs, in ascending job order.
impl JobStore for JobTable {
    fn views(&self) -> Vec<PolicyJobView<'_>> {
        self.active
            .iter()
            .map(|&i| self.jobs[i].policy_view())
            .collect()
    }

    fn resize(
        &mut self,
        spec: &ClusterSpec,
        mut fit: impl FnMut(JobMut<'_>) -> bool,
    ) -> Option<Topology> {
        for i in 0..self.jobs.len() {
            if self.jobs[i].edit(&mut fit) {
                self.sync_context(i);
            }
        }
        // Placements were edited wholesale, bypassing the index's
        // delta updates: rebuild it from the rows now in effect.
        let nodes = spec.num_nodes();
        self.interference
            .rebuild(nodes, self.jobs.iter().map(|j| j.placement()));
        self.slowdowns_stale = true;
        Topology::grouped(nodes as u32, self.nodes_per_rack)
    }

    fn apply(&mut self, r: &Reallocation, rule: impl FnOnce(JobMut<'_>)) {
        let i = self.active[r.row];
        // Index delta from the authoritative old row, before it is
        // overwritten.
        self.interference.apply(i, self.jobs[i].placement(), &r.new);
        self.slowdowns_stale = true;
        let job = &mut self.jobs[i];
        debug_assert_eq!(job.spec.id, r.job, "view order matches active order");
        job.edit(rule);
        // A batch tuned for many GPUs may not fit on few: clamp it into
        // the new placement's range.
        if let Some((lo, hi)) = job.shape().and_then(|s| job.profile.limits.range(s)) {
            job.batch_size = job.batch_size.clamp(lo, hi);
        }
        self.restarts_total += u64::from(r.triggers_restart);
        self.sync_context(i);
    }

    fn co_residents(&self, row: usize) -> Vec<u64> {
        let sharers = self.interference.co_residents(self.active[row]);
        sharers
            .into_iter()
            .map(|i| u64::from(self.jobs[i as usize].spec.id.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::AllocationMatrix;
    use pollux_workload::{ModelKind, TraceConfig, TraceGenerator};

    /// A trivial policy: every active job gets `gpus` GPUs packed onto
    /// the fewest nodes, first-come-first-served.
    struct FcfsPacked {
        gpus: u32,
    }

    impl SchedulingPolicy for FcfsPacked {
        fn name(&self) -> &'static str {
            "fcfs-packed"
        }

        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[PolicyJobView<'_>],
            spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();
            let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
            for (j, view) in jobs.iter().enumerate() {
                // Keep an existing placement untouched.
                if view.is_running() {
                    for (n, &g) in view.current_placement.iter().enumerate() {
                        m.set(j, n, g);
                        free[n] = free[n].saturating_sub(g);
                    }
                    continue;
                }
                let mut need = self.gpus;
                for (n, f) in free.iter_mut().enumerate() {
                    if need == 0 {
                        break;
                    }
                    let take = need.min(*f);
                    if take > 0 {
                        m.set(j, n, take);
                        *f -= take;
                        need -= take;
                    }
                }
                if need > 0 {
                    // Could not fully place: back out.
                    for (n, f) in free.iter_mut().enumerate() {
                        *f += m.get(j, n);
                        m.set(j, n, 0);
                    }
                }
            }
            m
        }
    }

    fn small_workload(n: usize) -> Vec<Submission> {
        let trace = TraceGenerator::new(TraceConfig {
            num_jobs: 40,
            seed: 3,
            ..Default::default()
        })
        .unwrap()
        .generate();
        trace
            .into_iter()
            .filter(|j| j.kind == ModelKind::ResNet18Cifar10 || j.kind == ModelKind::NeuMFMovieLens)
            .take(n)
            .enumerate()
            .map(|(i, mut spec)| {
                spec.id = JobId(i as u32);
                spec.submit_time = i as f64 * 30.0;
                let user = spec.tuned;
                (spec, user)
            })
            .collect()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            max_sim_time: 12.0 * 3600.0,
            ..Default::default()
        }
    }

    #[test]
    fn rejects_empty_workload() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        assert!(Simulation::new(quick_config(), spec, FcfsPacked { gpus: 1 }, vec![]).is_none());
    }

    /// A policy's worker count is its own (Pollux: the host's cores on
    /// a racked cluster, capped by `configure_parallelism`): the engine
    /// hands a policy its topology and its recorder, never a thread
    /// count that would overwrite it.
    #[test]
    fn construction_leaves_policy_parallelism_alone() {
        struct Configured {
            threads: usize,
        }
        impl SchedulingPolicy for Configured {
            fn name(&self) -> &'static str {
                "configured"
            }
            fn schedule(
                &mut self,
                _now: f64,
                jobs: &[PolicyJobView<'_>],
                spec: &ClusterSpec,
                _rng: &mut StdRng,
            ) -> AllocationMatrix {
                AllocationMatrix::zeros(jobs.len(), spec.num_nodes())
            }
            fn configure_parallelism(&mut self, threads: usize) {
                self.threads = threads;
            }
        }
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let policy = Configured { threads: 4 };
        let sim = Simulation::new(quick_config(), spec, policy, small_workload(2)).unwrap();
        assert_eq!(sim.policy.threads, 4);
    }

    #[test]
    fn rejects_non_finite_submit_times() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut wl = small_workload(3);
            wl[1].0.submit_time = bad;
            assert!(
                Simulation::new(quick_config(), spec.clone(), FcfsPacked { gpus: 1 }, wl).is_none(),
                "submit_time {bad} must be rejected"
            );
        }
        // Negative-but-finite submit times stay legal (spawn at t=0).
        let mut wl = small_workload(3);
        wl[1].0.submit_time = -5.0;
        assert!(Simulation::new(quick_config(), spec, FcfsPacked { gpus: 1 }, wl).is_some());
    }

    #[test]
    fn tick_search_is_exact() {
        for (time, dt, lo, want) in [
            (0.0, 1.0, 1, 1),
            (29.5, 1.0, 1, 30),
            (30.0, 1.0, 1, 30),
            (30.0, 1.0, 31, 31),
            (-4.0, 1.0, 1, 1),
            (0.3, 0.1, 1, 3),
            (1.0e30, 1.0, 1, u64::MAX),
        ] {
            assert_eq!(
                first_tick_at_or_after(time, dt, lo),
                want,
                "time {time} dt {dt} lo {lo}"
            );
        }
        // Exactness against accumulated float error: the first tick at
        // or after k·dt must be exactly k for awkward dt values.
        let dt = 0.1;
        for k in [3u64, 7, 10, 1000, 999_983] {
            let t = first_tick_at_or_after(k as f64 * dt, dt, 1);
            assert_eq!(t, t.max(1));
            assert!((t as f64) * dt >= k as f64 * dt);
            assert!(t == 0 || ((t - 1) as f64) * dt < k as f64 * dt);
        }
    }

    #[test]
    fn all_small_jobs_finish() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let wl = small_workload(6);
        assert_eq!(wl.len(), 6);
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 2 }, wl).unwrap();
        let res = sim.run();
        assert_eq!(res.records.len(), 6);
        assert_eq!(res.unfinished(), 0, "records: {:#?}", res.records);
        for r in &res.records {
            let jct = r.jct().unwrap();
            assert!(jct > 0.0 && jct < 12.0 * 3600.0);
            assert!(r.gputime > 0.0);
            assert!(r.examples_processed >= r.useful_examples);
        }
        assert!(res.avg_jct().unwrap() > 0.0);
        assert!(res.makespan() > 0.0);
        assert!(res.node_seconds > 0.0);
    }

    #[test]
    fn no_oversubscription_in_series() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let wl = small_workload(8);
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 2 }, wl).unwrap();
        let res = sim.run();
        for s in &res.series {
            assert!(s.used_gpus <= s.total_gpus, "{s:?}");
            assert!(s.mean_efficiency >= 0.0 && s.mean_efficiency <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        // 1 node x 4 GPUs, 4 jobs needing 4 GPUs each: they must run
        // mostly sequentially, so later JCTs exceed earlier ones.
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut wl = small_workload(4);
        for (s, _) in wl.iter_mut() {
            s.submit_time = 0.0;
        }
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 4 }, wl).unwrap();
        let res = sim.run();
        assert_eq!(res.unfinished(), 0);
        let mut jcts: Vec<f64> = res.records.iter().map(|r| r.jct().unwrap()).collect();
        let max = jcts.iter().cloned().fold(0.0, f64::max);
        jcts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // The last job's JCT is at least ~2x the first one's.
        assert!(max > 2.0 * jcts[0], "jcts: {jcts:?}");
    }

    #[test]
    fn agents_learn_during_simulation() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let wl = small_workload(2);
        let sim = Simulation::new(quick_config(), spec, FcfsPacked { gpus: 2 }, wl).unwrap();
        // Drive manually to inspect the job state: run and check records
        // got gputime; agent internals are covered by unit tests.
        let res = sim.run();
        assert!(res.records.iter().all(|r| r.gputime > 0.0));
        // Efficiency below 1 because tuned batches exceed m0.
        let eff = res.avg_cluster_efficiency().unwrap();
        assert!(eff > 0.3 && eff <= 1.0, "eff = {eff}");
    }

    /// An arrival is a chunk boundary that reads no profiler, so the
    /// open run must cross it uncommitted — and still end with the
    /// bits per-sample `record` produces (the reference stepper).
    #[test]
    fn open_run_crosses_an_arrival_boundary_uncommitted() {
        let sim = || {
            let mut wl = small_workload(2);
            wl[1].0.submit_time = 7.0;
            // One node, four GPUs, four asked: the second job waits.
            let spec = ClusterSpec::homogeneous(1, 4).unwrap();
            Simulation::new(quick_config(), spec, FcfsPacked { gpus: 4 }, wl).unwrap()
        };
        let mut stepped = sim();
        stepped.tick_boundaries(0, 0.0);
        assert_eq!(stepped.next_horizon(0, 1000), 7);
        assert_eq!(stepped.advance_chunk(0, 7).ticks, 7);
        stepped.tick_boundaries(7, 7.0);
        assert_eq!(stepped.table.jobs.len(), 2, "the arrival was a boundary");
        assert_eq!(stepped.advance_chunk(7, 20).ticks, 13);
        let run = &stepped.table.running[0].obs;
        assert_eq!(run.accepted(), 20, "no boundary so far reads the profiler");
        assert_eq!(stepped.table.jobs[0].agent.profiler().num_samples(), 0);
        stepped.table.flush_runs();

        let mut reference = sim();
        reference.table.contexts_live = false;
        for tick in 0..20 {
            let now = tick as f64 * TICK_SECONDS;
            reference.tick_boundaries(tick, now);
            reference.advance_tick_reference(now);
        }

        let (batched, per_sample) = (
            stepped.table.jobs[0].agent.profiler(),
            reference.table.jobs[0].agent.profiler(),
        );
        assert_eq!(per_sample.num_samples(), 20);
        assert_eq!(batched, per_sample);
        let mean = |p: &pollux_agent::ThroughputProfiler| p.observations()[0].t_iter.to_bits();
        assert_eq!(mean(batched), mean(per_sample));
    }

    /// Whatever reopens a context — a changed slowdown, batch size or
    /// shape — may do so in the middle of a hold. The hold is the
    /// job's, so the reopened context steps on with the bits of one
    /// that was never touched (the reference stepper has no contexts
    /// to reopen, and the two must not part here).
    #[test]
    fn reopening_a_context_mid_hold_changes_no_bit() {
        let sim = || {
            let mut wl = small_workload(1);
            wl[0].0.work *= 100.0; // Holds of hundreds of ticks.
            let spec = ClusterSpec::homogeneous(1, 4).unwrap();
            Simulation::new(quick_config(), spec, FcfsPacked { gpus: 4 }, wl).unwrap()
        };
        let (mut kept, mut reopened) = (sim(), sim());
        for s in [&mut kept, &mut reopened] {
            s.tick_boundaries(0, 0.0);
            s.advance_chunk(0, 7);
        }
        let job = &kept.table.jobs[0];
        let step = kept.table.running[0].step;
        assert!(0.0 < job.progress && job.progress + 20.0 * step < job.hold_end());

        reopened.table.sync_context(0);
        for s in [&mut kept, &mut reopened] {
            s.advance_chunk(7, 25);
        }
        let (a, b) = (&kept.table.jobs[0], &reopened.table.jobs[0]);
        assert_eq!(a.progress.to_bits(), b.progress.to_bits());
        assert_eq!(a.hold_end().to_bits(), b.hold_end().to_bits());
        assert_eq!(
            kept.table.running[0].step.to_bits(),
            reopened.table.running[0].step.to_bits()
        );
    }

    /// Policy that re-places every job on alternating nodes each
    /// interval, to exercise restart accounting.
    struct Shuffler;
    impl SchedulingPolicy for Shuffler {
        fn name(&self) -> &'static str {
            "shuffler"
        }
        fn schedule(
            &mut self,
            now: f64,
            jobs: &[PolicyJobView<'_>],
            spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
            let phase = ((now / 60.0) as usize) % spec.num_nodes();
            for j in 0..jobs.len().min(1) {
                m.set(j, phase, 1);
            }
            m
        }
    }

    #[test]
    fn restarts_are_counted_and_slow_jobs_down() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let wl = small_workload(1);
        let sim = Simulation::new(quick_config(), spec, Shuffler, wl.clone()).unwrap();
        let res = sim.run();
        let r = &res.records[0];
        assert!(r.num_restarts > 2, "restarts = {}", r.num_restarts);

        // The same job without shuffling finishes faster.
        let sim2 =
            Simulation::new(quick_config(), spec_clone(), FcfsPacked { gpus: 1 }, wl).unwrap();
        let res2 = sim2.run();
        assert!(
            res2.records[0].jct().unwrap() < r.jct().unwrap(),
            "stable {:?} vs shuffled {:?}",
            res2.records[0].jct(),
            r.jct()
        );

        fn spec_clone() -> ClusterSpec {
            ClusterSpec::homogeneous(2, 4).unwrap()
        }
    }

    /// Policy pinning two distributed jobs onto overlapping nodes, to
    /// exercise interference injection.
    struct Overlapper;
    impl SchedulingPolicy for Overlapper {
        fn name(&self) -> &'static str {
            "overlapper"
        }
        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[PolicyJobView<'_>],
            spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            let mut m = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
            for j in 0..jobs.len().min(2) {
                // Both jobs span nodes 0 and 1.
                m.set(j, 0, 1);
                m.set(j, 1, 1);
            }
            m
        }
    }

    #[test]
    fn interference_slows_overlapping_distributed_jobs() {
        let wl = small_workload(2);
        let mut cfg = quick_config();
        cfg.interference_slowdown = 0.5;
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let slow = Simulation::new(cfg, spec.clone(), Overlapper, wl.clone())
            .unwrap()
            .run();
        let mut cfg2 = quick_config();
        cfg2.interference_slowdown = 0.0;
        let fast = Simulation::new(cfg2, spec, Overlapper, wl).unwrap().run();
        let s = slow.avg_jct().unwrap();
        let f = fast.avg_jct().unwrap();
        // A 50% slowdown must cost well over 20% end-to-end (it is
        // diluted by solo-running and restart phases).
        assert!(s > 1.2 * f, "interfered {s} vs clean {f}");
    }
}
