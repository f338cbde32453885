//! A live cluster-service embedding of Pollux (Sec. 4.3).
//!
//! The paper deploys `PolluxSched` as a long-running service (in
//! Kubernetes) and `PolluxAgent` as a library linked into each training
//! job. This module provides the equivalent embeddable control plane:
//!
//! - [`ClusterService`] owns the shared state and a background
//!   scheduler thread that re-optimizes allocations at a fixed
//!   interval (60 s in the paper; configurable down to milliseconds
//!   for tests);
//! - [`JobHandle`] is the per-job client: training code reports
//!   iteration timings and gradient statistics through it, and reads
//!   back its current placement and `(m*, η)` tuning decision.
//!
//! Each scheduling round is the round the simulator's engine runs
//! ([`RoundPlanner::round`]) over the service's own
//! [`JobStore`]: a snapshot of its jobs, taken under the jobs lock,
//! from which the round builds its views, and the job table it writes
//! back to — the **same** autoscale and resize rule, planner,
//! bootstrap priors, fairness weights, restart semantics and decision
//! audit. Per-job lifecycle (pending → running → restarting →
//! finished, restart and GPU-time accounting) lives in the shared
//! [`JobLifecycle`] state machine.
//!
//! All state is behind `std::sync` locks, taken through `lock`,
//! `read` and `write`: a lock poisoned by a panicked holder is
//! taken over as it stands (`PoisonError::into_inner`) rather than
//! turned into a second panic. The scheduler thread is driven by a
//! bounded `std::sync::mpsc` command channel whose `recv_timeout`
//! doubles as the periodic ticker, so the service shuts down
//! deterministically.

use crate::policy::{PolluxConfig, PolluxPolicy};
use pollux_agent::{PolluxAgent, TuningDecision};
use pollux_cluster::{row_shape, ClusterSpec, JobId, Topology};
use pollux_control::{
    JobLifecycle, JobMut, JobState, JobStore, PolicyJobView, Reallocation, RoundPlanner,
    SchedulingPolicy,
};
use pollux_models::{BatchSizeLimits, GradientStats, PlacementShape};
use pollux_telemetry::Recorder;
use pollux_workload::UserConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The service's three ways into a lock, each of which takes over a
/// poisoned lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Errors surfaced by the service API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The Pollux configuration is invalid (an autoscaler with a
    /// `max_nodes` of 0).
    InvalidConfig,
    /// A submission's agent parameters are invalid (`limits.min != m0`
    /// or a non-positive `η0` — the contract of `PolluxAgent::new`).
    InvalidLimits,
    /// The scheduler thread has shut down and no longer accepts
    /// commands.
    Shutdown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig => write!(f, "invalid Pollux service configuration"),
            Self::InvalidLimits => write!(f, "invalid job parameters (limits/m0/eta0)"),
            Self::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Configuration of the live service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pollux policy configuration (GA, weights, optional autoscale).
    /// There is no thread setting: on a racked cluster the scheduler
    /// works on as many threads as the host has cores, and results are
    /// identical for any worker count under a fixed [`Self::seed`].
    pub pollux: PolluxConfig,
    /// Wall-clock interval between scheduling rounds.
    pub interval: Duration,
    /// Checkpoint-restart delay charged to a started job whenever the
    /// scheduler moves it (the live analog of the simulator's
    /// `restart_delay`): the job sits in
    /// [`JobState::Restarting`] until the delay elapses.
    pub restart_delay: Duration,
    /// RNG seed for the genetic algorithm.
    pub seed: u64,
    /// Telemetry recorder shared by the service, its scheduler, and
    /// every job's refits. Disabled by default; attach one built on a
    /// sink (e.g. `JsonlSink`) to capture `service/round` spans and
    /// scheduler counters.
    pub telemetry: Recorder,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            pollux: PolluxConfig::default(),
            interval: Duration::from_secs(60),
            restart_delay: Duration::from_secs(30),
            seed: 0,
            telemetry: Recorder::disabled(),
        }
    }
}

/// Commands accepted by the scheduler thread.
enum Command {
    /// Run a scheduling round now (in addition to the ticker).
    Schedule,
    /// Stop the scheduler thread.
    Shutdown,
}

struct JobEntry {
    agent: PolluxAgent,
    lifecycle: JobLifecycle,
    placement: Vec<u32>,
    submit_time: f64,
}

impl JobEntry {
    /// Lends the job to a round's resize or apply rule.
    fn lend(&mut self) -> JobMut<'_> {
        JobMut {
            placement: &mut self.placement,
            agent: &mut self.agent,
            lifecycle: &mut self.lifecycle,
        }
    }
}

/// One job's view, taken under the jobs lock so that the (potentially
/// long) scheduling round builds its views without blocking training
/// threads, with the placement it borrows owned beside it.
struct JobSnapshot {
    view: PolicyJobView<'static>,
    placement: Vec<u32>,
}

/// The service's jobs as one round sees them: the views come from a
/// snapshot, the writes go to the job table under its lock.
struct RoundJobs<'a> {
    shared: &'a Shared,
    snaps: Vec<JobSnapshot>,
}

impl JobStore for RoundJobs<'_> {
    fn views(&self) -> Vec<PolicyJobView<'_>> {
        self.snaps
            .iter()
            .map(|s| PolicyJobView {
                current_placement: &s.placement,
                ..s.view.clone()
            })
            .collect()
    }

    fn resize(
        &mut self,
        spec: &ClusterSpec,
        mut fit: impl FnMut(JobMut<'_>) -> bool,
    ) -> Option<Topology> {
        *write(&self.shared.spec) = spec.clone();
        for entry in lock(&self.shared.jobs).values_mut() {
            fit(entry.lend());
        }
        self.snaps = self.shared.snapshot_jobs();
        None
    }

    /// A job completed mid-round is skipped.
    fn apply(&mut self, r: &Reallocation, rule: impl FnOnce(JobMut<'_>)) {
        if let Some(entry) = lock(&self.shared.jobs).get_mut(&r.job) {
            rule(entry.lend());
        }
    }

    fn co_residents(&self, row: usize) -> Vec<u64> {
        let jobs = lock(&self.shared.jobs);
        let id = self.snaps[row].view.id;
        let Some(held) = jobs.get(&id).map(|e| &e.placement) else {
            return Vec::new();
        };
        let shares = |other: &[u32]| held.iter().zip(other).any(|(&a, &b)| a > 0 && b > 0);
        jobs.iter()
            .filter(|&(&other, e)| other != id && shares(&e.placement))
            .map(|(other, _)| u64::from(other.0))
            .collect()
    }
}

struct Shared {
    spec: RwLock<ClusterSpec>,
    /// The registered jobs, in ascending id order: the order of a
    /// round's views.
    jobs: Mutex<BTreeMap<JobId, JobEntry>>,
    /// Monotone counter of completed scheduling rounds.
    rounds: RwLock<u64>,
    /// Service birth; `now` for lifecycle stamps is seconds since this.
    epoch: Instant,
    restart_delay: f64,
    recorder: Recorder,
}

impl Shared {
    /// One scheduling round: wake expired restarts, then the shared
    /// round ([`RoundPlanner::round`]) over a snapshot of the jobs.
    fn schedule_once(
        &self,
        policy: &mut PolluxPolicy,
        planner: &mut RoundPlanner,
        rng: &mut StdRng,
        now: f64,
    ) {
        let _span = self.recorder.span("service", "round");
        self.recorder.incr("service", "rounds", 1);
        for entry in lock(&self.jobs).values_mut() {
            entry.lifecycle.wake(now);
        }
        let mut spec = read(&self.spec).clone();
        let mut jobs = RoundJobs {
            shared: self,
            snaps: self.snapshot_jobs(),
        };
        planner
            .round(policy, &mut jobs, &mut spec, now, self.restart_delay, rng)
            .expect("the snapshot's ids are the job map's keys");
        *write(&self.rounds) += 1;
    }

    /// Snapshots every registered job with its placement normalized to
    /// the current cluster width. The live service has no ground-truth
    /// model profile (`profile: None`) and no oracle remaining-work
    /// estimate; policies that need either (Optimus+Oracle) are
    /// simulator-only.
    fn snapshot_jobs(&self) -> Vec<JobSnapshot> {
        let num_nodes = read(&self.spec).num_nodes();
        let jobs = lock(&self.jobs);
        jobs.iter()
            .map(|(&id, entry)| {
                let mut placement = entry.placement.clone();
                placement.resize(num_nodes, 0);
                let limits = entry.agent.limits();
                let view = PolicyJobView {
                    id,
                    user: UserConfig {
                        gpus: 1,
                        batch_size: limits.min,
                    },
                    profile: None,
                    limits,
                    report: entry.agent.report(),
                    gputime: entry.lifecycle.gputime(),
                    submit_time: entry.submit_time,
                    current_placement: &[],
                    started: entry.lifecycle.has_started(),
                    batch_size: limits.min,
                    remaining_work: f64::INFINITY,
                };
                JobSnapshot { view, placement }
            })
            .collect()
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Client handle for one training job.
#[derive(Clone)]
pub struct JobHandle {
    id: JobId,
    shared: Arc<Shared>,
}

impl JobHandle {
    /// This job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Reports one measured training iteration (the `PolluxAgent`
    /// profiling hook). Attained GPU-time advances for fairness
    /// weighting.
    pub fn record_iteration(&self, shape: PlacementShape, batch_size: u64, t_iter: f64) {
        let mut jobs = lock(&self.shared.jobs);
        if let Some(entry) = jobs.get_mut(&self.id) {
            entry.agent.observe_iteration(shape, batch_size, t_iter);
            entry.lifecycle.accrue_gputime(t_iter * shape.gpus as f64);
        }
    }

    /// Reports fresh gradient statistics (noise-scale inputs).
    pub fn record_gradient_stats(&self, stats: GradientStats) {
        let mut jobs = lock(&self.shared.jobs);
        if let Some(entry) = jobs.get_mut(&self.id) {
            entry.agent.observe_gradient_stats(stats);
        }
    }

    /// Re-fits the job's θsys model from everything profiled so far.
    /// Returns `false` when no observations exist yet.
    pub fn refit(&self) -> bool {
        let mut jobs = lock(&self.shared.jobs);
        let recorder = &self.shared.recorder;
        jobs.get_mut(&self.id)
            .map(|e| e.agent.refit_recorded(recorder))
            .unwrap_or(false)
    }

    /// The placement currently assigned by the scheduler (GPUs per
    /// node; empty vector before the first round).
    pub fn placement(&self) -> Vec<u32> {
        lock(&self.shared.jobs)
            .get(&self.id)
            .map(|e| e.placement.clone())
            .unwrap_or_default()
    }

    /// The job's lifecycle state as tracked by the shared control
    /// plane, or `None` once deregistered.
    pub fn state(&self) -> Option<JobState> {
        lock(&self.shared.jobs)
            .get(&self.id)
            .map(|e| e.lifecycle.state())
    }

    /// Checkpoint-restarts this job has paid so far.
    pub fn num_restarts(&self) -> u32 {
        lock(&self.shared.jobs)
            .get(&self.id)
            .map(|e| e.lifecycle.num_restarts())
            .unwrap_or(0)
    }

    /// The agent's `(m*, η)` decision for the current placement, or
    /// `None` while unallocated or before the first fit.
    pub fn tuning(&self) -> Option<TuningDecision> {
        let jobs = lock(&self.shared.jobs);
        let entry = jobs.get(&self.id)?;
        entry.agent.tune(row_shape(&entry.placement)?)
    }
}

/// The live Pollux control plane.
pub struct ClusterService {
    shared: Arc<Shared>,
    commands: SyncSender<Command>,
    thread: Option<JoinHandle<()>>,
    next_id: Mutex<u32>,
}

impl ClusterService {
    /// Starts the service with a background scheduler thread.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when the Pollux configuration
    /// is invalid (an autoscaler with a `max_nodes` of 0).
    pub fn start(config: ServiceConfig, spec: ClusterSpec) -> Result<Self, ServiceError> {
        let mut policy = PolluxPolicy::new(config.pollux).ok_or(ServiceError::InvalidConfig)?;
        config.telemetry.meta("sched", "policy", policy.name());
        policy.attach_telemetry(config.telemetry.clone());
        let mut planner = RoundPlanner::new();
        planner.attach_telemetry(config.telemetry.clone());
        let shared = Arc::new(Shared {
            spec: RwLock::new(spec),
            jobs: Mutex::new(BTreeMap::new()),
            rounds: RwLock::new(0),
            epoch: Instant::now(),
            restart_delay: config.restart_delay.as_secs_f64(),
            recorder: config.telemetry,
        });
        let (tx, rx) = sync_channel::<Command>(16);
        let interval = config.interval;
        let thread_shared = Arc::clone(&shared);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let thread = std::thread::spawn(move || {
            // `recv_timeout` is both the trigger listener and the
            // periodic ticker: a timeout means "interval elapsed with
            // no explicit trigger", which also starts a round.
            while let Ok(Command::Schedule) | Err(RecvTimeoutError::Timeout) =
                rx.recv_timeout(interval)
            {
                let now = thread_shared.now();
                thread_shared.schedule_once(&mut policy, &mut planner, &mut rng, now);
            }
        });
        Ok(Self {
            shared,
            commands: tx,
            thread: Some(thread),
            next_id: Mutex::new(0),
        })
    }

    /// Registers a new training job and returns its handle.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidLimits`] when `limits.min != m0` or
    /// `η0` is invalid (the same contract as `PolluxAgent::new`).
    pub fn submit(
        &self,
        m0: u64,
        eta0: f64,
        limits: BatchSizeLimits,
    ) -> Result<JobHandle, ServiceError> {
        let agent = PolluxAgent::new(m0, eta0, limits).ok_or(ServiceError::InvalidLimits)?;
        let id = {
            let mut next = lock(&self.next_id);
            let id = JobId(*next);
            *next += 1;
            id
        };
        let num_nodes = read(&self.shared.spec).num_nodes();
        let submit_time = self.shared.now();
        lock(&self.shared.jobs).insert(
            id,
            JobEntry {
                agent,
                lifecycle: JobLifecycle::new(),
                placement: vec![0; num_nodes],
                submit_time,
            },
        );
        Ok(JobHandle {
            id,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Deregisters a completed (or cancelled) job, freeing its GPUs at
    /// the next scheduling round.
    pub fn complete(&self, id: JobId) {
        lock(&self.shared.jobs).remove(&id);
    }

    /// Requests an immediate scheduling round (in addition to the
    /// periodic ticker). Non-blocking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Shutdown`] when the scheduler thread is gone.
    pub fn trigger_schedule(&self) -> Result<(), ServiceError> {
        match self.commands.try_send(Command::Schedule) {
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Shutdown),
            _ => Ok(()),
        }
    }

    /// Blocks until at least `n` scheduling rounds have completed.
    pub fn wait_for_rounds(&self, n: u64, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        while *read(&self.shared.rounds) < n {
            if start.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Number of completed scheduling rounds.
    pub fn rounds(&self) -> u64 {
        *read(&self.shared.rounds)
    }

    /// The current cluster specification (autoscaling may change it).
    pub fn cluster_spec(&self) -> ClusterSpec {
        read(&self.shared.spec).clone()
    }

    /// Number of registered jobs.
    pub fn num_jobs(&self) -> usize {
        lock(&self.shared.jobs).len()
    }

    /// Stops the scheduler thread and drops the service.
    pub fn shutdown(mut self) {
        let _ = self.commands.send(Command::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ClusterService {
    fn drop(&mut self) {
        let _ = self.commands.send(Command::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // Snapshot counters/histograms into the capture now that the
        // scheduler thread is quiescent. Unconditional: the graceful
        // `shutdown` path joins (and takes) the thread before this
        // drop runs.
        self.shared.recorder.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_sched::GaConfig;
    use pollux_telemetry::{Event, MemorySink};
    use pollux_workload::ModelKind;

    fn quick_config() -> ServiceConfig {
        let mut pollux = PolluxConfig::default();
        pollux.sched.ga = GaConfig {
            population: 12,
            generations: 6,
            ..Default::default()
        };
        ServiceConfig {
            pollux,
            interval: Duration::from_millis(5),
            restart_delay: Duration::from_millis(1),
            seed: 1,
            ..Default::default()
        }
    }

    fn quick_service(spec: ClusterSpec) -> ClusterService {
        ClusterService::start(quick_config(), spec).expect("valid service config")
    }

    /// The last snapshot of counter `sub/name` in a capture (0 if none).
    fn count(events: &[Event], sub: &str, name: &str) -> u64 {
        let named = |e: &&Event| e.subsystem() == sub && e.name() == name;
        let value = |e: &Event| match e {
            Event::Count { value, .. } => Some(*value),
            _ => None,
        };
        events
            .iter()
            .rev()
            .filter(named)
            .find_map(value)
            .unwrap_or(0)
    }

    fn feed_profile(handle: &JobHandle, kind: ModelKind) {
        let profile = kind.profile();
        for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (8, 2)] {
            let shape = PlacementShape::new(g, n).unwrap();
            handle.record_iteration(shape, profile.m0, profile.params.t_iter(shape, profile.m0));
        }
        assert!(handle.refit());
        handle.record_gradient_stats(GradientStats::new(20.0, 1.0).unwrap());
    }

    #[test]
    fn service_allocates_submitted_jobs() {
        let sink = Arc::new(MemorySink::new(1 << 12));
        // An hour-long ticker: the test's two triggered rounds are the
        // only ones, and both see the two jobs.
        let config = ServiceConfig {
            interval: Duration::from_secs(3600),
            telemetry: Recorder::new(sink.clone()),
            ..quick_config()
        };
        let service = ClusterService::start(config, ClusterSpec::homogeneous(2, 4).unwrap())
            .expect("valid service config");
        let profile = ModelKind::ResNet18Cifar10.profile();
        let a = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        let b = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        assert_ne!(a.id(), b.id());
        assert_eq!(service.num_jobs(), 2);
        assert_eq!(a.state(), Some(JobState::Pending));

        service.trigger_schedule().unwrap();
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(2, Duration::from_secs(10)));

        // Fresh jobs are bootstrapped: each gets 1-2 GPUs and starts
        // (never restarts — a first grant pays no delay).
        for h in [&a, &b] {
            let gpus: u32 = h.placement().iter().sum();
            assert!((1..=2).contains(&gpus), "placement {:?}", h.placement());
            assert_eq!(h.num_restarts(), 0);
            assert_ne!(h.state(), Some(JobState::Pending));
        }
        // The scheduler's counters reach the capture: every round with
        // jobs is one scheduler interval and builds a dense table.
        service.shutdown();
        let events = sink.drain();
        assert!(count(&events, "sched", "table_solves") > 0);
        assert_eq!(count(&events, "service", "rounds"), 2);
        assert_eq!(count(&events, "sched", "intervals"), 2);
    }

    #[test]
    fn reports_unlock_scale_out_and_tuning() {
        let service = quick_service(ClusterSpec::homogeneous(2, 4).unwrap());
        let profile = ModelKind::ResNet18Cifar10.profile();
        let h = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        feed_profile(&h, ModelKind::ResNet18Cifar10);

        // After a profiled report (the agent has seen up to 8 GPUs,
        // cap 16), the scheduler should grant a substantial
        // allocation on the idle 8-GPU cluster.
        let before = service.rounds();
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(before + 2, Duration::from_secs(10)));
        let gpus: u32 = h.placement().iter().sum();
        assert!(gpus >= 4, "placement {:?}", h.placement());

        let tuning = h.tuning().expect("fit + placement => tuning");
        assert!(tuning.batch_size >= profile.m0);
        assert!(tuning.learning_rate > 0.0);
        service.shutdown();
    }

    #[test]
    fn completed_jobs_release_gpus() {
        let service = quick_service(ClusterSpec::homogeneous(1, 4).unwrap());
        let profile = ModelKind::ResNet18Cifar10.profile();
        let a = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        let b = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        feed_profile(&a, ModelKind::ResNet18Cifar10);
        feed_profile(&b, ModelKind::ResNet18Cifar10);
        let before = service.rounds();
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(before + 2, Duration::from_secs(10)));

        service.complete(a.id());
        assert_eq!(service.num_jobs(), 1);
        let before = service.rounds();
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(before + 2, Duration::from_secs(10)));
        // The survivor can now take the whole node (cap permitting).
        let gpus: u32 = b.placement().iter().sum();
        assert!(gpus >= 2, "placement {:?}", b.placement());
        // The departed handle reads back empty.
        assert!(a.placement().is_empty());
        assert!(a.tuning().is_none());
        assert_eq!(a.state(), None);
        service.shutdown();
    }

    #[test]
    fn reallocation_after_start_pays_a_restart() {
        let service = quick_service(ClusterSpec::homogeneous(1, 4).unwrap());
        let profile = ModelKind::ResNet18Cifar10.profile();
        // `a` starts alone and grows onto the whole node.
        let a = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        feed_profile(&a, ModelKind::ResNet18Cifar10);
        let before = service.rounds();
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(before + 2, Duration::from_secs(10)));
        let gpus_before: u32 = a.placement().iter().sum();
        assert!(gpus_before >= 2, "placement {:?}", a.placement());

        // A second job arrives; the scheduler shrinks `a`, which pays
        // the checkpoint-restart delay through the shared lifecycle.
        let b = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        feed_profile(&b, ModelKind::ResNet18Cifar10);
        let before = service.rounds();
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(before + 2, Duration::from_secs(10)));
        let gpus_after: u32 = a.placement().iter().sum();
        if gpus_after != gpus_before {
            assert!(a.num_restarts() >= 1, "reallocation did not restart");
        }
        let gpus_b: u32 = b.placement().iter().sum();
        assert!(gpus_b >= 1, "newcomer unplaced: {:?}", b.placement());
        service.shutdown();
    }

    #[test]
    fn ticker_schedules_without_triggers() {
        let service = quick_service(ClusterSpec::homogeneous(1, 4).unwrap());
        assert!(service.wait_for_rounds(3, Duration::from_secs(10)));
        service.shutdown();
    }

    #[test]
    fn shutdown_via_drop_joins_thread() {
        let service = quick_service(ClusterSpec::homogeneous(1, 2).unwrap());
        drop(service); // Must not hang or panic.
    }

    #[test]
    fn autoscaling_service_grows_cluster_for_scalable_job() {
        use pollux_sched::AutoscaleConfig;
        let mut pollux = PolluxConfig::default();
        pollux.sched.ga = GaConfig {
            population: 12,
            generations: 6,
            ..Default::default()
        };
        pollux.autoscale = Some(AutoscaleConfig {
            max_nodes: 8,
            ga: GaConfig {
                population: 12,
                generations: 6,
                ..Default::default()
            },
        });
        let service = ClusterService::start(
            ServiceConfig {
                pollux,
                interval: Duration::from_millis(5),
                seed: 3,
                ..Default::default()
            },
            ClusterSpec::homogeneous(1, 4).unwrap(),
        )
        .unwrap();
        let profile = ModelKind::ResNet18Cifar10.profile();
        let h = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        // A well-profiled, high-φ job that has held many GPUs: the
        // autoscaler should grow the cluster beyond the single node.
        for (g, n) in [(1u32, 1u32), (2, 1), (4, 1), (8, 2), (16, 4)] {
            let shape = PlacementShape::new(g, n).unwrap();
            h.record_iteration(shape, profile.m0, profile.params.t_iter(shape, profile.m0));
        }
        assert!(h.refit());
        h.record_gradient_stats(GradientStats::new(60.0, 1.0).unwrap());
        let before = service.rounds();
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(before + 3, Duration::from_secs(20)));
        let nodes = service.cluster_spec().num_nodes();
        assert!(nodes > 1, "cluster stayed at {nodes} node(s)");
        service.shutdown();
    }

    #[test]
    fn service_rounds_emit_telemetry() {
        let sink = Arc::new(MemorySink::new(8192));
        let config = ServiceConfig {
            telemetry: Recorder::new(sink.clone()),
            ..quick_config()
        };
        let service =
            ClusterService::start(config, ClusterSpec::homogeneous(2, 4).unwrap()).unwrap();
        let profile = ModelKind::ResNet18Cifar10.profile();
        let h = service
            .submit(profile.m0, profile.eta0, profile.limits)
            .unwrap();
        feed_profile(&h, ModelKind::ResNet18Cifar10);
        service.trigger_schedule().unwrap();
        assert!(service.wait_for_rounds(2, Duration::from_secs(10)));
        service.shutdown();

        let events = sink.drain();
        let span = |sub: &str, name: &str| {
            events.iter().any(|e| {
                matches!(e, Event::Span { .. }) && e.subsystem() == sub && e.name() == name
            })
        };
        assert!(span("service", "round"), "no service/round span");
        assert!(!span("control", "plan"), "service/round brackets the round");
        // The round's decision audit, stamped with the round time.
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::Round(r) if r.time > 0.0 && r.jobs.len() == 1)),
            "no stamped round audit"
        );
        assert!(span("agent", "refit"), "no agent/refit span");
        assert!(span("sched", "ga_evolve"), "no sched/ga_evolve span");
        // The drop-time flush snapshots counters into the capture.
        assert!(
            count(&events, "service", "rounds") > 0,
            "no service/rounds counter snapshot"
        );
    }

    #[test]
    fn invalid_submission_rejected() {
        let service = quick_service(ClusterSpec::homogeneous(1, 4).unwrap());
        let limits = BatchSizeLimits::new(128, 1024, 512).unwrap();
        assert_eq!(
            service.submit(64, 0.1, limits).err(),
            Some(ServiceError::InvalidLimits),
            "m0 mismatch"
        );
        assert_eq!(
            service.submit(128, 0.0, limits).err(),
            Some(ServiceError::InvalidLimits),
            "bad eta0"
        );
        service.shutdown();
    }

    #[test]
    fn invalid_autoscale_config_rejected() {
        use pollux_sched::AutoscaleConfig;
        let pollux = PolluxConfig {
            autoscale: Some(AutoscaleConfig {
                max_nodes: 0,
                ..Default::default()
            }),
            ..Default::default()
        };
        let err = ClusterService::start(
            ServiceConfig {
                pollux,
                ..Default::default()
            },
            ClusterSpec::homogeneous(1, 4).unwrap(),
        )
        .err();
        assert_eq!(err, Some(ServiceError::InvalidConfig));
    }
}
