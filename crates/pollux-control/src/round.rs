//! The scheduling round.
//!
//! One [`RoundPlanner::round`] call is one scheduling round, and the
//! simulator's engine and the live service both run it, each over its
//! own [`JobStore`]: build the views, let the policy resize the
//! cluster, [`RoundPlanner::plan`] (invoke the [`SchedulingPolicy`],
//! clamp its matrix to capacity, diff old against new placements into
//! [`Reallocation`]s), apply each reallocation through one rule, and
//! emit the round's decision audit. The planning step is pure with
//! respect to the caller's state — it mutates nothing but the policy
//! and the RNG.

use crate::lifecycle::JobLifecycle;
use crate::policy::{PolicyJobView, SchedulingPolicy};
use pollux_agent::PolluxAgent;
use pollux_cluster::{
    row_is_empty, row_shape, AllocationMatrix, ClusterSpec, JobId, NodeId, Topology,
};
use pollux_telemetry::{Counter, Recorder};
use rand::rngs::StdRng;

/// One explicit placement-change decision produced by a round.
///
/// Jobs whose placement is unchanged produce no reallocation; a
/// pending job allocated zero GPUs again likewise produces nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reallocation {
    /// The job being re-placed.
    pub job: JobId,
    /// Index of the job in the round's view slice (callers that keep
    /// jobs in view order can apply by index instead of id lookup).
    pub row: usize,
    /// The placement row to apply (cluster-width).
    pub new: Vec<u32>,
    /// Whether applying this decision pays the checkpoint-restart
    /// delay: true exactly when the job had already started training
    /// and is granted GPUs again (`new` non-zero). Zero-GPU decisions
    /// are preemptions and never restart.
    pub triggers_restart: bool,
}

impl Reallocation {
    /// GPUs granted by the new placement (0 = preemption).
    pub fn gpus(&self) -> u32 {
        self.new.iter().sum()
    }
}

/// One job's control-plane state, lent by a [`JobStore`] to the round
/// for one edit.
pub struct JobMut<'a> {
    /// The placement row in effect (GPUs per node).
    pub placement: &'a mut Vec<u32>,
    /// The job's agent, told of every allocation it is granted.
    pub agent: &'a mut PolluxAgent,
    /// The job's lifecycle.
    pub lifecycle: &'a mut JobLifecycle,
}

/// The jobs of a simulation or a live service, as
/// [`RoundPlanner::round`] reads and writes them.
///
/// The store lends its jobs; the round owns the rules it applies to
/// them (what a resize does to a placement, what a reallocation does
/// to a job), so a store adds only what is its own around each edit:
/// an index to update, a lock to take, a job that left to skip.
pub trait JobStore {
    /// Views of the jobs this round schedules, in row order, with
    /// unique ids.
    fn views(&self) -> Vec<PolicyJobView<'_>>;

    /// The cluster became `spec`: lend every job, scheduled this round
    /// or not, to `fit`, which answers whether it preempted the job.
    /// Returns the rack layout to hand the policy, if the store keeps
    /// one.
    fn resize(
        &mut self,
        spec: &ClusterSpec,
        fit: impl FnMut(JobMut<'_>) -> bool,
    ) -> Option<Topology>;

    /// Lends the job at `r.row` to `rule`, the round's one apply rule.
    /// A store whose jobs may leave mid-round skips a job that left.
    fn apply(&mut self, r: &Reallocation, rule: impl FnOnce(JobMut<'_>));

    /// Ids of the jobs sharing a node with the job at `row` after the
    /// round, ascending: the audit's interference co-residents.
    fn co_residents(&self, row: usize) -> Vec<u64>;
}

/// Fits one job's placement row to a cluster resized to `nodes` nodes:
/// the row is cut or zero-padded to the new width, and a job that held
/// GPUs on a removed node loses its whole placement (a partial one
/// would change its world size silently). Returns whether GPUs were
/// lost — the round then preempts the job.
fn resize_placement(row: &mut Vec<u32>, nodes: usize) -> bool {
    let lost = row.get(nodes..).is_some_and(|cut| !row_is_empty(cut));
    row.resize(nodes, 0);
    if lost {
        row.fill(0);
    }
    lost
}

/// A round could not be planned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundError {
    /// Two views carried the same job id; the diff (and any
    /// id-indexed application of it) would be ambiguous.
    DuplicateJobId(JobId),
}

impl std::fmt::Display for RoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundError::DuplicateJobId(id) => {
                write!(f, "duplicate job id {id} in round views")
            }
        }
    }
}

impl std::error::Error for RoundError {}

/// The shared scheduling round.
///
/// Holds only telemetry handles (disabled by default) plus recycled
/// scratch; all per-round inputs arrive as arguments, so one planner
/// serves any number of rounds deterministically.
#[derive(Default)]
pub struct RoundPlanner {
    /// Hoisted `control/reallocations` counter: `plan` runs every
    /// reschedule round, so the per-call registry lookup of
    /// `Recorder::incr` is paid once at attach time instead. The
    /// planner deliberately emits no spans of its own — it sits on
    /// the simulator's hot path, already bracketed by the driver's
    /// span (`engine/reschedule` in the simulator, `service/round` in
    /// the live service).
    reallocations_ctr: Counter,
    /// Recorder for per-reallocation `"placement"` timeline diffs and
    /// the round's decision audit. Disabled by default; a placement
    /// diff is emitted only where a [`Reallocation`] is materialized,
    /// which is already O(churn) — quiet rounds emit none.
    recorder: Recorder,
    /// Recycled duplicate-check scratch.
    ids_buf: Vec<JobId>,
    /// The previous round's id sequence in view order. When this
    /// round's views carry the same ids in the same order (the common
    /// quiet-round case), uniqueness was already proven and the
    /// O(n log n) sort is skipped for one O(n) equality scan.
    last_ids: Vec<JobId>,
}

impl RoundPlanner {
    /// A planner with telemetry disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry recorder. Observational only: recording
    /// never changes a planned outcome.
    pub fn attach_telemetry(&mut self, recorder: Recorder) {
        self.reallocations_ctr = recorder.counter("control", "reallocations");
        self.recorder = recorder;
    }

    /// Runs one scheduling round over `store`, the one round the engine
    /// and the live service both run:
    ///
    /// 1. the policy's `desired_nodes` over the store's views; a size
    ///    other than the current one (at least 1 node) becomes `spec`,
    ///    every job's placement is cut or padded to it (a job that held
    ///    GPUs on a removed node loses them all and is preempted), the
    ///    policy is handed the store's new rack layout, and the views
    ///    are rebuilt;
    /// 2. [`Self::plan`];
    /// 3. each reallocation is applied through the store by one rule:
    ///    write the placement, then note the allocation with the agent
    ///    and grant it (a restart pays `restart_delay`), or preempt;
    /// 4. the policy's decision audit, if a recorder is attached, is
    ///    stamped with `now` and each job's co-residents and emitted.
    ///
    /// The round draws from `rng` only through the policy, in the
    /// order above.
    ///
    /// # Errors
    ///
    /// [`RoundError::DuplicateJobId`] when two views share an id; the
    /// round then applies nothing (a resize already made stands).
    pub fn round<P: SchedulingPolicy + ?Sized, S: JobStore>(
        &mut self,
        policy: &mut P,
        store: &mut S,
        spec: &mut ClusterSpec,
        now: f64,
        restart_delay: f64,
        rng: &mut StdRng,
    ) -> Result<(), RoundError> {
        let mut views = store.views();
        if let Some(nodes) = policy.desired_nodes(now, &views, spec, rng) {
            let nodes = nodes.max(1);
            if nodes as usize != spec.num_nodes() {
                drop(views);
                *spec = ClusterSpec::homogeneous(nodes, spec.gpus_on(NodeId(0)))
                    .expect("at least one node, as many GPUs as the cluster's first");
                let width = spec.num_nodes();
                let fit = |job: JobMut<'_>| {
                    resize_placement(job.placement, width) && job.lifecycle.preempt(now)
                };
                if let Some(topology) = store.resize(spec, fit) {
                    policy.configure_topology(Some(&topology));
                }
                views = store.views();
            }
        }
        let reallocations = self.plan(policy, now, &views, spec, rng)?;
        drop(views);
        for r in &reallocations {
            store.apply(r, |job| apply_reallocation(job, r, now, restart_delay));
        }
        if self.recorder.is_enabled() {
            if let Some(mut explain) = policy.take_round_explain() {
                explain.time = now;
                for (row, job) in explain.jobs.iter_mut().enumerate() {
                    job.co_residents = store.co_residents(row);
                }
                self.recorder.round_explain(explain);
            }
        }
        Ok(())
    }

    /// Plans one scheduling round over `views`: the placement changes,
    /// in view (row) order, that [`Self::round`] then applies.
    ///
    /// Pipeline: consult `policy.schedule_sparse`; otherwise invoke
    /// `policy.schedule` and clamp the matrix to `spec` capacity; diff
    /// each view's current placement against its new row. An empty
    /// view slice plans nothing without invoking the policy.
    ///
    /// A policy that answers sparsely named only its changed rows, so
    /// the round never touches — let alone materializes — a dense
    /// `jobs × nodes` matrix: each delta is padded to cluster width and
    /// diffed, and no-op deltas and out-of-range rows are dropped. The
    /// dense defensive clamp is skipped (the sparse contract makes the
    /// policy responsible for feasibility — see
    /// [`SchedulingPolicy::schedule_sparse`]).
    ///
    /// Every RNG draw made during the round comes from `policy` via
    /// `rng`, in view order — the planner itself never draws — which
    /// is what keeps the simulator's determinism contract intact.
    pub fn plan<P: SchedulingPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        now: f64,
        views: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Result<Vec<Reallocation>, RoundError> {
        if views.is_empty() {
            return Ok(Vec::new());
        }
        self.check_unique_ids(views)?;

        let num_nodes = spec.num_nodes();
        let mut reallocations = Vec::new();
        if let Some(deltas) = policy.schedule_sparse(now, views, spec, rng) {
            for delta in deltas {
                let Some(view) = views.get(delta.row) else {
                    continue;
                };
                let mut new_row = delta.gpus;
                new_row.resize(num_nodes, 0);
                reallocations.extend(self.diff_row(now, delta.row, view, new_row, num_nodes));
            }
        } else {
            let mut matrix = policy.schedule(now, views, spec, rng);
            clamp_matrix(&mut matrix, spec);
            for (row, view) in views.iter().enumerate() {
                // Post-clamp the matrix is cluster-width, so a view's
                // row (or the implicit all-zero row when the policy
                // returned too few) can be compared in place; rows are
                // copied out only once known to differ, keeping a quiet
                // round's diff cost O(changed) instead of O(jobs ×
                // nodes).
                let matrix_row: &[u32] = if row < matrix.num_jobs() {
                    matrix.row(row)
                } else {
                    &[]
                };
                reallocations.extend(self.diff_row(now, row, view, matrix_row, num_nodes));
            }
        }
        self.reallocations_ctr.add(reallocations.len() as u64);
        Ok(reallocations)
    }

    /// Validates that every view carries a unique job id. A round over
    /// the exact id sequence of the previous round — the steady-state
    /// case — is revalidated with one O(n) scan against the cached
    /// sequence instead of re-sorting.
    fn check_unique_ids(&mut self, views: &[PolicyJobView<'_>]) -> Result<(), RoundError> {
        if self.last_ids.len() == views.len()
            && views.iter().zip(&self.last_ids).all(|(v, &id)| v.id == id)
        {
            return Ok(());
        }
        self.ids_buf.clear();
        self.ids_buf.extend(views.iter().map(|v| v.id));
        self.ids_buf.sort_unstable();
        for w in self.ids_buf.windows(2) {
            if w[0] == w[1] {
                return Err(RoundError::DuplicateJobId(w[0]));
            }
        }
        self.last_ids.clear();
        self.last_ids.extend(views.iter().map(|v| v.id));
        Ok(())
    }

    /// The diff both paths share: `proposed` (a borrowed matrix row on
    /// the dense path, an owned padded delta on the sparse one) against
    /// `view`'s current placement. Unchanged rows and pending →
    /// pending rows yield nothing; a changed row is materialized at
    /// cluster width — copied out of the matrix only now — put on the
    /// timeline, and returned (and counted, as a reallocation, by the
    /// caller).
    fn diff_row<R: AsRef<[u32]> + Into<Vec<u32>>>(
        &self,
        now: f64,
        row: usize,
        view: &PolicyJobView<'_>,
        proposed: R,
        num_nodes: usize,
    ) -> Option<Reallocation> {
        if rows_equal_padded(proposed.as_ref(), view.current_placement, num_nodes) {
            return None;
        }
        let granted = !row_is_empty(proposed.as_ref());
        if !granted && row_is_empty(view.current_placement) {
            return None; // Pending -> pending: nothing happened.
        }
        let mut new_row: Vec<u32> = proposed.into();
        new_row.resize(num_nodes, 0);
        self.recorder.timeline(
            "round",
            "placement",
            now,
            view.id.0 as u64,
            view.current_placement,
            &new_row,
        );
        Some(Reallocation {
            job: view.id,
            row,
            new: new_row,
            triggers_restart: granted && view.started,
        })
    }
}

/// The one apply rule: the job takes the new placement; a grant is
/// noted with the agent and moves the lifecycle (a restart pays
/// `restart_delay`), a zero-GPU placement preempts.
fn apply_reallocation(job: JobMut<'_>, r: &Reallocation, now: f64, restart_delay: f64) {
    job.placement.clone_from(&r.new);
    match row_shape(&r.new) {
        Some(shape) => {
            job.agent.note_allocation(shape);
            job.lifecycle.grant(r.triggers_restart, now, restart_delay);
        }
        None => {
            job.lifecycle.preempt(now);
        }
    }
}

/// Whether a policy matrix row equals a view's current placement,
/// treating cells past `matrix_row.len()` as zero. `current` narrower
/// or wider than the cluster (a transient width mismatch around a
/// resize) always diffs as changed.
fn rows_equal_padded(matrix_row: &[u32], current: &[u32], width: usize) -> bool {
    let cut = matrix_row.len().min(width);
    current.len() == width && current[..cut] == matrix_row[..cut] && row_is_empty(&current[cut..])
}

/// Defensively trims an infeasible policy matrix to capacity: the
/// matrix is first brought to cluster width, then over-capacity nodes
/// shed GPUs round-robin across jobs until feasible — one GPU from each
/// non-zero cell a turn, in row order, every turn starting at row 0.
///
/// The turns are taken in bulk: as many whole turns as leave every
/// non-zero cell standing, and once fewer are left, the last ones with
/// the partial turn's extra GPU from the first cells. A hostile cell of
/// `u32::MAX` GPUs costs a few passes over the column, not one per GPU.
fn clamp_matrix(m: &mut AllocationMatrix, spec: &ClusterSpec) {
    if m.num_nodes() != spec.num_nodes() {
        m.resize_nodes(spec.num_nodes());
    }
    for node in m.over_capacity_nodes(spec) {
        let n = node.index();
        let used: u64 = (0..m.num_jobs()).map(|j| u64::from(m.get(j, n))).sum();
        let mut excess = used - u64::from(spec.gpus_on(node));
        while excess > 0 {
            let live: Vec<usize> = (0..m.num_jobs()).filter(|&j| m.get(j, n) > 0).collect();
            let cells = live.len() as u64;
            let smallest = live.iter().map(|&j| m.get(j, n)).min().map_or(0, u64::from);
            let turns = smallest.min(excess / cells);
            let rest = if turns < smallest { excess % cells } else { 0 };
            for (i, &j) in live.iter().enumerate() {
                let take = turns + u64::from((i as u64) < rest);
                m.set(j, n, m.get(j, n) - take as u32);
                excess -= take;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PlacementDelta;
    use pollux_cluster::NodeSpec;
    use pollux_models::BatchSizeLimits;
    use pollux_workload::UserConfig;
    use proptest::prelude::Strategy;
    use rand::SeedableRng;

    #[test]
    fn resize_keeps_loses_or_pads_a_row() {
        // Shrink past empty nodes: the job keeps its GPUs.
        let mut row = vec![2, 1, 0, 0];
        assert!(!resize_placement(&mut row, 2));
        assert_eq!(row, [2, 1]);
        // Shrink past a held node: the whole row goes.
        let mut row = vec![2, 0, 1];
        assert!(resize_placement(&mut row, 2));
        assert_eq!(row, [0, 0]);
        // Grow: the row is padded with empty nodes.
        let mut row = vec![0, 3];
        assert!(!resize_placement(&mut row, 4));
        assert_eq!(row, [0, 3, 0, 0]);
    }

    /// A scripted policy: returns the preloaded matrix for each round.
    struct Scripted {
        rounds: Vec<AllocationMatrix>,
        next: usize,
    }

    impl Scripted {
        fn new(rounds: Vec<AllocationMatrix>) -> Self {
            Self { rounds, next: 0 }
        }
    }

    impl SchedulingPolicy for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[PolicyJobView<'_>],
            spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            let i = self.next.min(self.rounds.len().saturating_sub(1));
            self.next += 1;
            self.rounds
                .get(i)
                .cloned()
                .unwrap_or_else(|| AllocationMatrix::zeros(jobs.len(), spec.num_nodes()))
        }
    }

    fn view<'a>(id: u32, placement: &'a [u32], started: bool) -> PolicyJobView<'a> {
        PolicyJobView {
            id: JobId(id),
            user: UserConfig {
                gpus: 1,
                batch_size: 128,
            },
            profile: None,
            limits: BatchSizeLimits::new(128, 1024, 512).unwrap(),
            report: None,
            gputime: 0.0,
            submit_time: 0.0,
            current_placement: placement,
            started,
            batch_size: 128,
            remaining_work: f64::INFINITY,
        }
    }

    /// A planner recording into a fresh sink, and its recorder.
    fn counted_planner() -> (RoundPlanner, Recorder) {
        let rec = Recorder::new(std::sync::Arc::new(pollux_telemetry::MemorySink::new(64)));
        let mut planner = RoundPlanner::new();
        planner.attach_telemetry(rec.clone());
        (planner, rec)
    }

    fn matrix(rows: &[&[u32]]) -> AllocationMatrix {
        let nodes = rows.first().map_or(0, |r| r.len());
        let mut m = AllocationMatrix::zeros(rows.len(), nodes);
        for (j, row) in rows.iter().enumerate() {
            for (n, &g) in row.iter().enumerate() {
                m.set(j, n, g);
            }
        }
        m
    }

    struct OwnedJob {
        id: u32,
        placement: Vec<u32>,
        agent: PolluxAgent,
        lifecycle: JobLifecycle,
    }

    impl OwnedJob {
        fn new(id: u32, placement: Vec<u32>, started: bool) -> Self {
            let limits = BatchSizeLimits::new(128, 1024, 512).unwrap();
            let mut lifecycle = JobLifecycle::new();
            if started {
                lifecycle.grant(false, 0.0, 30.0);
            }
            Self {
                id,
                placement,
                agent: PolluxAgent::new(128, 0.1, limits).unwrap(),
                lifecycle,
            }
        }

        fn lend(&mut self) -> JobMut<'_> {
            JobMut {
                placement: &mut self.placement,
                agent: &mut self.agent,
                lifecycle: &mut self.lifecycle,
            }
        }
    }

    /// Jobs owned in row order, lent to the round as they are.
    struct Owned(Vec<OwnedJob>);

    impl JobStore for Owned {
        fn views(&self) -> Vec<PolicyJobView<'_>> {
            let started = |j: &OwnedJob| j.lifecycle.has_started();
            self.0
                .iter()
                .map(|j| view(j.id, &j.placement, started(j)))
                .collect()
        }

        fn resize(
            &mut self,
            spec: &ClusterSpec,
            mut fit: impl FnMut(JobMut<'_>) -> bool,
        ) -> Option<Topology> {
            for job in &mut self.0 {
                fit(job.lend());
            }
            Topology::grouped(spec.num_nodes() as u32, 1)
        }

        fn apply(&mut self, r: &Reallocation, rule: impl FnOnce(JobMut<'_>)) {
            rule(self.0[r.row].lend());
        }

        fn co_residents(&self, row: usize) -> Vec<u64> {
            let mine = &self.0[row].placement;
            let shares = |other: &[u32]| mine.iter().zip(other).any(|(&a, &b)| a > 0 && b > 0);
            let others = self.0.iter().enumerate().filter(|&(k, _)| k != row);
            others
                .filter(|(_, j)| shares(&j.placement))
                .map(|(_, j)| u64::from(j.id))
                .collect()
        }
    }

    /// Shrinks the cluster, then schedules what is left, and explains
    /// the round; remembers the topology it was handed.
    struct Shrinking {
        topology: Option<Topology>,
    }

    impl SchedulingPolicy for Shrinking {
        fn name(&self) -> &'static str {
            "shrinking"
        }
        fn desired_nodes(
            &mut self,
            _now: f64,
            _jobs: &[PolicyJobView<'_>],
            _spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> Option<u32> {
            Some(2)
        }
        fn schedule(
            &mut self,
            _now: f64,
            jobs: &[PolicyJobView<'_>],
            spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            assert_eq!(
                (jobs.len(), spec.num_nodes()),
                (3, 2),
                "views of the resized cluster"
            );
            assert_eq!(jobs[0].current_placement, [0, 0], "job 0 lost node 2");
            matrix(&[&[0, 2], &[1, 0], &[0, 1]])
        }
        fn configure_topology(&mut self, topology: Option<&Topology>) {
            self.topology = topology.cloned();
        }
        fn take_round_explain(&mut self) -> Option<pollux_telemetry::RoundExplain> {
            let job = |job| pollux_telemetry::JobExplain {
                job,
                weight: 1.0,
                speedup_before: 0.0,
                speedup_after: 0.0,
                restart_penalty: 0.0,
                rack_before: -1,
                rack_after: -1,
                gpus_before: 0,
                gpus_after: 0,
                co_residents: Vec::new(),
            };
            Some(pollux_telemetry::RoundExplain {
                time: 0.0,
                fitness: 0.0,
                fitness_before: 0.0,
                racked: false,
                jobs: (0..3).map(job).collect(),
            })
        }
    }

    #[test]
    fn round_resizes_applies_and_stamps_the_audit() {
        use pollux_telemetry::{Event, MemorySink};
        use std::sync::Arc;

        // Job 0 runs on node 2, which the shrink removes; job 1 runs on
        // node 0; job 2 waits.
        let mut store = Owned(vec![
            OwnedJob::new(0, vec![0, 0, 1], true),
            OwnedJob::new(1, vec![1, 0, 0], true),
            OwnedJob::new(2, vec![0, 0, 0], false),
        ]);
        let sink = Arc::new(MemorySink::new(64));
        let mut planner = RoundPlanner::new();
        planner.attach_telemetry(Recorder::new(sink.clone()));
        let mut policy = Shrinking { topology: None };
        let mut spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        planner
            .round(&mut policy, &mut store, &mut spec, 60.0, 30.0, &mut rng)
            .unwrap();

        assert_eq!(spec.num_nodes(), 2);
        assert_eq!(policy.topology, Topology::grouped(2, 1));
        let [restarted, kept, started] = &store.0[..] else {
            unreachable!("three jobs")
        };
        // Preempted by the shrink, granted again: a restart.
        assert_eq!(restarted.placement, [0, 2]);
        let resumes_at = crate::JobState::Restarting { until: 90.0 };
        assert_eq!(restarted.lifecycle.state(), resumes_at);
        assert_eq!(restarted.lifecycle.num_restarts(), 1);
        // Kept its row: nothing applied, still running.
        assert_eq!(kept.placement, [1, 0]);
        assert_eq!(kept.lifecycle.state(), crate::JobState::Running);
        // First grant: a start, no restart.
        assert_eq!(started.placement, [0, 1]);
        assert_eq!(started.lifecycle.state(), crate::JobState::Running);
        assert_eq!(started.lifecycle.num_restarts(), 0);

        let audits: Vec<_> = sink
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                Event::Round(explain) => Some(explain),
                _ => None,
            })
            .collect();
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].time, 60.0);
        let co: Vec<Vec<u64>> = audits[0]
            .jobs
            .iter()
            .map(|j| j.co_residents.clone())
            .collect();
        assert_eq!(co, [vec![2], vec![], vec![0]]);
    }

    #[test]
    fn empty_round_plans_nothing_without_invoking_policy() {
        struct Panicky;
        impl SchedulingPolicy for Panicky {
            fn name(&self) -> &'static str {
                "panicky"
            }
            fn schedule(
                &mut self,
                _now: f64,
                _jobs: &[PolicyJobView<'_>],
                _spec: &ClusterSpec,
                _rng: &mut StdRng,
            ) -> AllocationMatrix {
                panic!("schedule must not run for an empty round")
            }
        }
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let plan = planner
            .plan(&mut Panicky, 0.0, &[], &spec, &mut rng)
            .unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn duplicate_job_ids_are_rejected() {
        let p0 = vec![0u32, 0];
        let views = [view(3, &p0, false), view(3, &p0, false)];
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let err = planner
            .plan(
                &mut Scripted::new(vec![matrix(&[&[1, 0], &[0, 1]])]),
                0.0,
                &views,
                &spec,
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, RoundError::DuplicateJobId(JobId(3)));
    }

    #[test]
    fn zero_gpu_round_preempts_started_job_then_restart_on_regrant() {
        // Round 1: a previously-running (started) job is allocated
        // zero GPUs — an explicit preemption that must NOT trigger a
        // restart. Round 2: the same job is granted GPUs again — that
        // re-allocation DOES pay the restart delay.
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = Scripted::new(vec![
            matrix(&[&[0, 0]]), // preempt
            matrix(&[&[0, 2]]), // re-grant
        ]);

        let held = vec![2u32, 0];
        let views = [view(0, &held, true)];
        let plan = planner
            .plan(&mut policy, 60.0, &views, &spec, &mut rng)
            .unwrap();
        assert_eq!(plan.len(), 1);
        let r = &plan[0];
        assert_eq!(r.job, JobId(0));
        assert_eq!(r.new, vec![0, 0]);
        assert_eq!(r.gpus(), 0);
        assert!(!r.triggers_restart, "preemption must not restart");

        // Applying the preemption moves the lifecycle, as `round` does.
        let mut lifecycle = crate::JobLifecycle::new();
        lifecycle.grant(false, 0.0, 30.0);
        assert!(lifecycle.preempt(60.0));
        assert_eq!(lifecycle.num_restarts(), 0);

        let idle = vec![0u32, 0];
        let views = [view(0, &idle, true)];
        let plan = planner
            .plan(&mut policy, 120.0, &views, &spec, &mut rng)
            .unwrap();
        assert_eq!(plan.len(), 1);
        let r = &plan[0];
        assert_eq!(r.new, vec![0, 2]);
        assert!(r.triggers_restart, "resuming a started job restarts it");
        lifecycle.grant(r.triggers_restart, 120.0, 30.0);
        assert_eq!(
            lifecycle.state(),
            crate::JobState::Restarting { until: 150.0 }
        );
        assert_eq!(lifecycle.num_restarts(), 1);
    }

    #[test]
    fn unchanged_and_pending_to_pending_rows_are_silent() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(0);
        let held = vec![1u32, 0];
        let idle = vec![0u32, 0];
        // Job 0 keeps its row; job 1 stays pending; job 2 first-starts.
        let views = [
            view(0, &held, true),
            view(1, &idle, false),
            view(2, &idle, false),
        ];
        let m = matrix(&[&[1, 0], &[0, 0], &[0, 1]]);
        let plan = planner
            .plan(&mut Scripted::new(vec![m]), 0.0, &views, &spec, &mut rng)
            .unwrap();
        assert_eq!(plan.len(), 1);
        let r = &plan[0];
        assert_eq!(r.job, JobId(2));
        assert_eq!(r.row, 2);
        assert!(!r.triggers_restart, "first start is not a restart");
    }

    #[test]
    fn quiet_round_materializes_zero_rows_and_churn_only_changed() {
        // 64 jobs each holding one GPU on their own node; the policy
        // returns exactly the current allocation. The diff phase must
        // allocate nothing: O(changed) == 0, not O(jobs).
        let jobs = 64usize;
        let spec = ClusterSpec::homogeneous(jobs as u32, 4).unwrap();
        let placements: Vec<Vec<u32>> = (0..jobs)
            .map(|j| {
                let mut p = vec![0u32; jobs];
                p[j] = 1;
                p
            })
            .collect();
        let views: Vec<PolicyJobView<'_>> = placements
            .iter()
            .enumerate()
            .map(|(j, p)| view(j as u32, p, true))
            .collect();
        let quiet = AllocationMatrix::from_rows(placements.clone(), jobs).unwrap();
        // Round 2: only job 0 moves (node 0 -> node 1's second slot).
        let mut churned_rows = placements.clone();
        churned_rows[0] = vec![0; jobs];
        churned_rows[0][1] = 1;
        let churned = AllocationMatrix::from_rows(churned_rows, jobs).unwrap();

        let (mut planner, rec) = counted_planner();
        let mut rng = StdRng::seed_from_u64(0);
        let mut policy = Scripted::new(vec![quiet, churned]);

        let plan = planner
            .plan(&mut policy, 60.0, &views, &spec, &mut rng)
            .unwrap();
        assert!(plan.is_empty());
        assert_eq!(
            rec.counter_value("control", "reallocations"),
            0,
            "a quiet round must not materialize any placement rows"
        );

        let plan = planner
            .plan(&mut policy, 120.0, &views, &spec, &mut rng)
            .unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].job, JobId(0));
        assert_eq!(
            rec.counter_value("control", "reallocations"),
            1,
            "round cost must scale with churn, not job count"
        );
    }

    #[test]
    fn infeasible_matrices_are_clamped_to_capacity() {
        let spec = ClusterSpec::homogeneous(1, 2).unwrap();
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(0);
        let idle = vec![0u32];
        let views = [view(0, &idle, false), view(1, &idle, false)];
        // 4 GPUs demanded on a 2-GPU node: round-robin decrement trims
        // to capacity.
        let m = matrix(&[&[2], &[2]]);
        let plan = planner
            .plan(&mut Scripted::new(vec![m]), 0.0, &views, &spec, &mut rng)
            .unwrap();
        let total: u32 = plan.iter().map(|r| r.gpus()).sum();
        assert!(total <= 2, "clamped total {total}");
        // A matrix narrower than the cluster is widened with zeros.
        let spec_wide = ClusterSpec::homogeneous(3, 2).unwrap();
        let idle3 = vec![0u32, 0, 0];
        let views = [view(0, &idle3, false)];
        let plan = planner
            .plan(
                &mut Scripted::new(vec![matrix(&[&[1]])]),
                0.0,
                &views,
                &spec_wide,
                &mut rng,
            )
            .unwrap();
        assert_eq!(plan[0].new, vec![1, 0, 0]);
    }

    /// The clamp as it was before it took whole turns: one GPU a step,
    /// re-summing the column before each. Quadratic in the excess, and
    /// it overflows a `u32` column; the oracle for small matrices.
    fn clamp_one_gpu_a_step(m: &mut AllocationMatrix, spec: &ClusterSpec) {
        if m.num_nodes() != spec.num_nodes() {
            m.resize_nodes(spec.num_nodes());
        }
        for node in m.over_capacity_nodes(spec) {
            let n = node.index();
            let cap = spec.gpus_on(node);
            let mut j = 0;
            while m.gpus_used_on(n) > cap {
                if m.get(j, n) > 0 {
                    m.set(j, n, m.get(j, n) - 1);
                }
                j = (j + 1) % m.num_jobs().max(1);
            }
        }
    }

    #[test]
    fn a_column_past_u32_max_is_clamped_not_wrapped() {
        // Two rows of 2³¹ + 1 GPUs sum to 2³² + 2, which a u32 column
        // wraps to 2: a 2-GPU node would look exactly full.
        let spec = ClusterSpec::homogeneous(1, 2).unwrap();
        let huge = (1u32 << 31) + 1;
        let m = matrix(&[&[huge], &[huge]]);
        assert!(!m.is_feasible(&spec));
        assert_eq!(m.gpus_used_on(0), u32::MAX, "saturates, not wraps");
        let idle = vec![0u32];
        let views = [view(0, &idle, false), view(1, &idle, false)];
        let plan = RoundPlanner::new()
            .plan(
                &mut Scripted::new(vec![m]),
                0.0,
                &views,
                &spec,
                &mut StdRng::seed_from_u64(0),
            )
            .unwrap();
        let rows: Vec<&[u32]> = plan.iter().map(|r| r.new.as_slice()).collect();
        assert_eq!(rows, [&[1], &[1]]);
    }

    #[test]
    fn a_u32_max_cell_is_clamped_in_whole_turns() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut m = matrix(&[&[u32::MAX, 1], &[3, 0]]);
        clamp_matrix(&mut m, &spec);
        // Three whole turns empty row 1's cell; the one live cell left
        // is then u32::MAX − 7 over, taken off in one step of as many
        // turns.
        assert_eq!(m.row(0), &[4, 1]);
        assert_eq!(m.row(1), &[0, 0]);
        assert!(m.is_feasible(&spec));
    }

    proptest::proptest! {
        #[test]
        fn whole_turns_clamp_cell_for_cell_like_one_gpu_a_step(
            (nodes, rows) in (1usize..4, 1usize..6).prop_flat_map(|(nodes, jobs)| {
                (
                    proptest::strategy::Just(nodes),
                    proptest::collection::vec(proptest::collection::vec(0u32..9, nodes), jobs),
                )
            }),
            caps in proptest::collection::vec(1u32..6, 4),
        ) {
            let nodes: Vec<_> = caps[..nodes].iter().map(|&gpus| NodeSpec { gpus }).collect();
            let spec = ClusterSpec::new(nodes).unwrap();
            let width = spec.num_nodes();
            let mut fast = AllocationMatrix::from_rows(rows, width).unwrap();
            let mut slow = fast.clone();
            clamp_matrix(&mut fast, &spec);
            clamp_one_gpu_a_step(&mut slow, &spec);
            proptest::prop_assert_eq!(&fast, &slow);
            proptest::prop_assert!(fast.is_feasible(&spec));
        }
    }

    /// A sparse policy: returns preloaded deltas per round and panics
    /// if the dense path is ever consulted.
    struct SparseScripted {
        rounds: Vec<Vec<PlacementDelta>>,
        next: usize,
    }

    impl SchedulingPolicy for SparseScripted {
        fn name(&self) -> &'static str {
            "sparse-scripted"
        }
        fn schedule(
            &mut self,
            _now: f64,
            _jobs: &[PolicyJobView<'_>],
            _spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> AllocationMatrix {
            panic!("dense schedule must not run when schedule_sparse answers")
        }
        fn schedule_sparse(
            &mut self,
            _now: f64,
            _jobs: &[PolicyJobView<'_>],
            _spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> Option<Vec<PlacementDelta>> {
            let i = self.next;
            self.next += 1;
            Some(self.rounds.get(i).cloned().unwrap_or_default())
        }
    }

    #[test]
    fn sparse_quiet_round_materializes_zero_rows() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let (mut planner, rec) = counted_planner();
        let mut rng = StdRng::seed_from_u64(0);
        let p0 = vec![2u32, 0];
        let p1 = vec![0u32, 2];
        let views = [view(0, &p0, true), view(1, &p1, true)];
        let mut policy = SparseScripted {
            rounds: vec![vec![]],
            next: 0,
        };
        let plan = planner
            .plan(&mut policy, 0.0, &views, &spec, &mut rng)
            .unwrap();
        assert!(plan.is_empty());
        assert_eq!(rec.counter_value("control", "reallocations"), 0);
    }

    #[test]
    fn sparse_deltas_are_padded_diffed_and_noop_dropped() {
        let spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let (mut planner, rec) = counted_planner();
        let mut rng = StdRng::seed_from_u64(0);
        let p0 = vec![2u32, 0, 0];
        let p1 = vec![0u32, 2, 0];
        let p2 = vec![0u32, 0, 0];
        let views = [view(0, &p0, true), view(1, &p1, true), view(2, &p2, false)];
        let mut policy = SparseScripted {
            rounds: vec![vec![
                // Row 0: narrow no-op delta (pads to [2,0,0]) — dropped.
                PlacementDelta {
                    row: 0,
                    gpus: vec![2],
                },
                // Row 1: a real move.
                PlacementDelta {
                    row: 1,
                    gpus: vec![0, 0, 2],
                },
                // Row 2: pending job granted nothing — dropped.
                PlacementDelta {
                    row: 2,
                    gpus: vec![],
                },
                // Out-of-range row — ignored.
                PlacementDelta {
                    row: 9,
                    gpus: vec![4, 0, 0],
                },
            ]],
            next: 0,
        };
        let plan = planner
            .plan(&mut policy, 5.0, &views, &spec, &mut rng)
            .unwrap();
        assert_eq!(plan.len(), 1);
        let r = &plan[0];
        assert_eq!(r.job, JobId(1));
        assert_eq!(r.new, vec![0, 0, 2]);
        assert!(r.triggers_restart);
        assert_eq!(rec.counter_value("control", "reallocations"), 1);
    }

    #[test]
    fn sparse_path_still_rejects_duplicate_ids() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(0);
        let p0 = vec![0u32, 0];
        let views = [view(5, &p0, false), view(5, &p0, false)];
        let mut policy = SparseScripted {
            rounds: vec![vec![]],
            next: 0,
        };
        let err = planner
            .plan(&mut policy, 0.0, &views, &spec, &mut rng)
            .unwrap_err();
        assert_eq!(err, RoundError::DuplicateJobId(JobId(5)));
    }

    #[test]
    fn id_cache_revalidates_unchanged_sequences_and_catches_new_duplicates() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut planner = RoundPlanner::new();
        let mut rng = StdRng::seed_from_u64(0);
        let p0 = vec![0u32, 0];
        // Round 1 proves [1, 2] unique and caches the sequence.
        let views = [view(1, &p0, false), view(2, &p0, false)];
        let mut policy = SparseScripted {
            rounds: vec![vec![], vec![], vec![]],
            next: 0,
        };
        planner
            .plan(&mut policy, 0.0, &views, &spec, &mut rng)
            .unwrap();
        // Round 2: identical sequence — revalidated by the O(n) scan.
        planner
            .plan(&mut policy, 1.0, &views, &spec, &mut rng)
            .unwrap();
        // Round 3: the sequence changed AND now contains a duplicate —
        // the cache must not mask it.
        let dup = [view(2, &p0, false), view(2, &p0, false)];
        let err = planner
            .plan(&mut policy, 2.0, &dup, &spec, &mut rng)
            .unwrap_err();
        assert_eq!(err, RoundError::DuplicateJobId(JobId(2)));
        // Round 4: after the rejected round, a valid changed sequence
        // still passes.
        let ok = [view(2, &p0, false), view(3, &p0, false)];
        planner
            .plan(
                &mut Scripted::new(vec![matrix(&[&[0, 0], &[0, 0]])]),
                3.0,
                &ok,
                &spec,
                &mut rng,
            )
            .unwrap();
    }
}
