//! Blox-style staged scheduler decomposition.
//!
//! Blox ("Blox: A Modular Toolkit for Deep Learning Schedulers",
//! EuroSys '24) observes that most DL cluster schedulers factor into
//! three orthogonal decisions composed over one cluster abstraction:
//!
//! 1. **admission** — which jobs may hold GPUs this round, and how
//!    many ([`AdmissionPolicy`]);
//! 2. **preemption** — which running jobs are eligible to yield their
//!    GPUs to make room ([`PreemptionPolicy`]);
//! 3. **placement** — which concrete GPUs each admitted job gets
//!    ([`PlacementPolicy`]).
//!
//! [`StagedScheduler`] composes one implementation of each stage into
//! a [`SchedulingPolicy`], so the `RoundPlanner`, the simulator
//! engine, and the live `ClusterService` drive a staged policy exactly
//! like a monolithic one. A new scheduling idea is usually one small
//! stage implementation (~100 LoC) instead of a new monolith — see
//! DESIGN.md §10 for the composition contract and the policy zoo.
//!
//! ## Round pipeline
//!
//! ```text
//! schedule(now, jobs, spec, rng):
//!   1. victims = preemption.yield_rows(...)        (running rows only)
//!   2. running jobs NOT in victims are *held*: their current
//!      placement is copied into the matrix verbatim and deducted
//!      from free capacity (a held job whose placement no longer fits
//!      a shrunken cluster is implicitly preempted this round)
//!   3. admitted = admission.admit(..., held, free) (ordered rows+GPUs;
//!      held rows must not appear)
//!   4. placement.place(..., admitted, free, matrix)
//! ```
//!
//! Fully-preemptive policies (Tiresias, Optimus, SRTF) use
//! [`PreemptAll`], which makes the held set empty: admission then
//! ranks *every* job and placement rebuilds the whole matrix, which is
//! exactly the shape of the monolithic baselines — the staged ports
//! reproduce their pre-refactor trajectories byte-for-byte (pinned by
//! `pollux-core/tests/baseline_golden.rs`). Non-preemptive policies
//! (gang FIFO) use [`NoPreemption`], so running jobs are never
//! disturbed and admission fills only the free GPUs.
//!
//! ## Determinism contract
//!
//! Stages draw RNG only through the `rng` argument and are invoked in
//! the fixed order above, so a staged policy inherits the simulator's
//! bit-reproducibility guarantees as long as each stage is itself a
//! pure function of its inputs (all in-repo stages are; none draw).

use crate::policy::{PolicyJobView, SchedulingPolicy};
use pollux_cluster::{AllocationMatrix, ClusterSpec};
use pollux_telemetry::{Counter, Recorder};
use rand::rngs::StdRng;

/// One admission decision: the job at view index `row` may hold
/// `gpus` GPUs this round. Order is meaningful — placement stages
/// honor it (e.g. consolidated placement packs in admitted order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// Index into the round's view slice.
    pub row: usize,
    /// GPUs the job is entitled to this round (> 0).
    pub gpus: u32,
}

/// Stage 1 of a [`StagedScheduler`] round: which running jobs are
/// eligible to yield their GPUs this round.
pub trait PreemptionPolicy: Send {
    /// Stage name (shown in telemetry metadata).
    fn name(&self) -> &'static str;

    /// Returns the view rows of running jobs that may be preempted
    /// this round, ascending, each at most once. Rows of non-running
    /// jobs are ignored by the composer. A job NOT returned here keeps
    /// its current placement untouched.
    fn yield_rows(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Vec<usize>;
}

/// Stage 2 of a [`StagedScheduler`] round: which jobs may hold GPUs
/// this round, in priority order, and how many.
pub trait AdmissionPolicy: Send {
    /// Stage name (shown in telemetry metadata).
    fn name(&self) -> &'static str;

    /// Ranks the round's jobs and returns the ordered entitlement
    /// list. `held[row]` marks running jobs whose placement is already
    /// locked in (they must not be admitted again); `free` is the
    /// remaining per-node capacity after held placements. Admission
    /// decides *counts*, never concrete GPUs — that is placement's
    /// job — but the total admitted GPUs should fit `free` (the
    /// planner clamps defensively, and the stage-invariant proptests
    /// require feasibility from every in-repo stage).
    fn admit(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        held: &[bool],
        free: &[u32],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Vec<Admitted>;

    /// Cloud auto-scaling hook, forwarded from
    /// [`SchedulingPolicy::desired_nodes`] (admission is the stage
    /// that controls cluster entry, so it owns sizing too). Default:
    /// keep the cluster fixed.
    fn desired_nodes(
        &mut self,
        _now: f64,
        _jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<u32> {
        None
    }

    /// Batch-size hook, forwarded from
    /// [`SchedulingPolicy::choose_batch_size`] (Or et al. scales the
    /// batch with the workers it admits). Default: keep the job's
    /// current batch size.
    fn choose_batch_size(&self, _job: &PolicyJobView<'_>) -> Option<u64> {
        None
    }
}

/// Stage 3 of a [`StagedScheduler`] round: concrete GPU rows for the
/// admitted jobs.
pub trait PlacementPolicy: Send {
    /// Stage name (shown in telemetry metadata).
    fn name(&self) -> &'static str;

    /// Writes a placement row into `matrix` for each admitted job,
    /// deducting every granted GPU from `free`. Jobs that cannot be
    /// placed within `free` are left at their all-zero row (they stay
    /// pending / become preempted). Must never exceed `free` — the
    /// feasibility of the composed matrix is placement's
    /// responsibility.
    fn place(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        admitted: &[Admitted],
        free: &mut [u32],
        matrix: &mut AllocationMatrix,
        rng: &mut StdRng,
    );
}

/// Every running job may yield: the fully-preemptive stage used by
/// Tiresias, Optimus, SRTF/SRSF, and Or et al.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreemptAll;

impl PreemptionPolicy for PreemptAll {
    fn name(&self) -> &'static str {
        "preempt-all"
    }

    fn yield_rows(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Vec<usize> {
        jobs.iter()
            .enumerate()
            .filter(|(_, v)| v.is_running())
            .map(|(row, _)| row)
            .collect()
    }
}

/// No running job ever yields: the non-preemptive stage used by gang
/// FIFO. Admission sees only the GPUs left free by running jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPreemption;

impl PreemptionPolicy for NoPreemption {
    fn name(&self) -> &'static str {
        "no-preemption"
    }

    fn yield_rows(
        &mut self,
        _now: f64,
        _jobs: &[PolicyJobView<'_>],
        _spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Vec<usize> {
        Vec::new()
    }
}

/// Attempts to place `need` GPUs onto the nodes with free capacities
/// `free`, using as few nodes as possible (fullest-free-first).
///
/// Returns the per-node allocation row, or `None` when the total free
/// capacity is insufficient. On success the `free` vector is updated
/// in place.
pub fn pack_consolidated(need: u32, free: &mut [u32]) -> Option<Vec<u32>> {
    if need == 0 {
        return Some(vec![0; free.len()]);
    }
    let total: u32 = free.iter().sum();
    if total < need {
        return None;
    }
    // Nodes sorted by free capacity descending (stable on index for
    // determinism).
    let mut order: Vec<usize> = (0..free.len()).collect();
    order.sort_by(|&a, &b| free[b].cmp(&free[a]).then(a.cmp(&b)));

    let mut row = vec![0u32; free.len()];
    let mut remaining = need;
    for &n in &order {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(free[n]);
        if take > 0 {
            row[n] = take;
            free[n] -= take;
            remaining -= take;
        }
    }
    debug_assert_eq!(remaining, 0, "total capacity was checked upfront");
    Some(row)
}

/// Tries to keep a job's existing placement: succeeds when every node
/// still has the required free capacity. On success, capacity is
/// deducted from `free`.
pub fn keep_placement(current: &[u32], free: &mut [u32]) -> bool {
    if current.len() != free.len() {
        return false;
    }
    if current.iter().zip(free.iter()).any(|(&c, &f)| c > f) {
        return false;
    }
    for (f, &c) in free.iter_mut().zip(current) {
        *f -= c;
    }
    true
}

/// The shared consolidated-placement stage: admitted jobs whose
/// current placement already matches their entitlement keep it (no
/// gratuitous checkpoint-restart); everyone else is packed onto as few
/// nodes as possible, fullest-free-first.
///
/// This is the one placement heuristic Tiresias and Optimus both used
/// inline pre-decomposition; the only degree of freedom between them
/// is the packing order, so it is a constructor choice here rather
/// than two copies of the loop.
#[derive(Debug, Clone, Copy)]
pub struct ConsolidatedPlacement {
    /// Pack jobs largest-entitlement-first (Optimus) instead of in
    /// admitted order (Tiresias). Ties keep admitted order either way
    /// (stable sort).
    largest_first: bool,
}

impl ConsolidatedPlacement {
    /// Packs in admitted (priority) order — Tiresias's choice.
    pub fn admitted_order() -> Self {
        Self {
            largest_first: false,
        }
    }

    /// Packs largest jobs first — Optimus's choice (big jobs get the
    /// contiguous capacity, small jobs fill the gaps).
    pub fn largest_first() -> Self {
        Self {
            largest_first: true,
        }
    }
}

impl PlacementPolicy for ConsolidatedPlacement {
    fn name(&self) -> &'static str {
        if self.largest_first {
            "consolidated-largest-first"
        } else {
            "consolidated"
        }
    }

    fn place(
        &mut self,
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        admitted: &[Admitted],
        free: &mut [u32],
        matrix: &mut AllocationMatrix,
        _rng: &mut StdRng,
    ) {
        // First pass: keep placements whose GPU count already matches
        // the entitlement, to avoid gratuitous checkpoint-restarts.
        let mut needs_placing: Vec<Admitted> = Vec::new();
        for &a in admitted {
            let Some(view) = jobs.get(a.row) else {
                continue;
            };
            let current: u32 = view.current_placement.iter().sum();
            if a.gpus > 0 && current == a.gpus && keep_placement(view.current_placement, free) {
                matrix.copy_row(a.row, view.current_placement);
            } else if a.gpus > 0 {
                needs_placing.push(a);
            }
        }

        // Second pass: consolidated packing for the rest.
        if self.largest_first {
            needs_placing.sort_by_key(|a| std::cmp::Reverse(a.gpus));
        }
        for a in needs_placing {
            if let Some(row) = pack_consolidated(a.gpus, free) {
                matrix.copy_row(a.row, &row);
            }
        }
    }
}

/// Composes one admission, one placement, and one preemption stage
/// into a [`SchedulingPolicy`] (see the module docs for the round
/// pipeline). Construct with [`StagedScheduler::new`]; the policy
/// `name` is what experiment tables and `SimResult::policy` report.
pub struct StagedScheduler {
    name: &'static str,
    admission: Box<dyn AdmissionPolicy>,
    placement: Box<dyn PlacementPolicy>,
    preemption: Box<dyn PreemptionPolicy>,
    /// Hoisted per-round counters: pending jobs granted GPUs /
    /// running jobs stripped of them. Disabled (free) by default.
    admitted_ctr: Counter,
    preempted_ctr: Counter,
    /// Whether a live recorder is attached — gates the O(jobs)
    /// post-round counter scan so recorder-free runs pay nothing.
    telemetry_live: bool,
}

impl std::fmt::Debug for StagedScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedScheduler")
            .field("name", &self.name)
            .field("admission", &self.admission.name())
            .field("placement", &self.placement.name())
            .field("preemption", &self.preemption.name())
            .finish()
    }
}

impl StagedScheduler {
    /// Composes the three stages under a policy `name`.
    pub fn new(
        name: &'static str,
        admission: impl AdmissionPolicy + 'static,
        placement: impl PlacementPolicy + 'static,
        preemption: impl PreemptionPolicy + 'static,
    ) -> Self {
        Self {
            name,
            admission: Box::new(admission),
            placement: Box::new(placement),
            preemption: Box::new(preemption),
            admitted_ctr: Counter::detached(),
            preempted_ctr: Counter::detached(),
            telemetry_live: false,
        }
    }

    /// The composed stage names, `(admission, placement, preemption)`.
    pub fn stage_names(&self) -> (&'static str, &'static str, &'static str) {
        (
            self.admission.name(),
            self.placement.name(),
            self.preemption.name(),
        )
    }
}

impl SchedulingPolicy for StagedScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

    fn schedule(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> AllocationMatrix {
        let num_nodes = spec.num_nodes();
        let mut matrix = AllocationMatrix::zeros(jobs.len(), num_nodes);
        let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();

        // Stage 1: preemption eligibility.
        let victims = self.preemption.yield_rows(now, jobs, spec, rng);
        let mut may_yield = vec![false; jobs.len()];
        for &row in &victims {
            if row < jobs.len() {
                may_yield[row] = true;
            }
        }

        // Running jobs that may not yield hold their placement
        // verbatim. A held placement that no longer fits (the cluster
        // shrank underneath it) falls through: the job is implicitly
        // preempted this round.
        let mut held = vec![false; jobs.len()];
        for (row, view) in jobs.iter().enumerate() {
            if view.is_running()
                && !may_yield[row]
                && keep_placement(view.current_placement, &mut free)
            {
                matrix.copy_row(row, view.current_placement);
                held[row] = true;
            }
        }

        // Stage 2: admission over everything not already held.
        let admitted = self.admission.admit(now, jobs, &held, &free, spec, rng);
        debug_assert!(
            admitted.iter().all(|a| !held.get(a.row).unwrap_or(&false)),
            "admission must not re-admit held rows"
        );

        // Stage 3: placement of the admitted jobs.
        self.placement
            .place(now, jobs, &admitted, &mut free, &mut matrix, rng);

        // Observational round accounting: entrants (pending jobs that
        // now hold GPUs) and evictions (running jobs that lost all of
        // theirs). Gated on a live recorder so the scan costs nothing
        // otherwise; counters never feed back into the schedule.
        if self.telemetry_live {
            let mut entered = 0u64;
            let mut evicted = 0u64;
            for (row, view) in jobs.iter().enumerate() {
                let has = matrix.gpus_of(row) > 0;
                match (view.is_running(), has) {
                    (false, true) => entered += 1,
                    (true, false) => evicted += 1,
                    _ => {}
                }
            }
            self.admitted_ctr.add(entered);
            self.preempted_ctr.add(evicted);
        }

        matrix
    }

    fn desired_nodes(
        &mut self,
        now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        rng: &mut StdRng,
    ) -> Option<u32> {
        self.admission.desired_nodes(now, jobs, spec, rng)
    }

    fn choose_batch_size(&self, job: &PolicyJobView<'_>) -> Option<u64> {
        self.admission.choose_batch_size(job)
    }

    fn attach_telemetry(&mut self, recorder: Recorder) {
        self.admitted_ctr = recorder.counter("control", "admitted");
        self.preempted_ctr = recorder.counter("control", "preempted");
        self.telemetry_live = recorder.is_enabled();
        // Stage identities, so captures name who made each decision.
        recorder.meta("sched", "admission", self.admission.name());
        recorder.meta("sched", "placement", self.placement.name());
        recorder.meta("sched", "preemption", self.preemption.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::BatchSizeLimits;
    use pollux_workload::UserConfig;
    use rand::SeedableRng;

    fn view<'a>(id: u32, placement: &'a [u32], submit: f64) -> PolicyJobView<'a> {
        PolicyJobView {
            id: JobId(id),
            user: UserConfig {
                gpus: 2,
                batch_size: 128,
            },
            profile: None,
            limits: BatchSizeLimits::new(128, 1024, 512).unwrap(),
            report: None,
            gputime: 0.0,
            submit_time: submit,
            current_placement: placement,
            started: false,
            batch_size: 128,
            remaining_work: 1e6,
        }
    }

    /// FIFO admission over free GPUs: the minimal test stage.
    struct FifoTest;

    impl AdmissionPolicy for FifoTest {
        fn name(&self) -> &'static str {
            "fifo-test"
        }
        fn admit(
            &mut self,
            _now: f64,
            jobs: &[PolicyJobView<'_>],
            held: &[bool],
            free: &[u32],
            _spec: &ClusterSpec,
            _rng: &mut StdRng,
        ) -> Vec<Admitted> {
            let mut budget: u32 = free.iter().sum();
            let mut order: Vec<usize> = (0..jobs.len()).filter(|&r| !held[r]).collect();
            order.sort_by(|&a, &b| {
                jobs[a]
                    .submit_time
                    .total_cmp(&jobs[b].submit_time)
                    .then(a.cmp(&b))
            });
            let mut admitted = Vec::new();
            for row in order {
                let need = jobs[row].user.gpus.max(1);
                if need <= budget {
                    admitted.push(Admitted { row, gpus: need });
                    budget -= need;
                }
            }
            admitted
        }
    }

    #[test]
    fn preempt_all_composes_a_full_rebuild() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let held_row = vec![2u32, 0];
        let idle = vec![0u32, 0];
        // A running late job and a pending early job: with PreemptAll
        // and FIFO admission, the early job wins the GPUs.
        let views = [view(0, &held_row, 100.0), view(1, &idle, 0.0)];
        let mut staged = StagedScheduler::new(
            "fifo-preemptive",
            FifoTest,
            ConsolidatedPlacement::admitted_order(),
            PreemptAll,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let m = staged.schedule(0.0, &views, &spec, &mut rng);
        assert_eq!(m.gpus_of(1), 2);
        // Both fit on 8 GPUs, so the running job stays too — and keeps
        // its exact placement (admitted with its current count).
        assert_eq!(m.row(0), &[2, 0]);
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn no_preemption_holds_running_jobs_verbatim() {
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let held_row = vec![4u32];
        let idle = vec![0u32];
        // The running job occupies the whole node; a higher-priority
        // pending job must NOT displace it under NoPreemption.
        let views = [view(0, &held_row, 100.0), view(1, &idle, 0.0)];
        let mut staged = StagedScheduler::new(
            "fifo-nonpreemptive",
            FifoTest,
            ConsolidatedPlacement::admitted_order(),
            NoPreemption,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let m = staged.schedule(0.0, &views, &spec, &mut rng);
        assert_eq!(m.row(0), &[4]);
        assert_eq!(m.gpus_of(1), 0, "no free GPUs to admit into");
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn held_job_on_shrunk_cluster_is_implicitly_preempted() {
        // The job holds GPUs on a node that no longer exists; keep
        // fails, so the row comes back empty (and the freed capacity
        // is available to admission).
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let stale = vec![2u32, 2]; // two-node placement, one-node cluster
        let views = [view(0, &stale, 0.0)];
        let mut staged = StagedScheduler::new(
            "fifo-nonpreemptive",
            FifoTest,
            ConsolidatedPlacement::admitted_order(),
            NoPreemption,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let m = staged.schedule(0.0, &views, &spec, &mut rng);
        // The job was not held, so FIFO re-admits it into the free
        // node at its requested 2 GPUs.
        assert_eq!(m.row(0), &[2]);
        assert!(m.is_feasible(&spec));
    }

    #[test]
    fn consolidated_placement_keeps_matching_then_packs() {
        let spec = ClusterSpec::homogeneous(3, 4).unwrap();
        let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();
        let cur0 = vec![0u32, 2, 0];
        let idle = vec![0u32, 0, 0];
        let views = [view(0, &cur0, 0.0), view(1, &idle, 1.0)];
        let admitted = [Admitted { row: 0, gpus: 2 }, Admitted { row: 1, gpus: 4 }];
        let mut matrix = AllocationMatrix::zeros(2, 3);
        let mut rng = StdRng::seed_from_u64(0);
        ConsolidatedPlacement::admitted_order().place(
            0.0,
            &views,
            &admitted,
            &mut free,
            &mut matrix,
            &mut rng,
        );
        // Job 0 keeps its exact row; job 1 packs onto one full node.
        assert_eq!(matrix.row(0), &[0, 2, 0]);
        assert_eq!(matrix.nodes_of(1), 1);
        assert_eq!(matrix.gpus_of(1), 4);
    }

    #[test]
    fn largest_first_packs_big_jobs_before_small() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let mut free: Vec<u32> = spec.iter().map(|(_, s)| s.gpus).collect();
        let idle = vec![0u32, 0];
        let views = [view(0, &idle, 0.0), view(1, &idle, 1.0)];
        // Admitted order is small-then-big; largest-first must give
        // the big job the single-node placement.
        let admitted = [Admitted { row: 0, gpus: 2 }, Admitted { row: 1, gpus: 4 }];
        let mut matrix = AllocationMatrix::zeros(2, 2);
        let mut rng = StdRng::seed_from_u64(0);
        ConsolidatedPlacement::largest_first().place(
            0.0,
            &views,
            &admitted,
            &mut free,
            &mut matrix,
            &mut rng,
        );
        assert_eq!(matrix.nodes_of(1), 1, "big job consolidated first");
        assert_eq!(matrix.gpus_of(0), 2);
    }

    #[test]
    fn admitted_counters_track_entrants_and_evictions() {
        use pollux_telemetry::{MemorySink, Sink};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new(64));
        let recorder = Recorder::new(sink.clone() as Arc<dyn Sink>);
        // Only one 2-GPU job fits, so FIFO order decides who runs.
        let spec = ClusterSpec::homogeneous(1, 2).unwrap();
        let held_row = vec![2u32];
        let idle = vec![0u32];
        let views = [view(0, &held_row, 100.0), view(1, &idle, 0.0)];
        let mut staged = StagedScheduler::new(
            "fifo-preemptive",
            FifoTest,
            ConsolidatedPlacement::admitted_order(),
            PreemptAll,
        );
        staged.attach_telemetry(recorder.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let m = staged.schedule(0.0, &views, &spec, &mut rng);
        // The earlier pending job evicts the running one.
        assert_eq!(m.gpus_of(1), 2);
        assert_eq!(m.gpus_of(0), 0);
        assert_eq!(recorder.counter_value("control", "admitted"), 1);
        assert_eq!(recorder.counter_value("control", "preempted"), 1);
    }
}
