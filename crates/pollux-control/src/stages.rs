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
//! ## Shared stages
//!
//! Two stages here serve most of the zoo. [`RankedBackfill`] is the one
//! rank-then-backfill admission (gang FIFO, Tiresias' LAS, SRTF and
//! SRSF are four [`Rank`]s of it, and Optimus' minimum pass runs
//! [`ranked_backfill`] too); [`ConsolidatedPlacement`] is the one
//! keep-then-pack placement, with fullest-first, largest-first and
//! Gandiva best-fit packings.
//!
//! ## Determinism contract
//!
//! Stages draw RNG only through the `rng` argument and are invoked in
//! the fixed order above, so a staged policy inherits the simulator's
//! bit-reproducibility guarantees as long as each stage is itself a
//! pure function of its inputs (all in-repo stages are; none draw).

use crate::policy::{PolicyJobView, SchedulingPolicy};
use pollux_cluster::{row_is_empty, row_shape, AllocationMatrix, ClusterSpec};
use pollux_telemetry::{Counter, HistogramHandle, Recorder};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::time::Instant;

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

/// A row's key in a [`RankedBackfill`]: lower ranks are admitted
/// first.
pub type Rank = fn(&PolicyJobView<'_>) -> f64;

/// The rank-and-backfill body: the rows not `held`, ordered by
/// (`rank`, submit time, row), each admitted at `need` GPUs while
/// `budget` lasts. A row that does not fit is skipped, so smaller rows
/// backfill around it; `budget` is left at what nobody took. Keys
/// compare by `partial_cmp` (an incomparable pair ties), and each
/// row's rank is computed once, never inside the comparator.
pub fn ranked_backfill(
    jobs: &[PolicyJobView<'_>],
    held: &[bool],
    rank: impl Fn(&PolicyJobView<'_>) -> f64,
    need: impl Fn(&PolicyJobView<'_>) -> u32,
    budget: &mut u32,
) -> Vec<Admitted> {
    let mut order: Vec<(f64, f64, usize)> = jobs
        .iter()
        .enumerate()
        .filter(|&(row, _)| !held[row])
        .map(|(row, job)| (rank(job), job.submit_time, row))
        .collect();
    let by = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
    order.sort_by(|a, b| {
        by(a.0, b.0)
            .then_with(|| by(a.1, b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    let mut admitted = Vec::new();
    for (_, _, row) in order {
        let need = need(&jobs[row]);
        if need <= *budget {
            admitted.push(Admitted { row, gpus: need });
            *budget -= need;
        }
    }
    admitted
}

/// The one ranked-backfill admission stage: every row that is not held
/// asks for its user GPU count (at least 1), and rows are admitted in
/// [`ranked_backfill`] order over the free GPUs. The zoo's four orders
/// differ only in the [`Rank`]: gang FIFO ranks every row alike (submit
/// time decides), Tiresias' LAS puts rows past its attained-service
/// threshold second, SRTF ranks by remaining work and SRSF by
/// remaining work × GPUs.
#[derive(Debug, Clone, Copy)]
pub struct RankedBackfill {
    name: &'static str,
    rank: Rank,
}

impl RankedBackfill {
    /// The stage `name`, admitting in `rank` order.
    pub fn new(name: &'static str, rank: Rank) -> Self {
        Self { name, rank }
    }
}

impl AdmissionPolicy for RankedBackfill {
    fn name(&self) -> &'static str {
        self.name
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
        let mut budget = free.iter().sum();
        ranked_backfill(jobs, held, self.rank, |j| j.user.gpus.max(1), &mut budget)
    }
}

/// Attempts to place `need` GPUs onto the nodes with free capacities
/// `free`, using as few nodes as possible (fullest-free-first).
///
/// Returns the per-node allocation row, or `None` when the total free
/// capacity is insufficient. On success the `free` vector is updated
/// in place.
///
/// Each take empties the fullest node (lowest index on ties) but the
/// last, and changes no other node, so taking the fullest node again
/// visits the nodes in the order a stable sort by free capacity would
/// — without building or sorting an index of the cluster.
pub fn pack_consolidated(need: u32, free: &mut [u32]) -> Option<Vec<u32>> {
    let total: u64 = free.iter().map(|&f| u64::from(f)).sum();
    if total < u64::from(need) {
        return None;
    }
    let mut row = vec![0u32; free.len()];
    let mut remaining = need;
    while remaining > 0 {
        // The fullest node, lowest index on ties (the total covers
        // what is left, so one has GPUs).
        let n = (0..free.len()).max_by_key(|&n| (free[n], Reverse(n)))?;
        let take = remaining.min(free[n]);
        row[n] = take;
        free[n] -= take;
        remaining -= take;
    }
    Some(row)
}

/// Tries to keep a job's existing placement: succeeds when every node
/// still has the required free capacity. On success, capacity is
/// deducted from `free`.
pub fn keep_placement(current: &[u32], free: &mut [u32]) -> bool {
    let pairs = current.iter().zip(&*free);
    let over = pairs.fold(false, |over, (&c, &f)| over | (c > f));
    let fits = current.len() == free.len() && !over;
    if fits {
        free.iter_mut().zip(current).for_each(|(f, &c)| *f -= c);
    }
    fits
}

/// Gandiva's best fit: the whole gang on the node with the *least*
/// free capacity that still fits it (ties to the lowest index), else
/// the [`pack_consolidated`] spread. On success `free` is updated in
/// place.
fn pack_best_fit(need: u32, free: &mut [u32]) -> Option<Vec<u32>> {
    let tightest = free
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f >= need)
        .min_by_key(|&(n, &f)| (f, n));
    let Some((n, _)) = tightest else {
        return pack_consolidated(need, free);
    };
    let mut row = vec![0u32; free.len()];
    row[n] = need;
    free[n] -= need;
    Some(row)
}

/// How [`ConsolidatedPlacement`] packs the jobs its keep pass did not
/// keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Packing {
    /// Admitted order, fullest-free node first.
    FullestFirst,
    /// Largest entitlement first (ties in admitted order), fullest-free
    /// node first.
    LargestFirst,
    /// Admitted order, tightest single node that fits.
    BestFit,
}

/// The one keep-then-pack placement stage: admitted jobs whose current
/// placement already matches their entitlement keep it (no gratuitous
/// checkpoint-restart); everyone else is packed onto the free GPUs.
///
/// The keep pass is shared; the packing is a constructor choice:
/// fullest-first in admitted order (Tiresias), largest job first
/// (Optimus), or Gandiva's best fit.
#[derive(Debug, Clone, Copy)]
pub struct ConsolidatedPlacement {
    packing: Packing,
}

impl ConsolidatedPlacement {
    /// Packs in admitted (priority) order onto the fullest-free nodes —
    /// Tiresias's choice.
    pub fn admitted_order() -> Self {
        Self {
            packing: Packing::FullestFirst,
        }
    }

    /// Packs largest jobs first — Optimus's choice (big jobs get the
    /// contiguous capacity, small jobs fill the gaps).
    pub fn largest_first() -> Self {
        Self {
            packing: Packing::LargestFirst,
        }
    }

    /// Packs each job whole onto the tightest node that fits it, and
    /// spreads a job wider than any node fullest-first — Gandiva's best
    /// fit, which keeps whole nodes free for wide gangs.
    pub fn best_fit() -> Self {
        Self {
            packing: Packing::BestFit,
        }
    }
}

impl PlacementPolicy for ConsolidatedPlacement {
    fn name(&self) -> &'static str {
        match self.packing {
            Packing::FullestFirst => "consolidated",
            Packing::LargestFirst => "consolidated-largest-first",
            Packing::BestFit => "best-fit-packing",
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
            let Some(view) = jobs.get(a.row).filter(|_| a.gpus > 0) else {
                continue;
            };
            let entitled = row_shape(view.current_placement).is_some_and(|s| s.gpus == a.gpus);
            if entitled && keep_placement(view.current_placement, free) {
                matrix.copy_row(a.row, view.current_placement);
            } else {
                needs_placing.push(a);
            }
        }

        // Second pass: pack the rest.
        if self.packing == Packing::LargestFirst {
            needs_placing.sort_by_key(|a| std::cmp::Reverse(a.gpus));
        }
        let pack = match self.packing {
            Packing::BestFit => pack_best_fit,
            Packing::FullestFirst | Packing::LargestFirst => pack_consolidated,
        };
        for a in needs_placing {
            if let Some(row) = pack(a.gpus, free) {
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
    /// Per-node free GPUs and per-row holds, refilled every round and
    /// kept so that a round allocates neither.
    free: Vec<u32>,
    held: Vec<bool>,
    /// Hoisted per-round counters: pending jobs granted GPUs /
    /// running jobs stripped of them. Disabled (free) by default.
    admitted_ctr: Counter,
    preempted_ctr: Counter,
    /// Per-round stage times (ns): `control/preempt_ns` (the matrix,
    /// preemption and the held scan), `control/admit_ns` and
    /// `control/place_ns`. Histograms, not spans, so the stages stay
    /// inside whatever span brackets `schedule`.
    stage_ns: [HistogramHandle; 3],
    /// Whether a live recorder is attached — gates the stage clock and
    /// the O(jobs) post-round counter scan so recorder-free runs pay
    /// nothing.
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
            free: Vec::new(),
            held: Vec::new(),
            admitted_ctr: Counter::detached(),
            preempted_ctr: Counter::detached(),
            stage_ns: Default::default(),
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
        let mut clock = self.telemetry_live.then(Instant::now);
        let mut matrix = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
        let (free, held) = (&mut self.free, &mut self.held);
        free.clear();
        free.extend(spec.iter().map(|(_, s)| s.gpus));

        // Stage 1: preemption eligibility, marked in `held` until the
        // scan below overwrites each row's mark with its hold.
        held.clear();
        held.resize(jobs.len(), false);
        for row in self.preemption.yield_rows(now, jobs, spec, rng) {
            if let Some(may_yield) = held.get_mut(row) {
                *may_yield = true;
            }
        }

        // Running jobs that may not yield hold their placement
        // verbatim. A held placement that no longer fits (the cluster
        // shrank underneath it) falls through: the job is implicitly
        // preempted this round.
        for (row, view) in jobs.iter().enumerate() {
            held[row] =
                !held[row] && view.is_running() && keep_placement(view.current_placement, free);
            if held[row] {
                matrix.copy_row(row, view.current_placement);
            }
        }
        lap(&self.stage_ns[0], &mut clock);

        // Stage 2: admission over everything not already held.
        let admitted = self.admission.admit(now, jobs, held, free, spec, rng);
        debug_assert!(
            admitted.iter().all(|a| !held.get(a.row).unwrap_or(&false)),
            "admission must not re-admit held rows"
        );
        lap(&self.stage_ns[1], &mut clock);

        // Stage 3: placement of the admitted jobs.
        self.placement
            .place(now, jobs, &admitted, free, &mut matrix, rng);
        lap(&self.stage_ns[2], &mut clock);

        // Observational round accounting: entrants (pending jobs that
        // now hold GPUs) and evictions (running jobs that lost all of
        // theirs). Gated on a live recorder so the scan costs nothing
        // otherwise; counters never feed back into the schedule.
        if self.telemetry_live {
            let mut entered = 0u64;
            let mut evicted = 0u64;
            for (row, view) in jobs.iter().enumerate() {
                let has = !row_is_empty(matrix.row(row));
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
        self.stage_ns = ["preempt_ns", "admit_ns", "place_ns"]
            .map(|stage| recorder.histogram("control", stage));
        self.telemetry_live = recorder.is_enabled();
        // Stage identities, so captures name who made each decision.
        recorder.meta("sched", "admission", self.admission.name());
        recorder.meta("sched", "placement", self.placement.name());
        recorder.meta("sched", "preemption", self.preemption.name());
    }
}

/// Observes the time since `*since` into `hist` and restarts the clock;
/// does nothing while the clock is off.
fn lap(hist: &HistogramHandle, since: &mut Option<Instant>) {
    if let Some(start) = since {
        hist.observe(start.elapsed().as_nanos() as u64);
        *start = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::BatchSizeLimits;
    use pollux_workload::UserConfig;
    use proptest::prelude::Strategy;
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

    /// FIFO admission over free GPUs: every row ranks alike.
    fn fifo() -> RankedBackfill {
        RankedBackfill::new("fifo-test", |_| 0.0)
    }

    #[test]
    fn ranked_backfill_orders_by_rank_then_submit_then_row() {
        let idle = vec![0u32];
        let mut views = [
            view(0, &idle, 5.0),
            view(1, &idle, 1.0),
            view(2, &idle, 1.0),
            view(3, &idle, 0.0),
        ];
        views[0].user.gpus = 4;
        views[3].remaining_work = 2e6;
        let by_work: Rank = |j| j.remaining_work;
        // Rows 0-2 tie on rank, so submit time, then row, orders them;
        // row 3 has the most work left and comes last. Row 1 is held.
        // Row 0's 4 GPUs do not fit the 3 row 2 leaves, so row 3
        // backfills around it.
        let mut budget = 5;
        let admitted = ranked_backfill(
            &views,
            &[false, true, false, false],
            by_work,
            |j| j.user.gpus,
            &mut budget,
        );
        assert_eq!(
            admitted,
            [Admitted { row: 2, gpus: 2 }, Admitted { row: 3, gpus: 2 }]
        );
        assert_eq!(budget, 1);
        // An incomparable rank ties with every other: row 3 submitted
        // first, so it goes first.
        views[3].remaining_work = f64::NAN;
        let mut budget = 8;
        let rows: Vec<usize> = ranked_backfill(&views, &[false; 4], by_work, |_| 1, &mut budget)
            .iter()
            .map(|a| a.row)
            .collect();
        assert_eq!(rows, [3, 1, 2, 0]);
    }

    #[test]
    fn packs_onto_fullest_nodes_first() {
        let mut free = vec![2, 4, 3];
        let row = pack_consolidated(5, &mut free).unwrap();
        // Fullest first: node 1 (4), then node 2 (1).
        assert_eq!(row, vec![0, 4, 1]);
        assert_eq!(free, vec![2, 0, 2]);
    }

    #[test]
    fn single_node_when_it_fits() {
        let mut free = vec![4, 4];
        let row = pack_consolidated(3, &mut free).unwrap();
        assert_eq!(row.iter().filter(|&&g| g > 0).count(), 1);
    }

    #[test]
    fn spreads_across_nodes_only_when_forced() {
        // 6 GPUs cannot fit one 4-GPU node: spill onto the next
        // fullest, touching as few nodes as possible.
        let mut free = vec![4, 4, 4];
        let row = pack_consolidated(6, &mut free).unwrap();
        assert_eq!(row.iter().filter(|&&g| g > 0).count(), 2);
        assert_eq!(row.iter().sum::<u32>(), 6);
    }

    #[test]
    fn fails_when_insufficient() {
        let mut free = vec![1, 1];
        assert!(pack_consolidated(3, &mut free).is_none());
        // Free capacities untouched on failure.
        assert_eq!(free, vec![1, 1]);
    }

    #[test]
    fn zero_need_is_trivial() {
        let mut free = vec![1, 2];
        assert_eq!(pack_consolidated(0, &mut free).unwrap(), vec![0, 0]);
        assert_eq!(free, vec![1, 2]);
    }

    #[test]
    fn keep_placement_reserves_capacity() {
        let mut free = vec![4, 2];
        assert!(keep_placement(&[2, 1], &mut free));
        assert_eq!(free, vec![2, 1]);
    }

    #[test]
    fn keep_placement_fails_without_capacity() {
        let mut free = vec![1, 2];
        assert!(!keep_placement(&[2, 0], &mut free));
        assert_eq!(free, vec![1, 2]);
        assert!(!keep_placement(&[1], &mut free), "width mismatch");
    }

    /// `pack_consolidated` as it was: an index of every node, stably
    /// sorted by free capacity, then taken in that order.
    fn pack_by_sorting(need: u32, free: &mut [u32]) -> Option<Vec<u32>> {
        if need == 0 {
            return Some(vec![0; free.len()]);
        }
        let total: u32 = free.iter().sum();
        if total < need {
            return None;
        }
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
        Some(row)
    }

    /// `keep_placement` as it was: an `any` that stops at the first
    /// node short of capacity.
    fn keep_by_any(current: &[u32], free: &mut [u32]) -> bool {
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

    /// Per-node free GPUs of a heterogeneous cluster of 1–300 nodes
    /// with 0–16 free on each.
    fn free_gpus() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0u32..=16, 1..=300)
    }

    proptest::proptest! {
        #[test]
        fn packing_the_fullest_node_matches_the_sorted_order(
            (free, needs) in free_gpus().prop_flat_map(|free| {
                // Up to a little past the cluster's capacity.
                let total: u32 = free.iter().sum();
                let needs = proptest::collection::vec(0u32..=total / 2 + 8, 1..6);
                (proptest::strategy::Just(free), needs)
            }),
        ) {
            let (mut fast, mut slow) = (free.clone(), free);
            for need in needs {
                proptest::prop_assert_eq!(
                    pack_consolidated(need, &mut fast),
                    pack_by_sorting(need, &mut slow)
                );
                proptest::prop_assert_eq!(&fast, &slow);
            }
        }

        #[test]
        fn the_branch_free_keep_matches_the_short_circuiting_one(
            (free, current) in free_gpus().prop_flat_map(|free| {
                let width = free.len();
                let current = (0u32..3).prop_flat_map(move |kind| match kind {
                    // The cluster's width, empty or not, or a stale one.
                    0 => proptest::collection::vec(0u32..=4, width),
                    1 => proptest::collection::vec(0u32..=0, width),
                    _ => proptest::collection::vec(0u32..=4, 0..=300),
                });
                (proptest::strategy::Just(free), current)
            }),
        ) {
            let (mut fast, mut slow) = (free.clone(), free);
            proptest::prop_assert_eq!(
                keep_placement(&current, &mut fast),
                keep_by_any(&current, &mut slow)
            );
            proptest::prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn deterministic_tiebreak_by_index() {
        let mut free = vec![4, 4, 4];
        let row = pack_consolidated(4, &mut free).unwrap();
        assert_eq!(row, vec![4, 0, 0]);
    }

    /// Places `gpus` (one admitted job per entry, rows in order) from
    /// `free` with `stage`, returning the matrix.
    fn place_all(stage: ConsolidatedPlacement, free: &mut [u32], gpus: &[u32]) -> AllocationMatrix {
        let idle = vec![0u32; free.len()];
        let views: Vec<PolicyJobView<'_>> = (0..gpus.len())
            .map(|i| view(i as u32, &idle, i as f64))
            .collect();
        let admitted: Vec<Admitted> = gpus
            .iter()
            .enumerate()
            .map(|(row, &gpus)| Admitted { row, gpus })
            .collect();
        let mut matrix = AllocationMatrix::zeros(gpus.len(), free.len());
        let mut rng = StdRng::seed_from_u64(0);
        let mut stage = stage;
        stage.place(0.0, &views, &admitted, free, &mut matrix, &mut rng);
        matrix
    }

    #[test]
    fn best_fit_picks_the_tightest_fitting_node() {
        let mut free = vec![4u32, 2, 3];
        let m = place_all(ConsolidatedPlacement::best_fit(), &mut free, &[2]);
        // Node 1 (2 free) is the tightest fit — NOT the fullest (node 0).
        assert_eq!(m.row(0), &[0, 2, 0]);
        assert_eq!(free, vec![4, 0, 3]);
    }

    #[test]
    fn best_fit_keeps_whole_nodes_free_for_wide_jobs() {
        // Fullest-first drops the 1-GPU job onto the empty node and
        // then has to split the 4-GPU gang; best fit tucks it next to
        // the running job instead.
        let mut free = vec![1u32, 4];
        let m = place_all(ConsolidatedPlacement::best_fit(), &mut free, &[1, 4]);
        assert_eq!(m.row(0), &[1, 0]);
        assert_eq!(m.row(1), &[0, 4], "whole node preserved for the gang");
        let mut free = vec![1u32, 4];
        let m = place_all(ConsolidatedPlacement::admitted_order(), &mut free, &[1, 4]);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.row(1), &[1, 3]);
    }

    #[test]
    fn best_fit_spreads_jobs_wider_than_a_node() {
        let mut free = vec![4u32, 4];
        let m = place_all(ConsolidatedPlacement::best_fit(), &mut free, &[6]);
        assert_eq!(m.gpus_of(0), 6);
        assert_eq!(m.nodes_of(0), 2);
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
            fifo(),
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
            fifo(),
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
            fifo(),
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
            fifo(),
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
