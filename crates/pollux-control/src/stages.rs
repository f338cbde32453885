//! Blox-style staged scheduler decomposition.
//!
//! Blox ("Blox: A Modular Toolkit for Deep Learning Schedulers",
//! EuroSys '24) observes that most DL cluster schedulers factor into
//! three orthogonal decisions composed over one cluster abstraction:
//!
//! 1. **preemption** — whether running jobs may yield their GPUs to
//!    make room ([`Preemption`]);
//! 2. **admission** — which jobs may hold GPUs this round, and how
//!    many ([`Admission`]);
//! 3. **placement** — which concrete GPUs each admitted job gets
//!    ([`Placement`]).
//!
//! Each stage is a closed set of rules, an enum whose methods `match`
//! on the rule. [`StagedScheduler`] holds one rule of each by value
//! and composes them into a [`SchedulingPolicy`], so the
//! `RoundPlanner`, the simulator engine, and the live `ClusterService`
//! drive a staged policy exactly like a monolithic one. A new
//! scheduling idea is one more variant of the stage it changes — see
//! DESIGN.md §10 for the composition contract and the policy zoo.
//!
//! ## Round pipeline
//!
//! ```text
//! schedule(jobs, spec):
//!   1. under Preemption::Never, running jobs are *held*: their
//!      current placement is copied into the matrix verbatim and
//!      deducted from free capacity (a held job whose placement no
//!      longer fits a shrunken cluster is implicitly preempted this
//!      round); under Preemption::All nothing is held
//!   2. admitted = admission.admit(jobs, held, free, spec) (ordered
//!      rows+GPUs; held rows must not appear)
//!   3. placement.place(jobs, admitted, free, matrix)
//! ```
//!
//! Fully-preemptive policies (Tiresias, Optimus, SRTF) use
//! [`Preemption::All`], which makes the held set empty: admission then
//! ranks *every* job and placement rebuilds the whole matrix, which is
//! exactly the shape of the monolithic baselines — the staged ports
//! reproduce their pre-refactor trajectories byte-for-byte (pinned by
//! `pollux-core/tests/baseline_golden.rs`). Non-preemptive policies
//! (gang FIFO) use [`Preemption::Never`], so running jobs are never
//! disturbed and admission fills only the free GPUs.
//!
//! ## Shared rules
//!
//! [`Admission::Ranked`] is the one rank-then-backfill admission (gang
//! FIFO, Tiresias' LAS, SRTF and SRSF are four [`Rank`]s of it, and
//! Optimus' minimum pass runs [`ranked_backfill`] too); every
//! [`Placement`] is the one keep-then-pack placement, with
//! fullest-first, largest-first and Gandiva best-fit packings.
//!
//! ## Determinism contract
//!
//! No stage reads the clock or draws from the RNG: each is a pure
//! function of the round's views and capacity, invoked in the fixed
//! order above, so a staged policy inherits the simulator's
//! bit-reproducibility guarantees.

use crate::policy::{PolicyJobView, SchedulingPolicy};
use crate::{optimus, or_etal};
use pollux_cluster::{row_is_empty, row_shape, AllocationMatrix, ClusterSpec};
use pollux_telemetry::{Counter, HistogramHandle, Recorder};
use rand::rngs::StdRng;
use std::cmp::Reverse;
use std::time::Instant;

/// One admission decision: the job at view index `row` may hold
/// `gpus` GPUs this round. Order is meaningful — placement stages
/// honor it (e.g. consolidated placement packs in admitted order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Admitted {
    /// Index into the round's view slice.
    pub(crate) row: usize,
    /// GPUs the job is entitled to this round (> 0).
    pub(crate) gpus: u32,
}

/// Stage 1 of a [`StagedScheduler`] round: whether running jobs may
/// yield their GPUs this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Preemption {
    /// Every running job may yield: the fully-preemptive rule of
    /// Tiresias, Optimus, SRTF/SRSF, Gandiva and Or et al. Nothing is
    /// held, so admission ranks every job.
    All,
    /// No running job yields: gang FIFO's rule. Running jobs hold their
    /// placements, and admission sees only the GPUs they leave free.
    Never,
}

impl Preemption {
    /// The rule's name in telemetry metadata and the zoo table.
    fn name(self) -> &'static str {
        match self {
            Self::All => "preempt-all",
            Self::Never => "no-preemption",
        }
    }
}

/// A row's key in [`Admission::Ranked`]: lower ranks are admitted
/// first.
pub(crate) type Rank = fn(&PolicyJobView<'_>) -> f64;

/// Stage 2 of a [`StagedScheduler`] round: which jobs may hold GPUs
/// this round, in priority order, and how many. Admission controls
/// cluster entry, so it also owns the cluster-sizing and batch-size
/// hooks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Admission {
    /// The one ranked-backfill admission: every row that is not held
    /// asks for its user GPU count (at least 1), and rows are admitted
    /// in [`ranked_backfill`] order over the free GPUs. The zoo's four
    /// orders differ only in the [`Rank`]: gang FIFO ranks every row
    /// alike (submit time decides), Tiresias' LAS puts rows past its
    /// attained-service threshold second, SRTF ranks by remaining work
    /// and SRSF by remaining work × GPUs.
    Ranked { name: &'static str, rank: Rank },
    /// Optimus+Oracle: every job's minimum GPUs, then a marginal-gain
    /// auction of the rest (`optimus.rs`).
    MarginalGain,
    /// Or et al.: the first job gets every free GPU, the cluster is
    /// sized for it up to `max_nodes` nodes, and its batch grows with
    /// its GPUs (`or_etal.rs`).
    SingleTenant { max_nodes: u32 },
}

impl Admission {
    /// The rule's name in telemetry metadata and the zoo table.
    fn name(self) -> &'static str {
        match self {
            Self::Ranked { name, .. } => name,
            Self::MarginalGain => "marginal-gain",
            Self::SingleTenant { .. } => "single-tenant",
        }
    }

    /// Ranks the round's jobs and returns the ordered entitlement
    /// list. `held[row]` marks running jobs whose placement is already
    /// locked in (they must not be admitted again); `free` is the
    /// remaining per-node capacity after held placements. Admission
    /// decides *counts*, never concrete GPUs — that is placement's
    /// job — and the total admitted GPUs fit `free` (the planner
    /// clamps defensively, and the stage-invariant proptests require
    /// feasibility from every rule).
    fn admit(
        self,
        jobs: &[PolicyJobView<'_>],
        held: &[bool],
        free: &[u32],
        spec: &ClusterSpec,
    ) -> Vec<Admitted> {
        match self {
            Self::Ranked { rank, .. } => {
                let mut budget = free.iter().sum();
                ranked_backfill(jobs, held, rank, |j| j.user.gpus.max(1), &mut budget)
            }
            Self::MarginalGain => optimus::admit(jobs, held, free, spec),
            Self::SingleTenant { .. } => or_etal::admit(jobs, held, free),
        }
    }

    /// Cloud auto-scaling, forwarded from
    /// [`SchedulingPolicy::desired_nodes`]: `None` keeps the cluster
    /// fixed.
    fn desired_nodes(self, jobs: &[PolicyJobView<'_>], spec: &ClusterSpec) -> Option<u32> {
        match self {
            Self::SingleTenant { max_nodes } => or_etal::desired_nodes(jobs, spec, max_nodes),
            Self::Ranked { .. } | Self::MarginalGain => None,
        }
    }

    /// Batch-size choice, forwarded from
    /// [`SchedulingPolicy::choose_batch_size`]: `None` keeps the job's
    /// current batch size.
    fn choose_batch_size(self, job: &PolicyJobView<'_>) -> Option<u64> {
        match self {
            Self::SingleTenant { .. } => or_etal::choose_batch_size(job),
            Self::Ranked { .. } | Self::MarginalGain => None,
        }
    }
}

/// The rank-and-backfill body: the rows not `held`, ordered by
/// (`rank`, submit time, row), each admitted at `need` GPUs while
/// `budget` lasts. A row that does not fit is skipped, so smaller rows
/// backfill around it; `budget` is left at what nobody took. Keys
/// compare by `partial_cmp` (an incomparable pair ties), and each
/// row's rank is computed once, never inside the comparator.
pub(crate) fn ranked_backfill(
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
fn keep_placement(current: &[u32], free: &mut [u32]) -> bool {
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

/// Stage 3 of a [`StagedScheduler`] round: concrete GPU rows for the
/// admitted jobs. Every rule is the one keep-then-pack placement:
/// admitted jobs whose current placement already matches their
/// entitlement keep it (no gratuitous checkpoint-restart); everyone
/// else is packed onto the free GPUs, in the rule's packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Admitted (priority) order, fullest-free node first — Tiresias's
    /// choice.
    FullestFirst,
    /// Largest entitlement first (ties in admitted order), fullest-free
    /// node first — Optimus's choice (big jobs get the contiguous
    /// capacity, small jobs fill the gaps).
    LargestFirst,
    /// Admitted order, each job whole on the tightest node that fits
    /// it, and a job wider than any node spread fullest-first —
    /// Gandiva's best fit, which keeps whole nodes free for wide gangs.
    BestFit,
}

impl Placement {
    /// The rule's name in telemetry metadata and the zoo table.
    fn name(self) -> &'static str {
        match self {
            Self::FullestFirst => "consolidated",
            Self::LargestFirst => "consolidated-largest-first",
            Self::BestFit => "best-fit-packing",
        }
    }

    /// Writes a placement row into `matrix` for each admitted job,
    /// deducting every granted GPU from `free`. Jobs that cannot be
    /// placed within `free` are left at their all-zero row (they stay
    /// pending / become preempted); `free` is never exceeded, so the
    /// composed matrix is feasible.
    fn place(
        self,
        jobs: &[PolicyJobView<'_>],
        admitted: &[Admitted],
        free: &mut [u32],
        matrix: &mut AllocationMatrix,
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
        if self == Self::LargestFirst {
            needs_placing.sort_by_key(|a| Reverse(a.gpus));
        }
        let pack = match self {
            Self::BestFit => pack_best_fit,
            Self::FullestFirst | Self::LargestFirst => pack_consolidated,
        };
        for a in needs_placing {
            if let Some(row) = pack(a.gpus, free) {
                matrix.copy_row(a.row, &row);
            }
        }
    }
}

/// Composes one admission rule, one placement rule and one preemption
/// rule into a [`SchedulingPolicy`] (see the module docs for the round
/// pipeline). The policy `name` is what experiment tables and
/// `SimResult::policy` report.
pub struct StagedScheduler {
    name: &'static str,
    admission: Admission,
    placement: Placement,
    preemption: Preemption,
    /// Per-node free GPUs and per-row holds, refilled every round and
    /// kept so that a round allocates neither.
    free: Vec<u32>,
    held: Vec<bool>,
    /// Hoisted per-round counters: pending jobs granted GPUs /
    /// running jobs stripped of them. Disabled (free) by default.
    admitted_ctr: Counter,
    preempted_ctr: Counter,
    /// Per-round stage times (ns): `control/preempt_ns` (the matrix
    /// and the held scan), `control/admit_ns` and
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
        let (admission, placement, preemption) = self.stage_names();
        f.debug_struct("StagedScheduler")
            .field("name", &self.name)
            .field("admission", &admission)
            .field("placement", &placement)
            .field("preemption", &preemption)
            .finish()
    }
}

impl StagedScheduler {
    /// Composes the rules under a policy `name`.
    pub(crate) fn new(
        name: &'static str,
        admission: Admission,
        placement: Placement,
        preemption: Preemption,
    ) -> Self {
        Self {
            name,
            admission,
            placement,
            preemption,
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
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> AllocationMatrix {
        let mut clock = self.telemetry_live.then(Instant::now);
        let mut matrix = AllocationMatrix::zeros(jobs.len(), spec.num_nodes());
        let (free, held) = (&mut self.free, &mut self.held);
        free.clear();
        free.extend(spec.iter().map(|(_, s)| s.gpus));

        // Stage 1: under `Never`, running jobs hold their placement
        // verbatim. A held placement that no longer fits (the cluster
        // shrank underneath it) falls through: the job is implicitly
        // preempted this round. Under `All` nothing is held.
        held.clear();
        held.resize(jobs.len(), false);
        if self.preemption == Preemption::Never {
            for (row, view) in jobs.iter().enumerate() {
                held[row] = view.is_running() && keep_placement(view.current_placement, free);
                if held[row] {
                    matrix.copy_row(row, view.current_placement);
                }
            }
        }
        lap(&self.stage_ns[0], &mut clock);

        // Stage 2: admission over everything not already held.
        let admitted = self.admission.admit(jobs, held, free, spec);
        debug_assert!(
            admitted.iter().all(|a| !held.get(a.row).unwrap_or(&false)),
            "admission must not re-admit held rows"
        );
        lap(&self.stage_ns[1], &mut clock);

        // Stage 3: placement of the admitted jobs.
        self.placement.place(jobs, &admitted, free, &mut matrix);
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
        _now: f64,
        jobs: &[PolicyJobView<'_>],
        spec: &ClusterSpec,
        _rng: &mut StdRng,
    ) -> Option<u32> {
        self.admission.desired_nodes(jobs, spec)
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
        let (admission, placement, preemption) = self.stage_names();
        recorder.meta("sched", "admission", admission);
        recorder.meta("sched", "placement", placement);
        recorder.meta("sched", "preemption", preemption);
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
    fn fifo() -> Admission {
        Admission::Ranked {
            name: "fifo-test",
            rank: |_| 0.0,
        }
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
    fn place_all(stage: Placement, free: &mut [u32], gpus: &[u32]) -> AllocationMatrix {
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
        stage.place(&views, &admitted, free, &mut matrix);
        matrix
    }

    #[test]
    fn best_fit_picks_the_tightest_fitting_node() {
        let mut free = vec![4u32, 2, 3];
        let m = place_all(Placement::BestFit, &mut free, &[2]);
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
        let m = place_all(Placement::BestFit, &mut free, &[1, 4]);
        assert_eq!(m.row(0), &[1, 0]);
        assert_eq!(m.row(1), &[0, 4], "whole node preserved for the gang");
        let mut free = vec![1u32, 4];
        let m = place_all(Placement::FullestFirst, &mut free, &[1, 4]);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.row(1), &[1, 3]);
    }

    #[test]
    fn best_fit_spreads_jobs_wider_than_a_node() {
        let mut free = vec![4u32, 4];
        let m = place_all(Placement::BestFit, &mut free, &[6]);
        assert_eq!(m.gpus_of(0), 6);
        assert_eq!(m.nodes_of(0), 2);
    }

    #[test]
    fn preempt_all_composes_a_full_rebuild() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let held_row = vec![2u32, 0];
        let idle = vec![0u32, 0];
        // A running late job and a pending early job: with Preemption::All
        // and FIFO admission, the early job wins the GPUs.
        let views = [view(0, &held_row, 100.0), view(1, &idle, 0.0)];
        let mut staged = StagedScheduler::new(
            "fifo-preemptive",
            fifo(),
            Placement::FullestFirst,
            Preemption::All,
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
        // pending job must NOT displace it under Preemption::Never.
        let views = [view(0, &held_row, 100.0), view(1, &idle, 0.0)];
        let mut staged = StagedScheduler::new(
            "fifo-nonpreemptive",
            fifo(),
            Placement::FullestFirst,
            Preemption::Never,
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
            Placement::FullestFirst,
            Preemption::Never,
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
        Placement::FullestFirst.place(&views, &admitted, &mut free, &mut matrix);
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
        Placement::LargestFirst.place(&views, &admitted, &mut free, &mut matrix);
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
            Placement::FullestFirst,
            Preemption::All,
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
