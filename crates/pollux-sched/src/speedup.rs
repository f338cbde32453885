//! Per-job `SPEEDUP` evaluation: dense per-interval tables.
//!
//! `SPEEDUP_j(A_j)` (Eqn 15) only depends on the placement through its
//! `(K, N)` shape, because `T_sync` is locality- but not
//! identity-sensitive (Eqn 10) — and `T_sync` only distinguishes
//! co-located (`N = 1`) from cross-node (`N ≥ 2`) placements, so the
//! whole feasible shape space of one job is two rows of `K ≤ gpu_cap`
//! values. [`SpeedupTable`] precomputes those rows for every job at the
//! start of a scheduling round; each fitness lookup thereafter is an
//! unsynchronized array index — no hashing, no locking, no lazy solve.
//!
//! [`pure_speedup`] evaluates one `(job, shape)` straight from the
//! goodput model, for callers that query a handful of shapes.
//!
//! # Determinism
//!
//! Table entries are **pure** functions of `(job.model, shape)`,
//! computed with bit-identical arithmetic
//! (`max_goodput(shape) / max_goodput(reference_shape())`, zero outside
//! the feasible range), written in job order.

use pollux_cluster::{row_is_empty, ClusterSpec, JobId};
use pollux_models::{GoodputModel, PlacementShape};
use std::collections::HashMap;

/// The scheduler-facing view of one job at one scheduling interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedJob {
    /// Stable job identifier.
    pub id: JobId,
    /// The goodput model reported by the job's `PolluxAgent`.
    pub model: GoodputModel,
    /// Minimum GPUs on which the job's `m0` fits.
    pub min_gpus: u32,
    /// Scale-out cap (at most twice the GPUs ever held; Sec. 4.1).
    pub gpu_cap: u32,
    /// Fairness weight `w_j` (Eqn 16).
    pub weight: f64,
    /// The placement row currently applied in the cluster (empty GPUs
    /// everywhere when the job is pending). Used for restart detection.
    pub current_placement: Vec<u32>,
}

impl SchedJob {
    /// True when the job currently holds any GPUs.
    pub fn is_running(&self) -> bool {
        !row_is_empty(&self.current_placement)
    }
}

/// `SPEEDUP_j` computed directly from the goodput model, with the same
/// feasibility gates and canonicalization as [`SpeedupTable`] and the
/// same bits.
pub fn pure_speedup(job: &SchedJob, shape: PlacementShape) -> f64 {
    if shape.gpus < job.min_gpus || shape.gpus > job.gpu_cap {
        return 0.0;
    }
    let shape = PlacementShape::new(shape.gpus, shape.nodes.min(2))
        .expect("nodes >= 1 preserved by canonicalization");
    job.model.speedup(shape)
}

/// Build counters of a [`SpeedupTable`], fixed when it is built; a
/// round reports them as `sched/table_solves` and
/// `sched/table_rows_reused`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeedupTableStats {
    /// Batch-size solves (Eqn 13) the table's entries stand for: one
    /// per feasible entry plus one reference denominator per job.
    /// Reused rows carry their original per-row solve count forward, so
    /// this total is identical to a from-scratch build.
    pub solves: u64,
    /// Rows copied verbatim from the previous interval's table by
    /// [`SpeedupTable::build_reusing`] instead of being re-solved
    /// (reuse is bit-exact by construction).
    pub rows_reused: u64,
}

impl SpeedupTableStats {
    /// Adds another table's counters into this accumulator.
    pub fn accumulate(&mut self, other: SpeedupTableStats) {
        self.solves += other.solves;
        self.rows_reused += other.rows_reused;
    }
}

/// Dense per-interval `SPEEDUP` table: every feasible `(job, shape)`
/// value precomputed into one flat `Vec<f64>`.
///
/// Layout: `values[job * 2 * max_gpus + locality * max_gpus + (K − 1)]`
/// with locality 0 = co-located (`N = 1`) and 1 = cross-node (`N ≥ 2`,
/// canonical for every multi-node shape). `max_gpus` is the largest
/// `min(gpu_cap, total cluster GPUs)` over the jobs, so the table is
/// `jobs × 2 × max_gpus` doubles — a few KiB for realistic rounds.
///
/// Entries outside a job's feasible range (`K < min_gpus` or
/// `K > gpu_cap`) hold 0, so [`Self::speedup`] is a pure bounds check
/// plus an array read: no hashing, no locks, no branches on job state.
/// Values are bit-identical to [`pure_speedup`] and
/// [`GoodputModel::speedup`] for every shape reachable from a repaired
/// allocation matrix.
///
/// Rebuild the table whenever the jobs' goodput models change — but
/// jobs whose speedup-relevant inputs did *not* change can have their
/// rows copied forward from the previous interval's table via
/// [`Self::build_reusing`], skipping their batch-size solves
/// entirely.
#[derive(Debug, Default, Clone)]
pub struct SpeedupTable {
    values: Vec<f64>,
    num_jobs: usize,
    max_gpus: u32,
    /// Whether distributed (`N ≥ 2`) rows were solved; rows from a
    /// table that skipped them are not reusable by one that needs
    /// them (and vice versa — the stored zeros would alias real
    /// values).
    include_distributed: bool,
    /// Per-row provenance: the exact inputs each row is a pure
    /// function of, enabling cross-interval row reuse.
    row_keys: Vec<RowKey>,
    /// Per-row batch-size solve counts, carried forward with
    /// reused rows so the `solves` total always equals a fresh build.
    row_solves: Vec<u64>,
    stats: SpeedupTableStats,
}

/// The inputs one table row is a pure function of. A previous row is
/// reused only when *every* field matches exactly, which is what makes
/// incremental builds bit-identical by construction.
#[derive(Debug, Clone, PartialEq)]
struct RowKey {
    id: JobId,
    model: GoodputModel,
    /// Feasible GPU range the profile was solved over (`min_gpus` and
    /// `gpu_cap` clamped to the cluster's total GPUs — a cluster
    /// resize can dirty a row even when the job itself is unchanged).
    lo: u32,
    hi: u32,
}

impl SpeedupTable {
    /// Precomputes the table for `jobs` on `spec`, one job row after
    /// another. Nothing reads `threads`: the frozen `benchmark/`
    /// compiles against it and passes 1, so it stays until the
    /// benchmark's next revision.
    ///
    /// Distributed rows are only solved when the cluster has at least
    /// two nodes — a single-node cluster can never produce an `N ≥ 2`
    /// placement, so those rows stay zero for free.
    pub fn build(jobs: &[SchedJob], spec: &ClusterSpec, threads: usize) -> Self {
        Self::build_reusing(jobs, spec, threads, None)
    }

    /// Like [`Self::build`], but copies rows forward from `prev` (the
    /// previous interval's table) for every job whose speedup-relevant
    /// inputs are unchanged, re-solving only dirty rows.
    ///
    /// A row is clean when the job id is found in `prev` and its
    /// `RowKey` — goodput model, feasible GPU range — matches
    /// exactly, and the two tables agree on column count and
    /// distributed coverage. Reused rows keep their original per-row
    /// solve counts, so `stats().solves` is identical to a fresh
    /// build; the values are identical bit for bit because each row is
    /// a pure function of its key (`debug_assert`-cross-checked
    /// against a from-scratch build).
    pub fn build_reusing(
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        _threads: usize,
        prev: Option<&SpeedupTable>,
    ) -> Self {
        let total = spec.total_gpus();
        let max_gpus = jobs.iter().map(|j| j.gpu_cap.min(total)).max().unwrap_or(0);
        let include_distributed = spec.num_nodes() >= 2;
        let cols = max_gpus as usize;
        let prev =
            prev.filter(|p| p.max_gpus == max_gpus && p.include_distributed == include_distributed);
        let prev_rows: HashMap<JobId, usize> = prev
            .map(|p| {
                p.row_keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| (k.id, i))
                    .collect()
            })
            .unwrap_or_default();
        let mut values = Vec::with_capacity(jobs.len() * 2 * cols);
        let mut row_keys = Vec::with_capacity(jobs.len());
        let mut row_solves = Vec::with_capacity(jobs.len());
        let mut stats = SpeedupTableStats::default();
        for job in jobs {
            let key = RowKey {
                id: job.id,
                model: job.model,
                lo: job.min_gpus.max(1),
                hi: job.gpu_cap.min(total),
            };
            let clean = prev_rows.get(&job.id).copied().zip(prev);
            let solves = if let Some((pi, p)) = clean.filter(|&(pi, p)| p.row_keys[pi] == key) {
                let base = pi * 2 * cols;
                values.extend_from_slice(&p.values[base..base + 2 * cols]);
                stats.rows_reused += 1;
                p.row_solves[pi]
            } else {
                let profile =
                    job.model
                        .speedup_profile(key.lo..=key.hi, max_gpus, include_distributed);
                debug_assert_eq!(profile.colocated.len(), cols);
                debug_assert_eq!(profile.distributed.len(), cols);
                values.extend_from_slice(&profile.colocated);
                values.extend_from_slice(&profile.distributed);
                profile.solves
            };
            stats.solves += solves;
            row_keys.push(key);
            row_solves.push(solves);
        }
        let table = Self {
            values,
            num_jobs: jobs.len(),
            max_gpus,
            include_distributed,
            row_keys,
            row_solves,
            stats,
        };
        #[cfg(debug_assertions)]
        if table.stats.rows_reused > 0 {
            let fresh = Self::build(jobs, spec, 1);
            debug_assert_eq!(
                fresh.stats.solves, table.stats.solves,
                "incremental build must carry exact solve counts"
            );
            debug_assert!(
                fresh
                    .values
                    .iter()
                    .zip(&table.values)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "incremental build must be bit-identical to a fresh build"
            );
        }
        table
    }

    /// `SPEEDUP` of job `job_idx` (its index in the `jobs` slice the
    /// table was built from) under `shape`: one array read. Returns 0
    /// for out-of-table shapes.
    #[inline]
    pub fn speedup(&self, job_idx: usize, shape: PlacementShape) -> f64 {
        if job_idx >= self.num_jobs || shape.gpus == 0 || shape.gpus > self.max_gpus {
            return 0.0;
        }
        let cols = self.max_gpus as usize;
        let locality = usize::from(shape.nodes >= 2);
        self.values[job_idx * 2 * cols + locality * cols + (shape.gpus as usize - 1)]
    }

    /// [`pure_speedup`] of the job in row `job_idx` under `shape`, read
    /// instead of solved. `None` where the table does not hold that
    /// value: a row or a shape beyond it, or a cross-node shape in a
    /// table built for a single node, whose distributed rows are zeros
    /// nobody solved.
    pub fn stored(&self, job_idx: usize, shape: PlacementShape) -> Option<f64> {
        let held = job_idx < self.num_jobs
            && (1..=self.max_gpus).contains(&shape.gpus)
            && (shape.nodes < 2 || self.include_distributed);
        held.then(|| self.speedup(job_idx, shape))
    }

    /// Number of jobs the table covers.
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }

    /// Columns per locality row (`max(min(gpu_cap, total GPUs))`).
    pub fn max_gpus(&self) -> u32 {
        self.max_gpus
    }

    /// Total stored entries (diagnostics; `jobs × 2 × max_gpus`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The counters of this table's build.
    pub fn stats(&self) -> SpeedupTableStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, ThroughputParams};

    pub(crate) fn test_model(m0: u64, phi: f64) -> GoodputModel {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(m0, phi).unwrap();
        let limits = BatchSizeLimits::new(m0, 65_536, 512).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    fn job(id: u32, cap: u32) -> SchedJob {
        SchedJob {
            id: JobId(id),
            model: test_model(128, 2000.0),
            min_gpus: 1,
            gpu_cap: cap,
            weight: 1.0,
            current_placement: vec![],
        }
    }

    #[test]
    fn multi_node_shapes_share_one_value() {
        // T_sync only tells co-located from cross-node: 8 GPUs over 4
        // nodes canonicalizes to (8, 2).
        let j = job(1, 64);
        let a = pure_speedup(&j, PlacementShape::new(8, 2).unwrap());
        let b = pure_speedup(&j, PlacementShape::new(8, 4).unwrap());
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            a.to_bits(),
            j.model
                .speedup(PlacementShape::new(8, 2).unwrap())
                .to_bits()
        );
    }

    #[test]
    fn respects_gpu_cap_and_min() {
        let mut j = job(1, 4);
        j.min_gpus = 2;
        assert_eq!(pure_speedup(&j, PlacementShape::single()), 0.0);
        assert!(pure_speedup(&j, PlacementShape::new(2, 1).unwrap()) > 0.0);
        assert!(pure_speedup(&j, PlacementShape::new(4, 1).unwrap()) > 0.0);
        assert_eq!(pure_speedup(&j, PlacementShape::new(5, 2).unwrap()), 0.0);
    }

    #[test]
    fn pure_speedup_matches_table_reads() {
        let mut j = job(1, 16);
        j.min_gpus = 2;
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let table = SpeedupTable::build(std::slice::from_ref(&j), &spec, 1);
        for gpus in 1u32..=16 {
            for nodes in 1u32..=4.min(gpus) {
                let shape = PlacementShape::new(gpus, nodes).unwrap();
                let pure = pure_speedup(&j, shape).to_bits();
                assert_eq!(pure, table.speedup(0, shape).to_bits(), "({gpus},{nodes})");
                assert_eq!(Some(pure), table.stored(0, shape).map(f64::to_bits));
            }
        }
    }

    #[test]
    fn is_running_detects_allocations() {
        let mut j = job(1, 64);
        assert!(!j.is_running());
        j.current_placement = vec![0, 0, 0];
        assert!(!j.is_running());
        j.current_placement = vec![0, 2, 0];
        assert!(j.is_running());
    }

    #[test]
    fn table_matches_pure_speedup_bitwise() {
        let jobs: Vec<SchedJob> = (0..4)
            .map(|i| {
                let mut j = job(i, 16);
                j.min_gpus = 1 + i % 3;
                j
            })
            .collect();
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let table = SpeedupTable::build(&jobs, &spec, 1);
        for (idx, j) in jobs.iter().enumerate() {
            for gpus in 1u32..=16 {
                for nodes in 1u32..=4.min(gpus) {
                    let shape = PlacementShape::new(gpus, nodes).unwrap();
                    assert_eq!(
                        table.speedup(idx, shape).to_bits(),
                        pure_speedup(j, shape).to_bits(),
                        "job {idx} shape ({gpus},{nodes})"
                    );
                }
            }
        }
    }

    #[test]
    fn table_counts_solves_and_reads_zero_outside() {
        let jobs = vec![job(0, 8)];
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let table = SpeedupTable::build(&jobs, &spec, 1);
        assert_eq!(table.num_jobs(), 1);
        assert_eq!(table.max_gpus(), 8);
        assert_eq!(table.len(), 2 * 8);
        // 1 reference + 8 colocated + 7 distributed solves.
        assert_eq!(table.stats().solves, 16);
        assert!(table.speedup(0, PlacementShape::new(4, 1).unwrap()) > 0.0);
        let outside = [
            (0, PlacementShape::new(9, 2).unwrap()),
            (1, PlacementShape::single()),
        ];
        for (row, shape) in outside {
            assert_eq!(table.speedup(row, shape), 0.0);
            assert_eq!(table.stored(row, shape), None);
        }
        let mut acc = SpeedupTableStats::default();
        acc.accumulate(table.stats());
        acc.accumulate(table.stats());
        assert_eq!(acc.solves, 32);
    }

    #[test]
    fn single_node_cluster_skips_distributed_solves() {
        let jobs = vec![job(0, 8)];
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let table = SpeedupTable::build(&jobs, &spec, 1);
        // Capped by the 4 total GPUs: 1 reference + 4 colocated solves.
        assert_eq!(table.max_gpus(), 4);
        assert_eq!(table.stats().solves, 5);
        assert!(table.speedup(0, PlacementShape::new(2, 1).unwrap()) > 0.0);
        // The unsolved cross-node rows read 0 but are not held.
        let spread = PlacementShape::new(2, 2).unwrap();
        assert_eq!(table.speedup(0, spread), 0.0);
        assert_eq!(table.stored(0, spread), None);
    }

    #[test]
    fn empty_job_set_builds_empty_table() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let table = SpeedupTable::build(&[], &spec, 1);
        assert!(table.is_empty());
        assert_eq!(table.stats().solves, 0);
        assert_eq!(table.speedup(0, PlacementShape::single()), 0.0);
    }

    /// Bitwise equality of two tables' stored values.
    fn tables_bit_identical(a: &SpeedupTable, b: &SpeedupTable) -> bool {
        a.values.len() == b.values.len()
            && a.values
                .iter()
                .zip(&b.values)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn incremental_build_reuses_clean_rows_and_recomputes_dirty() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut jobs = vec![job(1, 8), job(2, 8), job(3, 8)];
        let prev = SpeedupTable::build(&jobs, &spec, 1);
        assert_eq!(prev.stats().rows_reused, 0);
        // Dirty job 2's model: its row must be re-solved, the others
        // copied forward.
        jobs[1].model = test_model(128, 9000.0);
        let table = SpeedupTable::build_reusing(&jobs, &spec, 1, Some(&prev));
        assert_eq!(table.stats().rows_reused, 2);
        let fresh = SpeedupTable::build(&jobs, &spec, 1);
        assert!(tables_bit_identical(&table, &fresh));
        assert_eq!(table.stats().solves, fresh.stats().solves);
    }

    #[test]
    fn incremental_build_carries_exact_solve_counts_when_all_clean() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs = vec![job(1, 8), job(2, 12)];
        let prev = SpeedupTable::build(&jobs, &spec, 1);
        let table = SpeedupTable::build_reusing(&jobs, &spec, 1, Some(&prev));
        assert_eq!(table.stats().rows_reused, 2);
        // Reused rows keep their original solve counts so the
        // (golden-digested) totals match a fresh build exactly.
        assert_eq!(table.stats().solves, prev.stats().solves);
        assert!(tables_bit_identical(&table, &prev));
    }

    #[test]
    fn weight_and_placement_changes_do_not_dirty_rows() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut jobs = vec![job(1, 8)];
        let prev = SpeedupTable::build(&jobs, &spec, 1);
        // Neither field enters Eqn 15's speedup, so neither is in the
        // row key.
        jobs[0].weight = 0.25;
        jobs[0].current_placement = vec![2, 0, 0, 0];
        let table = SpeedupTable::build_reusing(&jobs, &spec, 1, Some(&prev));
        assert_eq!(table.stats().rows_reused, 1);
    }

    #[test]
    fn arrivals_and_departures_reuse_surviving_rows() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let prev = SpeedupTable::build(&[job(1, 8), job(2, 8), job(3, 8)], &spec, 1);
        // Job 1 departs, job 4 arrives, jobs 2-3 survive (in new
        // positions: row reuse is keyed by id, not index).
        let jobs = vec![job(4, 8), job(2, 8), job(3, 8)];
        let table = SpeedupTable::build_reusing(&jobs, &spec, 1, Some(&prev));
        assert_eq!(table.stats().rows_reused, 2);
        assert!(tables_bit_identical(
            &table,
            &SpeedupTable::build(&jobs, &spec, 1)
        ));
    }

    #[test]
    fn table_shape_mismatch_disables_reuse() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let jobs = vec![job(1, 8)];
        let prev = SpeedupTable::build(&jobs, &spec, 1);
        // A new arrival with a larger cap widens max_gpus: the old
        // columns no longer line up, so nothing is copied.
        let widened = vec![job(1, 8), job(2, 12)];
        let table = SpeedupTable::build_reusing(&widened, &spec, 1, Some(&prev));
        assert_eq!(table.stats().rows_reused, 0);
        // A gpu_cap change also moves the job's own feasible range
        // (the `hi` bound), dirtying just that row.
        let capped = vec![{
            let mut j = job(1, 8);
            j.gpu_cap = 6;
            j
        }];
        let recapped = SpeedupTable::build_reusing(&capped, &spec, 1, Some(&prev));
        assert_eq!(recapped.stats().rows_reused, 0);
    }

    #[test]
    fn incremental_build_of_varied_caps_equals_a_fresh_build() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut jobs: Vec<SchedJob> = (0..9).map(|i| job(i, 4 + i % 5)).collect();
        let prev = SpeedupTable::build(&jobs, &spec, 1);
        jobs[4].model = test_model(256, 500.0);
        let table = SpeedupTable::build_reusing(&jobs, &spec, 1, Some(&prev));
        let fresh = SpeedupTable::build(&jobs, &spec, 1);
        assert!(tables_bit_identical(&table, &fresh));
        assert_eq!(table.stats().rows_reused, 8);
        assert_eq!(table.stats().solves, fresh.stats().solves);
    }

    mod table_proptests {
        use super::*;
        use pollux_models::ThroughputParams;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn dense_table_is_bit_identical_to_model_speedup(
                alpha_grad in 0.0f64..0.3,
                beta_grad in 1e-5f64..5e-3,
                alpha_sync in 0.0f64..0.3,
                beta_sync in 0.0f64..0.02,
                gamma in 1.0f64..6.0,
                phi in 50.0f64..20_000.0,
                m0_exp in 5u32..9,
                min_gpus in 1u32..4,
                gpu_cap in 4u32..24,
                nodes in 1u32..5,
            ) {
                let m0 = 1u64 << m0_exp;
                let tp = ThroughputParams::new(
                    alpha_grad, beta_grad, alpha_sync, beta_sync,
                    alpha_sync * 1.5, beta_sync * 1.5, gamma,
                ).unwrap();
                let eff = EfficiencyModel::from_noise_scale(m0, phi).unwrap();
                let limits = BatchSizeLimits::new(m0, 65_536, 512).unwrap();
                let model = GoodputModel::new(tp, eff, limits).unwrap();
                let job = SchedJob {
                    id: JobId(7),
                    model,
                    min_gpus,
                    gpu_cap,
                    weight: 1.0,
                    current_placement: vec![],
                };
                let spec = ClusterSpec::homogeneous(nodes, 4).unwrap();
                let table = SpeedupTable::build(std::slice::from_ref(&job), &spec, 1);
                let total = spec.total_gpus();
                for gpus in 1..=total {
                    for n in 1..=nodes.min(gpus) {
                        let shape = PlacementShape::new(gpus, n).unwrap();
                        // Canonical model value with the same feasibility
                        // gates the scheduler applies.
                        let expect = if gpus < job.min_gpus || gpus > job.gpu_cap {
                            0.0
                        } else {
                            job.model.speedup(
                                PlacementShape::new(gpus, n.min(2)).unwrap(),
                            )
                        };
                        let got = table.speedup(0, shape);
                        prop_assert_eq!(
                            got.to_bits(), expect.to_bits(),
                            "shape ({},{}) got {} expect {}",
                            gpus, n, got, expect
                        );
                    }
                }
            }
        }
    }
}
