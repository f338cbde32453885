//! The scheduling fitness function (Eqn 14) with restart penalties.
//!
//! `FITNESS(A) = Σ_j w_j (SPEEDUP_j(A_j) − penalty_j) / Σ_j w_j` is a
//! weighted mean of independent per-job terms, which is what makes the
//! GA's incremental evaluation possible: each chromosome carries a
//! per-job **contribution vector** `c_j = w_j (SPEEDUP_j − penalty_j)`
//! and only the rows touched by mutation/crossover/repair are
//! recomputed. [`fitness_of`] folds a contribution vector in index
//! order with the exact multiply-then-add sequence the full
//! recomputation uses, so incremental and full evaluation are
//! bit-identical.
//!
//! Speedup lookups go through the dense per-interval [`SpeedupTable`].

use crate::speedup::{SchedJob, SpeedupTable};
use pollux_cluster::{row_shape, AllocationMatrix};
use pollux_models::PlacementShape;

/// Configuration of the fitness evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessConfig {
    /// Speedup subtracted from every job whose placement changes
    /// relative to its currently applied one (Sec. 4.2.1; the paper
    /// uses 0.25 to reflect the 30–60 s checkpoint-restart cost).
    pub restart_penalty: f64,
}

impl Default for FitnessConfig {
    fn default() -> Self {
        Self {
            restart_penalty: 0.25,
        }
    }
}

/// `Σ_j w_j`, accumulated in job order (the Eqn 14 denominator).
pub fn weight_sum(jobs: &[SchedJob]) -> f64 {
    let mut den = 0.0;
    for job in jobs {
        den += job.weight;
    }
    den
}

/// One job's fitness contribution `w_j (SPEEDUP_j(A_j) − penalty_j)`.
///
/// - The speedup is 0 when the job is unallocated (row all zeros) or
///   its row is infeasible (below `min_gpus`, above `gpu_cap`).
/// - The restart penalty applies to *running* jobs whose row in `alloc`
///   differs from their currently applied placement. Newly started
///   (previously pending) jobs are not penalized.
#[inline]
pub fn contribution(
    jobs: &[SchedJob],
    j: usize,
    alloc: &AllocationMatrix,
    table: &SpeedupTable,
    config: &FitnessConfig,
) -> f64 {
    let (job, row) = (&jobs[j], alloc.row(j));
    row_contribution(
        job,
        row,
        row_shape(row),
        job.is_running(),
        config,
        |shape| table.speedup(j, shape),
    )
}

/// [`contribution`] of one placement row whose shape
/// ([`row_shape`]) and whose job's [`SchedJob::is_running`] the caller
/// already knows — the GA's repair keeps the first current and the
/// second holds for a whole `evolve` — with `speedup` the job's
/// [`SpeedupTable::speedup`] or anything with its bits
/// ([`crate::speedup::pure_speedup`]).
#[inline]
pub(crate) fn row_contribution(
    job: &SchedJob,
    row: &[u32],
    shape: Option<PlacementShape>,
    running: bool,
    config: &FitnessConfig,
    speedup: impl FnOnce(PlacementShape) -> f64,
) -> f64 {
    let mut s = shape.map_or(0.0, speedup);
    if running && row != job.current_placement.as_slice() {
        s -= config.restart_penalty;
    }
    job.weight * s
}

/// The full contribution vector of one allocation matrix.
pub fn contributions(
    jobs: &[SchedJob],
    alloc: &AllocationMatrix,
    table: &SpeedupTable,
    config: &FitnessConfig,
) -> Vec<f64> {
    debug_assert!(
        alloc.num_jobs() >= jobs.len(),
        "allocation matrix too small"
    );
    (0..jobs.len())
        .map(|j| contribution(jobs, j, alloc, table, config))
        .collect()
}

/// Folds a contribution vector into the Eqn 14 fitness value.
///
/// Sums in index order — the same multiply-then-add sequence as a full
/// recomputation — so a chromosome whose stale rows were patched
/// incrementally evaluates to the exact bits of a from-scratch pass.
pub fn fitness_of(contrib: &[f64], weight_sum: f64) -> f64 {
    let mut num = 0.0;
    for &c in contrib {
        num += c;
    }
    if weight_sum > 0.0 {
        num / weight_sum
    } else {
        0.0
    }
}

/// Evaluates `FITNESS(A)` from scratch against the dense table.
///
/// Rows of `alloc` correspond to `jobs` by index; `alloc` must have at
/// least `jobs.len()` rows (extra rows are ignored).
pub fn fitness(
    jobs: &[SchedJob],
    alloc: &AllocationMatrix,
    table: &SpeedupTable,
    config: &FitnessConfig,
) -> f64 {
    debug_assert!(
        alloc.num_jobs() >= jobs.len(),
        "allocation matrix too small"
    );
    let mut num = 0.0;
    let mut den = 0.0;
    for (j, job) in jobs.iter().enumerate() {
        num += contribution(jobs, j, alloc, table, config);
        den += job.weight;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The cluster-utility measure for auto-scaling (Eqn 17):
/// `UTILITY(A) = Σ_j SPEEDUP_j(A_j) / TOTAL_GPUS` (unweighted, no
/// restart penalty).
pub fn utility(
    jobs: &[SchedJob],
    alloc: &AllocationMatrix,
    table: &SpeedupTable,
    total_gpus: u32,
) -> f64 {
    if total_gpus == 0 {
        return 0.0;
    }
    let sum: f64 = jobs
        .iter()
        .enumerate()
        .map(|(j, _)| match alloc.shape_of(j) {
            Some(shape) => table.speedup(j, shape),
            None => 0.0,
        })
        .sum();
    sum / total_gpus as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::pure_speedup;
    use pollux_cluster::{ClusterSpec, JobId};
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};

    fn model() -> GoodputModel {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(128, 2000.0).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    fn job(id: u32, weight: f64, current: Vec<u32>) -> SchedJob {
        SchedJob {
            id: JobId(id),
            model: model(),
            min_gpus: 1,
            gpu_cap: 64,
            weight,
            current_placement: current,
        }
    }

    fn table_for(jobs: &[SchedJob], nodes: u32, gpus_per_node: u32) -> SpeedupTable {
        let spec = ClusterSpec::homogeneous(nodes, gpus_per_node).unwrap();
        SpeedupTable::build(jobs, &spec, 1)
    }

    #[test]
    fn empty_cluster_has_zero_fitness() {
        let jobs = vec![job(0, 1.0, vec![]), job(1, 1.0, vec![])];
        let alloc = AllocationMatrix::zeros(2, 4);
        let table = table_for(&jobs, 4, 4);
        assert_eq!(fitness(&jobs, &alloc, &table, &Default::default()), 0.0);
    }

    #[test]
    fn single_gpu_each_gives_fitness_one() {
        let jobs = vec![job(0, 1.0, vec![]), job(1, 1.0, vec![])];
        let mut alloc = AllocationMatrix::zeros(2, 4);
        alloc.set(0, 0, 1);
        alloc.set(1, 1, 1);
        let table = table_for(&jobs, 4, 4);
        let f = fitness(&jobs, &alloc, &table, &Default::default());
        assert!((f - 1.0).abs() < 1e-9, "f = {f}");
    }

    #[test]
    fn more_gpus_increase_fitness() {
        let jobs = vec![job(0, 1.0, vec![])];
        let mut a1 = AllocationMatrix::zeros(1, 4);
        a1.set(0, 0, 1);
        let mut a4 = AllocationMatrix::zeros(1, 4);
        a4.set(0, 0, 4);
        let table = table_for(&jobs, 4, 4);
        let f1 = fitness(&jobs, &a1, &table, &Default::default());
        let f4 = fitness(&jobs, &a4, &table, &Default::default());
        assert!(f4 > f1, "{f4} vs {f1}");
    }

    #[test]
    fn restart_penalty_applies_to_changed_running_jobs() {
        // Job currently running on node 0 with 2 GPUs.
        let jobs = vec![job(0, 1.0, vec![2, 0, 0, 0])];
        let cfg = FitnessConfig {
            restart_penalty: 0.25,
        };
        let table = table_for(&jobs, 4, 4);

        // Same placement: no penalty.
        let mut same = AllocationMatrix::zeros(1, 4);
        same.set(0, 0, 2);
        let f_same = fitness(&jobs, &same, &table, &cfg);

        // Same shape on a different node: penalized.
        let mut moved = AllocationMatrix::zeros(1, 4);
        moved.set(0, 1, 2);
        let f_moved = fitness(&jobs, &moved, &table, &cfg);
        assert!(
            (f_same - f_moved - 0.25).abs() < 1e-9,
            "{f_same} vs {f_moved}"
        );
    }

    #[test]
    fn pending_jobs_start_without_penalty() {
        let jobs = vec![job(0, 1.0, vec![0, 0, 0, 0])];
        let mut alloc = AllocationMatrix::zeros(1, 4);
        alloc.set(0, 0, 1);
        let table = table_for(&jobs, 4, 4);
        let f = fitness(&jobs, &alloc, &table, &Default::default());
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weights_shift_the_optimum() {
        // Two identical jobs, 1 GPU to give away: the heavier job's
        // allocation dominates the weighted mean.
        let heavy = job(0, 1.0, vec![]);
        let light = job(1, 0.1, vec![]);
        let jobs = vec![heavy, light];
        let mut to_heavy = AllocationMatrix::zeros(2, 1);
        to_heavy.set(0, 0, 2);
        to_heavy.set(1, 0, 1);
        let mut to_light = AllocationMatrix::zeros(2, 1);
        to_light.set(0, 0, 1);
        to_light.set(1, 0, 2);
        let table = table_for(&jobs, 1, 4);
        let f_heavy = fitness(&jobs, &to_heavy, &table, &Default::default());
        let f_light = fitness(&jobs, &to_light, &table, &Default::default());
        assert!(f_heavy > f_light);
    }

    #[test]
    fn incremental_contributions_match_full_fitness_bitwise() {
        let jobs = vec![
            job(0, 1.0, vec![2, 0, 0, 0]),
            job(1, 1.3, vec![]),
            job(2, 0.7, vec![0, 0, 1, 0]),
        ];
        let table = table_for(&jobs, 4, 4);
        let cfg = FitnessConfig::default();
        let mut alloc = AllocationMatrix::zeros(3, 4);
        alloc.set(0, 0, 2);
        alloc.set(1, 1, 3);
        alloc.set(2, 2, 1);
        let mut contrib = contributions(&jobs, &alloc, &table, &cfg);
        let den = weight_sum(&jobs);
        assert_eq!(
            fitness_of(&contrib, den).to_bits(),
            fitness(&jobs, &alloc, &table, &cfg).to_bits()
        );
        // Patch one row and recompute only its contribution: still
        // bit-identical to a from-scratch evaluation.
        alloc.set(1, 1, 0);
        alloc.set(1, 3, 2);
        contrib[1] = contribution(&jobs, 1, &alloc, &table, &cfg);
        assert_eq!(
            fitness_of(&contrib, den).to_bits(),
            fitness(&jobs, &alloc, &table, &cfg).to_bits()
        );
    }

    #[test]
    fn table_fitness_matches_pure_speedup_fitness_bitwise() {
        let jobs = vec![
            job(0, 1.0, vec![2, 0, 0, 0]),
            job(1, 1.3, vec![]),
            job(2, 0.7, vec![0, 0, 1, 0]),
        ];
        let table = table_for(&jobs, 4, 4);
        let cfg = FitnessConfig::default();
        for (a, b, c) in [(2u32, 3u32, 1u32), (1, 0, 4), (4, 4, 0)] {
            let mut alloc = AllocationMatrix::zeros(3, 4);
            alloc.set(0, 0, a);
            alloc.set(1, 1, b);
            alloc.set(2, 2, c);
            let from_model: Vec<f64> = jobs
                .iter()
                .enumerate()
                .map(|(j, job)| {
                    let row = alloc.row(j);
                    row_contribution(job, row, row_shape(row), job.is_running(), &cfg, |shape| {
                        pure_speedup(job, shape)
                    })
                })
                .collect();
            assert_eq!(
                fitness(&jobs, &alloc, &table, &cfg).to_bits(),
                fitness_of(&from_model, weight_sum(&jobs)).to_bits()
            );
        }
    }

    #[test]
    fn utility_normalizes_by_total_gpus() {
        let jobs = vec![job(0, 1.0, vec![]), job(1, 1.0, vec![])];
        let mut alloc = AllocationMatrix::zeros(2, 4);
        alloc.set(0, 0, 1);
        alloc.set(1, 1, 1);
        let table = table_for(&jobs, 4, 4);
        // Two jobs at speedup 1 on a 16-GPU cluster: utility = 2/16.
        let u = utility(&jobs, &alloc, &table, 16);
        assert!((u - 2.0 / 16.0).abs() < 1e-9);
        assert_eq!(utility(&jobs, &alloc, &table, 0), 0.0);
    }

    #[test]
    fn utility_is_at_most_one() {
        // Speedup_j <= K_j, so Σ speedup <= total GPUs.
        let jobs = vec![job(0, 1.0, vec![]), job(1, 1.0, vec![])];
        let mut alloc = AllocationMatrix::zeros(2, 2);
        alloc.set(0, 0, 4);
        alloc.set(1, 1, 4);
        let table = table_for(&jobs, 2, 4);
        let u = utility(&jobs, &alloc, &table, 8);
        assert!(u <= 1.0 + 1e-9 && u > 0.0, "u = {u}");
    }
}
