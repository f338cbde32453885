//! Greedy local-search allocator — a simpler alternative to the
//! genetic algorithm (Sec. 4.2.1), used as an ablation point and as a
//! cheap backend for small clusters.
//!
//! Starting from the repaired current allocation (and a few random
//! restarts), repeatedly propose a single-element change
//! `A[j][n] ← v`, repair, and keep the proposal when fitness improves.
//! No crossover, no population: purely first-improvement hill
//! climbing.

use crate::fitness::{fitness, FitnessConfig};
use crate::ga::{incumbents, repair_matrix, GaWorkspace};
use crate::speedup::{SchedJob, SpeedupTable};
use pollux_cluster::{AllocationMatrix, ClusterSpec, NodeId};
use rand::Rng;

/// Configuration of the local search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSearchConfig {
    /// Single-element proposals evaluated per restart.
    pub iterations: usize,
    /// Independent restarts (the first starts from the current
    /// allocation, the rest from random matrices).
    pub restarts: usize,
    /// Enforce the interference-avoidance constraint.
    pub interference_avoidance: bool,
    /// Fitness settings (restart penalty).
    pub fitness: FitnessConfig,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        Self {
            iterations: 2000,
            restarts: 3,
            interference_avoidance: true,
            fitness: FitnessConfig::default(),
        }
    }
}

/// The hill-climbing allocator.
#[derive(Debug, Clone)]
pub struct LocalSearch {
    config: LocalSearchConfig,
}

impl LocalSearch {
    /// Creates the allocator.
    pub fn new(config: LocalSearchConfig) -> Self {
        Self { config }
    }

    /// Optimizes an allocation for `jobs` on `spec`.
    ///
    /// `table` must be built from the same `jobs` slice (see
    /// [`SpeedupTable::build`]); every proposal evaluation is then a
    /// handful of dense array lookups.
    ///
    /// Returns the best feasible matrix found and its fitness.
    pub fn optimize<R: Rng>(
        &self,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        table: &SpeedupTable,
        rng: &mut R,
    ) -> (AllocationMatrix, f64) {
        let num_jobs = jobs.len();
        let num_nodes = spec.num_nodes();
        let avoid = self.config.interference_avoidance;
        let mut ws = GaWorkspace::default();

        let mut best: Option<(AllocationMatrix, f64)> = None;
        for restart in 0..self.config.restarts.max(1) {
            let mut current = if restart == 0 {
                // Start from the currently applied placements.
                incumbents(jobs, spec)
            } else {
                let mut m = AllocationMatrix::zeros(num_jobs, num_nodes);
                for j in 0..num_jobs {
                    for n in 0..num_nodes {
                        let cap = spec.gpus_on(NodeId(n as u32));
                        m.set(j, n, rng.gen_range(0..=cap));
                    }
                }
                m
            };
            repair_matrix(&mut current, jobs, spec, avoid, rng, &mut ws);
            let mut current_fit = fitness(jobs, &current, table, &self.config.fitness);

            for _ in 0..self.config.iterations {
                if num_jobs == 0 {
                    break;
                }
                let j = rng.gen_range(0..num_jobs);
                let n = rng.gen_range(0..num_nodes);
                let cap = spec.gpus_on(NodeId(n as u32));
                let v = rng.gen_range(0..=cap);
                if current.get(j, n) == v {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.set(j, n, v);
                repair_matrix(&mut candidate, jobs, spec, avoid, rng, &mut ws);
                let f = fitness(jobs, &candidate, table, &self.config.fitness);
                if f > current_fit {
                    current = candidate;
                    current_fit = f;
                }
            }

            if best.as_ref().is_none_or(|(_, bf)| current_fit > *bf) {
                best = Some((current, current_fit));
            }
        }
        best.unwrap_or_else(|| (AllocationMatrix::zeros(num_jobs, num_nodes), 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job(id: u32, phi: f64) -> SchedJob {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        SchedJob {
            id: JobId(id),
            model: GoodputModel::new(tp, eff, limits).unwrap(),
            min_gpus: 1,
            gpu_cap: 64,
            weight: 1.0,
            current_placement: vec![],
        }
    }

    #[test]
    fn finds_feasible_improving_allocations() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..2).map(|i| job(i, 5000.0)).collect();
        let table = SpeedupTable::build(&jobs, &spec, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let ls = LocalSearch::new(LocalSearchConfig {
            iterations: 500,
            restarts: 2,
            ..Default::default()
        });
        let (m, f) = ls.optimize(&jobs, &spec, &table, &mut rng);
        assert!(m.is_feasible(&spec));
        assert!(m.satisfies_interference_avoidance());
        assert!(f > 1.0, "fitness = {f}");
        for j in 0..2 {
            assert!(m.gpus_of(j) >= 1, "job {j} starved:\n{m}");
        }
    }

    #[test]
    fn respects_constraints_like_the_ga() {
        let spec = ClusterSpec::homogeneous(4, 4).unwrap();
        let mut capped = job(0, 5000.0);
        capped.gpu_cap = 2;
        let mut needy = job(1, 5000.0);
        needy.min_gpus = 4;
        let jobs = vec![capped, needy];
        let table = SpeedupTable::build(&jobs, &spec, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let ls = LocalSearch::new(Default::default());
        let (m, _) = ls.optimize(&jobs, &spec, &table, &mut rng);
        assert!(m.gpus_of(0) <= 2);
        let k1 = m.gpus_of(1);
        assert!(k1 == 0 || k1 >= 4, "min violated: {k1}");
    }

    #[test]
    fn empty_job_list_is_graceful() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let table = SpeedupTable::build(&[], &spec, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let ls = LocalSearch::new(Default::default());
        let (m, f) = ls.optimize(&[], &spec, &table, &mut rng);
        assert_eq!(m.num_jobs(), 0);
        assert_eq!(f, 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = ClusterSpec::homogeneous(2, 4).unwrap();
        let jobs: Vec<SchedJob> = (0..3).map(|i| job(i, 2000.0)).collect();
        let ls = LocalSearch::new(LocalSearchConfig {
            iterations: 300,
            restarts: 2,
            ..Default::default()
        });
        let run = |seed: u64| {
            let table = SpeedupTable::build(&jobs, &spec, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            ls.optimize(&jobs, &spec, &table, &mut rng)
        };
        let (m1, f1) = run(7);
        let (m2, f2) = run(7);
        assert_eq!(m1, m2);
        assert_eq!(f1, f2);
    }
}
