//! Goodput-driven cloud auto-scaling (Sec. 4.2.2).
//!
//! The cluster-utility measure
//!
//! ```text
//! UTILITY(A) = Σ_j SPEEDUP_j(A_j) / TOTAL_GPUS ∈ [0, 1]      (Eqn 17)
//! ```
//!
//! drives node provisioning: when utility is above
//! `HIGH_UTIL_THRES` (0.85), jobs would put additional GPUs to good
//! use, so nodes are requested; when it falls below `LOW_UTIL_THRES`
//! (0.45), nodes are released. The desired cluster size is found by
//! binary search under the assumption that utility decreases with
//! cluster size, each probe running the genetic algorithm to
//! (re-)optimize allocations for the probed size. A probed cluster has
//! nodes as wide as the current cluster's first, the width the round
//! resizes to.
//!
//! Because `SPEEDUP_j` is computed from the *goodput*, a job whose
//! statistical efficiency currently tolerates only small batches shows
//! a low speedup ceiling — so Pollux provisions few nodes early in
//! training and grows the cluster as the gradient noise scale rises
//! (Fig 10a), unlike throughput-based autoscalers.

use crate::fitness::utility;
use crate::ga::{GaConfig, GeneticAlgorithm};
use crate::speedup::{SchedJob, SpeedupTable};
use pollux_cluster::{AllocationMatrix, ClusterSpec, NodeId};
use rand::Rng;

/// Release nodes when utility falls below this.
const LOW_UTIL: f64 = 0.45;
/// Request nodes when utility rises above this.
const HIGH_UTIL: f64 = 0.85;
/// Smallest cluster size the autoscaler recommends (nodes).
const MIN_NODES: u32 = 1;

/// Configuration of the autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Largest allowed cluster size (nodes).
    pub max_nodes: u32,
    /// Genetic-algorithm settings used for the per-size probes.
    pub ga: GaConfig,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        Self {
            max_nodes: 16,
            ga: GaConfig {
                population: 40,
                generations: 25,
                ..Default::default()
            },
        }
    }
}

/// A scale recommendation.
#[derive(Debug, Clone)]
pub struct ScaleDecision {
    /// The recommended number of nodes.
    pub nodes: u32,
    /// The optimized allocation for that size.
    pub alloc: AllocationMatrix,
    /// The utility achieved at that size.
    pub utility: f64,
}

/// Goodput-based cluster autoscaler.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscaleConfig,
    ga: GeneticAlgorithm,
}

impl Autoscaler {
    /// Creates an autoscaler. Returns `None` for an empty node range
    /// (`max_nodes` of 0).
    pub fn new(config: AutoscaleConfig) -> Option<Self> {
        if config.max_nodes < MIN_NODES {
            return None;
        }
        Some(Self {
            ga: GeneticAlgorithm::new(config.ga),
            config,
        })
    }

    /// The target utility: the midpoint of the utility band.
    fn target_utility(&self) -> f64 {
        0.5 * (LOW_UTIL + HIGH_UTIL)
    }

    /// Optimizes allocations for the cluster `spec` and returns
    /// `(best allocation, utility)`.
    pub fn probe<R: Rng>(
        &self,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        rng: &mut R,
    ) -> (AllocationMatrix, f64) {
        let table = SpeedupTable::build(jobs, spec, 1);
        let (outcome, _) = self.ga.evolve(jobs, spec, vec![], &table, rng);
        let u = utility(jobs, &outcome.best, &table, spec.total_gpus());
        (outcome.best, u)
    }

    /// Recommends a cluster size for the current jobs on `spec`, the
    /// current cluster; every probed size has nodes as wide as its
    /// first.
    ///
    /// When the utility at the current size is already inside the
    /// band, the current size is kept (hysteresis). Otherwise a binary
    /// search over `[1, max_nodes]` finds the size whose utility is
    /// closest to the band midpoint (Sec. 4.2.2).
    pub fn recommend<R: Rng>(
        &self,
        jobs: &[SchedJob],
        spec: &ClusterSpec,
        rng: &mut R,
    ) -> ScaleDecision {
        let gpus_per_node = spec.gpus_on(NodeId(0));
        let probe = |nodes: u32, rng: &mut R| {
            let spec = ClusterSpec::homogeneous(nodes, gpus_per_node)
                .expect("at least one node, as wide as an existing one");
            self.probe(jobs, &spec, rng)
        };
        let current = (spec.num_nodes() as u32).clamp(MIN_NODES, self.config.max_nodes);
        let (cur_alloc, cur_util) = probe(current, rng);
        if (LOW_UTIL..=HIGH_UTIL).contains(&cur_util) {
            return ScaleDecision {
                nodes: current,
                alloc: cur_alloc,
                utility: cur_util,
            };
        }

        let target = self.target_utility();
        let mut lo = MIN_NODES;
        let mut hi = self.config.max_nodes;
        let mut best = ScaleDecision {
            nodes: current,
            alloc: cur_alloc,
            utility: cur_util,
        };
        let mut best_dist = (cur_util - target).abs();
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            let (alloc, u) = probe(mid, rng);
            let dist = (u - target).abs();
            if dist < best_dist {
                best_dist = dist;
                best = ScaleDecision {
                    nodes: mid,
                    alloc,
                    utility: u,
                };
            }
            // Utility decreases with more nodes: utility above target
            // means the cluster is too small.
            if u > target {
                lo = mid + 1;
            } else if mid == MIN_NODES {
                break;
            } else {
                hi = mid - 1;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pollux_cluster::JobId;
    use pollux_models::{BatchSizeLimits, EfficiencyModel, GoodputModel, ThroughputParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job(id: u32, phi: f64, cap: u32) -> SchedJob {
        let tp = ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap();
        let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        SchedJob {
            id: JobId(id),
            model: GoodputModel::new(tp, eff, limits).unwrap(),
            min_gpus: 1,
            gpu_cap: cap,
            weight: 1.0,
            current_placement: vec![],
        }
    }

    fn autoscaler() -> Autoscaler {
        let mut cfg = AutoscaleConfig::default();
        cfg.ga.population = 20;
        cfg.ga.generations = 10;
        cfg.max_nodes = 8;
        Autoscaler::new(cfg).unwrap()
    }

    /// A cluster of `n` 4-GPU nodes.
    fn nodes(n: u32) -> ClusterSpec {
        ClusterSpec::homogeneous(n, 4).unwrap()
    }

    #[test]
    fn config_validation() {
        let c = AutoscaleConfig {
            max_nodes: 0,
            ..Default::default()
        };
        assert!(Autoscaler::new(c).is_none());
        assert!(Autoscaler::new(AutoscaleConfig::default()).is_some());
    }

    #[test]
    fn recommended_alloc_fits_eight_gpu_nodes() {
        // The probes are as wide as the cluster's nodes: a scalable job
        // on 8-GPU nodes is handed more than 4 GPUs of one node, and
        // the allocation fits the recommended number of 8-GPU nodes.
        let a = autoscaler();
        let jobs = vec![job(0, 100_000.0, 64)];
        let mut rng = StdRng::seed_from_u64(7);
        let d = a.recommend(&jobs, &ClusterSpec::homogeneous(2, 8).unwrap(), &mut rng);
        assert!(d
            .alloc
            .is_feasible(&ClusterSpec::homogeneous(d.nodes, 8).unwrap()));
        let widest = d.alloc.row(0).iter().max().copied().unwrap_or(0);
        assert!(widest > 4, "at most {widest} GPUs on a node:\n{}", d.alloc);
    }

    #[test]
    fn low_phi_job_keeps_cluster_small() {
        // A job with tiny noise scale can't use big batches: speedup
        // ceiling is low, so the recommended cluster stays small.
        let a = autoscaler();
        let jobs = vec![job(0, 50.0, 64)];
        let mut rng = StdRng::seed_from_u64(1);
        let d = a.recommend(&jobs, &nodes(8), &mut rng);
        assert!(d.nodes <= 2, "nodes = {} (util {})", d.nodes, d.utility);
    }

    #[test]
    fn high_phi_job_grows_cluster() {
        // A job late in training (huge φ) scales well: more nodes are
        // justified than for the low-φ job.
        let a = autoscaler();
        let low = {
            let jobs = vec![job(0, 50.0, 64)];
            let mut rng = StdRng::seed_from_u64(2);
            a.recommend(&jobs, &nodes(4), &mut rng).nodes
        };
        let high = {
            let jobs = vec![job(0, 100_000.0, 64)];
            let mut rng = StdRng::seed_from_u64(2);
            a.recommend(&jobs, &nodes(4), &mut rng).nodes
        };
        assert!(high > low, "high-φ nodes {high} <= low-φ nodes {low}");
    }

    #[test]
    fn hysteresis_keeps_in_band_sizes() {
        // A scalable job on a small cluster: utility near 1 is above
        // the band... pick a size where utility lands inside the band
        // and verify no change is recommended.
        let a = autoscaler();
        let jobs = vec![job(0, 20_000.0, 64)];
        let mut rng = StdRng::seed_from_u64(3);
        let d = a.recommend(&jobs, &nodes(4), &mut rng);
        let mut rng2 = StdRng::seed_from_u64(4);
        let d2 = a.recommend(&jobs, &nodes(d.nodes), &mut rng2);
        assert!(
            d2.nodes.abs_diff(d.nodes) <= 1,
            "unstable recommendation: {} then {}",
            d.nodes,
            d2.nodes
        );
    }

    #[test]
    fn recommendation_within_configured_range() {
        let a = autoscaler();
        let jobs: Vec<SchedJob> = (0..4).map(|i| job(i, 100_000.0, 64)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let d = a.recommend(&jobs, &nodes(1), &mut rng);
        assert!(d.nodes >= 1 && d.nodes <= 8);
        assert!(d.utility >= 0.0 && d.utility <= 1.0 + 1e-9);
        assert_eq!(d.alloc.num_jobs(), 4);
    }

    #[test]
    fn probe_returns_feasible_alloc_and_unit_utility() {
        let a = autoscaler();
        let jobs = vec![job(0, 5000.0, 64)];
        let mut rng = StdRng::seed_from_u64(6);
        let (alloc, u) = a.probe(&jobs, &nodes(2), &mut rng);
        assert!(alloc.is_feasible(&nodes(2)));
        assert!((0.0..=1.0 + 1e-9).contains(&u));
    }
}
