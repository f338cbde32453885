//! `PolluxSched` — cluster-wide optimization (Sec. 4.2).
//!
//! At every scheduling interval (60 s in the paper), the scheduler
//! re-optimizes the cluster-wide allocation matrix by maximizing the
//! fitness function
//!
//! ```text
//! FITNESS(A) = Σ_j w_j · SPEEDUP_j(A_j) / Σ_j w_j          (Eqn 14)
//! ```
//!
//! with a genetic algorithm whose operators (mutation, tournament
//! crossover, repair) are described in Sec. 4.2.1 / Fig 5. Every search
//! starts from [`bound`]: Eqn 14 is a weighted mean of per-job terms,
//! so relaxing node capacity and interference avoidance to a GPU budget
//! turns it into a knapsack a DP solves exactly. The DP's optimum
//! bounds every feasible matrix from above and its pick, packed onto
//! the nodes, is a feasible one; a round whose packed pick meets the
//! bound is certified optimal and runs no generation, and every other
//! round seeds the GA with it and stops once the GA's best meets the
//! bound. The crate also implements:
//!
//! - job weights decaying with attained GPU-time (Eqn 16, [`weights`]);
//! - the restart penalty for re-allocated jobs ([`mod@fitness`]);
//! - the interference-avoidance constraint (at most one distributed
//!   job per node, enforced during repair, [`ga`]);
//! - goodput-based cloud auto-scaling via the `UTILITY` measure
//!   (Eqn 17, Sec. 4.2.2, [`autoscale`]).
//!
//! # Fitness evaluation: dense tables + incremental contributions
//!
//! At the start of every optimization round the scheduler precomputes
//! a dense [`SpeedupTable`]: one flat `f64` stripe per job over the
//! bounded shape space (GPU count × colocated/distributed locality).
//! After that, every fitness lookup on the GA hot path is an
//! unsynchronized array index — no hashing, no locks, no batch-size
//! solves. The GA additionally evaluates fitness *incrementally*: each
//! chromosome carries its per-job contribution vector and only rows
//! touched by mutation, crossover, or repair are recomputed ([`ga`]).
//!
//! # Parallelism
//!
//! The flat round runs on the calling thread: after the separable
//! bound, its GA is a short polish with nothing worth a second thread.
//! With a multi-rack topology ([`PolluxSched::set_topology`]) the
//! per-rack searches — and phase 1's scan of the jobs' placements —
//! fan out over [`par::parallel_map`] on as many threads as the host
//! has cores ([`PolluxSched::set_threads`] caps it), each rack under a
//! seed drawn serially in rack order, so for a fixed seed the schedule
//! is bit-identical at every worker count. `par.rs` is the one place
//! the crate spawns a thread.

pub mod autoscale;
pub mod bound;
pub mod fitness;
pub mod ga;
pub mod par;
pub mod racks;
pub mod scheduler;
pub mod speedup;
pub mod weights;

pub use autoscale::{AutoscaleConfig, Autoscaler};
pub use fitness::{
    contribution, contributions, fitness, fitness_of, utility, weight_sum, FitnessConfig,
};
pub use ga::{repair_matrix, GaConfig, GaOutcome, GaRunStats, GaWorkspace, GeneticAlgorithm};
pub use par::parallel_map;
pub use racks::{assign_racks, home_rack};
pub use scheduler::{PolluxSched, SchedConfig};
pub use speedup::{SchedJob, SpeedupTable, SpeedupTableStats};
pub use weights::{job_weight, WeightConfig};
