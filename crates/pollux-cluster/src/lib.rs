//! Cluster topology and GPU allocation matrices.
//!
//! `PolluxSched` reasons about the cluster through an **allocation
//! matrix** `A` (Sec. 4.2): row `A_j` is the placement vector of job
//! `j`, and `A[j][n]` is the number of GPUs allocated to job `j` on
//! node `n`. This crate provides:
//!
//! - [`spec::ClusterSpec`] — node inventory and GPU capacities;
//! - [`alloc::AllocationMatrix`] — the matrix with capacity checks,
//!   placement-shape reduction, and the queries the genetic algorithm's
//!   repair step needs;
//! - [`topology::Topology`] — node → rack grouping for the two-phase
//!   (rack, then GPU) placement search;
//! - [`ids`] — strongly-typed job/node identifiers.

pub mod alloc;
pub mod ids;
pub mod spec;
pub mod topology;

pub use alloc::{row_is_empty, row_shape, AllocationMatrix};
pub use ids::{JobId, NodeId};
pub use spec::{ClusterSpec, NodeSpec};
pub use topology::Topology;
