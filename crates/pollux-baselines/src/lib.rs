//! Baseline schedulers from the Pollux evaluation (Sec. 2.3 / 5.2),
//! plus a zoo of classic DL scheduling policies — each built from the
//! Blox-style admission / placement / preemption stages in
//! `pollux_control::stages` (DESIGN.md §10) rather than as a monolith.
//! Four of them differ only in the rank of the one ranked-backfill
//! admission (`RankedBackfill`), and every one places through the one
//! keep-then-pack stage (`ConsolidatedPlacement`).
//!
//! - [`tiresias()`] — **Tiresias(+TunedJobs)**: non-resource-adaptive.
//!   Jobs run with their user-submitted GPU count; scheduling uses
//!   least-attained-service (discretized two-queue) priorities with
//!   preemption and consolidated placement.
//! - [`optimus()`] — **Optimus(+Oracle)**: only-resource-adaptive. Uses
//!   the agent-fitted throughput model (the paper substitutes its own
//!   model for Optimus's parameter-server-specific one) and an oracle
//!   for remaining work, and greedily assigns GPUs by marginal
//!   JCT improvement. Batch sizes stay user-fixed.
//! - [`or_etal()`] — **Or et al.**: throughput-based cloud autoscaler
//!   that grows the batch size linearly with workers and provisions
//!   nodes while throughput scaling efficiency stays above a
//!   threshold — the Fig 10 comparison point.
//! - [`shortest`] — **SRTF / SRSF**: oracle shortest-remaining-time /
//!   shortest-remaining-service ranks of the backfilled admission.
//! - [`fifo`] — **gang FIFO + backfill**: non-preemptive arrival-order
//!   gang scheduling; small jobs backfill around blocked heads.
//! - [`gandiva`] — Tiresias' admission with Gandiva-style best-fit
//!   packing, one placement stage away from [`tiresias()`].

pub mod fifo;
pub mod gandiva;
pub mod optimus;
pub mod or_etal;
pub mod shortest;
pub mod tiresias;

pub use fifo::fifo_backfill;
pub use gandiva::gandiva_packing;
pub use optimus::{optimus, OptimusAdmission};
pub use or_etal::{or_etal, OrEtAlAdmission};
pub use shortest::{srsf, srtf};
pub use tiresias::{las_two_queue, tiresias};
