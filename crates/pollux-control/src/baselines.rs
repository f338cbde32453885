//! Baseline schedulers from the Pollux evaluation (Sec. 2.3 / 5.2),
//! plus a zoo of classic DL scheduling policies — each one rule per
//! stage of [`StagedScheduler`](crate::StagedScheduler) (DESIGN.md §10)
//! rather than a monolith. Four of them differ only in the rank of the
//! one ranked-backfill admission, and every one places through the one
//! keep-then-pack placement.
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
//! - [`srtf()`] / [`srsf()`] — oracle shortest-remaining-time /
//!   shortest-remaining-service ranks of the backfilled admission.
//! - [`fifo_backfill()`] — **gang FIFO + backfill**: non-preemptive
//!   arrival-order gang scheduling; small jobs backfill around blocked
//!   heads.
//! - [`gandiva_packing()`] — Tiresias' admission with Gandiva-style
//!   best-fit packing, one placement rule away from [`tiresias()`].

pub use crate::fifo::fifo_backfill;
pub use crate::gandiva::gandiva_packing;
pub use crate::optimus::optimus;
pub use crate::or_etal::or_etal;
pub use crate::shortest::{srsf, srtf};
pub use crate::tiresias::tiresias;
