//! Reproduction harness for every table and figure in the Pollux
//! paper's evaluation (Sec. 5).
//!
//! One module per experiment; each exposes a `run(...)` returning
//! structured data plus a `Display` implementation that prints the
//! same rows/series the paper reports. The `experiments` binary runs
//! any of them by name (`experiments --list`; `zoo` keeps its own
//! `policy-zoo` binary), and EXPERIMENTS.md records paper-vs-measured
//! values.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Fig 1a/1b — batch size vs scalability trade-offs |
//! | [`fig2`] | Fig 2a/2b — statistical efficiency and Eqn 7 validation |
//! | [`fig3`] | Fig 3a/3b — throughput-model fit |
//! | [`fig6`] | Fig 6 — workload submission histogram |
//! | [`table2`] | Table 2 — JCT/makespan vs baselines (+Sec 5.2.1 factors) |
//! | [`fig7`] | Fig 7 — realistic user-configured job sweep |
//! | [`fig8`] | Fig 8 — load sweep |
//! | [`table3`] | Table 3 — job-weight decay sweep |
//! | [`fig9`] | Fig 9 — interference-avoidance sweep |
//! | [`fig10`] | Fig 10a/10b — cloud auto-scaling comparison |
//! | [`ablations`] | extra ablations: γ-norm, restart penalty, co-adaptation |
//! | [`zoo`] | policy-zoo head-to-head across every registered scheduler |
//!
//! Every simulated table and figure runs through one path, [`cell`]:
//! an experiment declares its `(point × policy × trace)` grid as
//! [`cell::Cell`] data, [`cell::run_cells`] simulates the whole grid on
//! one order-preserving worker pool (results are byte-identical to the
//! serial loop at any worker count), and [`cell::Summary::mean_of`]
//! averages the traces of each table cell. The `policy-zoo` and
//! `pollux-sim` binaries run their cells the same way.

pub mod ablations;
pub mod cell;
pub mod common;
pub mod fig1;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod table3;
pub mod zoo;
