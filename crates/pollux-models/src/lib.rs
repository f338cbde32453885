//! The Pollux goodput model (Sec. 3 of the paper).
//!
//! Goodput is the product of **system throughput** (training examples
//! processed per second, Eqns 8–11) and **statistical efficiency**
//! (progress per example relative to the user's initial batch size,
//! Eqn 7):
//!
//! ```text
//! GOODPUT_t(a, m) = THROUGHPUT(a, m) × EFFICIENCY_t(m)
//! ```
//!
//! This crate contains the pure math: no scheduling, no simulation.
//!
//! - [`efficiency`] — gradient noise scale φ_t and `EFFICIENCY_t(m)`.
//! - [`throughput`] — the 7-parameter θsys model of `T_iter` and
//!   `THROUGHPUT(a, m)`.
//! - [`goodput`] — the combined model, batch-size optimization (Eqn 13)
//!   and `SPEEDUP` (Eqn 15).
//! - [`adascale`] — AdaScale learning-rate scaling (Eqn 5) and
//!   scale-invariant progress accounting.
//! - [`fit`] — fitting θsys to observed `(placement, m, T_iter)`
//!   triples by RMSLE minimization with the paper's prior-driven
//!   exploration masks.
//!
//! Beneath them sit the two small optimizers the paper uses, private to
//! the crate: golden-section search over the batch size (`golden`,
//! Eqns 13 and 15), the one public item of which,
//! [`golden_section_max_int`], is the oracle the Eqn-13 solver is tested
//! against; and a bound-constrained L-BFGS-B handed the exact gradient
//! for the θsys fit (`lbfgsb` over `bounds`, Sec. 4.1). Misuse of
//! either — an empty or inverted domain, a dimension mismatch, an
//! objective that is never finite — is `None`.

pub mod adascale;
mod bounds;
pub mod efficiency;
pub mod fit;
mod golden;
pub mod goodput;
mod lbfgsb;
pub mod throughput;

pub use adascale::AdaScale;
pub use efficiency::{EfficiencyModel, GradientStats};
pub use fit::{
    fit_throughput_params, fit_throughput_params_constrained, fit_throughput_params_counted,
    fit_throughput_params_warm, FitObservation, FitPriors, FitReport, FitWork,
};
pub use golden::golden_section_max_int;
pub use goodput::{BatchSizeLimits, BatchSolve, GoodputModel, SpeedupProfile};
pub use throughput::{PlacementShape, ThroughputParams};
