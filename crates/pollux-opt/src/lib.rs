//! Small-scale numerical optimization primitives used throughout Pollux.
//!
//! The Pollux paper relies on two optimizers:
//!
//! - **Golden-section search** ([`golden`]) to maximize the unimodal
//!   `GOODPUT(a, m)` over the batch size `m` (Eqn 13 and Eqn 15 of the
//!   paper).
//! - **L-BFGS-B** (SciPy, in the original implementation) to fit the
//!   seven system-throughput parameters `θsys` by minimizing a
//!   root-mean-squared-logarithmic-error loss subject to box constraints
//!   (`α, β ≥ 0`, `γ ∈ [1, 10]`). We provide an equivalent
//!   bound-constrained quasi-Newton optimizer in [`lbfgsb`]; like the
//!   SciPy call it is handed the exact gradient.
//!
//! All optimizers are deterministic given their inputs; none of them
//! allocate per-iteration beyond small work vectors.

pub mod bounds;
pub mod golden;
pub mod lbfgsb;

pub use bounds::Bounds;
pub use golden::{golden_section_max, golden_section_max_int};
pub use lbfgsb::{lbfgsb_minimize, LbfgsbResult};

/// Error type for optimizer misuse (invalid domains, NaN objectives).
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The search interval or box was empty or inverted.
    InvalidDomain(String),
    /// The objective returned a non-finite value at the initial point.
    NonFiniteObjective,
    /// Dimension mismatch between the initial point and the bounds.
    DimensionMismatch { point: usize, bounds: usize },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::InvalidDomain(msg) => write!(f, "invalid domain: {msg}"),
            OptError::NonFiniteObjective => {
                write!(f, "objective was non-finite at the initial point")
            }
            OptError::DimensionMismatch { point, bounds } => write!(
                f,
                "dimension mismatch: point has {point} coordinates but bounds have {bounds}"
            ),
        }
    }
}

impl std::error::Error for OptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = OptError::InvalidDomain("lo > hi".to_string());
        assert!(e.to_string().contains("lo > hi"));
        let e = OptError::DimensionMismatch {
            point: 3,
            bounds: 7,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('7'));
        assert!(OptError::NonFiniteObjective
            .to_string()
            .contains("non-finite"));
    }
}
