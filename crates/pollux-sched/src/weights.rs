//! Job fairness weights (Eqn 16).
//!
//! ```text
//! w_j = min(1, GPUTIME_THRES / GPUTIME(j))^λ
//! ```
//!
//! Jobs keep weight 1 until they have consumed `GPUTIME_THRES`
//! GPU-seconds; after that the weight decays, letting smaller jobs
//! finish quickly ahead of long-running large jobs. `λ = 0` disables
//! the decay (every job weighs 1), larger `λ` decays faster.

/// GPU-time below which jobs keep full weight: the paper's 4 GPU-hours,
/// in GPU-seconds.
const GPUTIME_THRES: f64 = 4.0 * 3600.0;

/// Configuration of the weight decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightConfig {
    /// Decay exponent λ ≥ 0 (the paper's default is 0.5).
    pub lambda: f64,
}

impl Default for WeightConfig {
    fn default() -> Self {
        Self { lambda: 0.5 }
    }
}

/// Computes `w_j` for a job that has consumed `gputime` GPU-seconds.
///
/// Non-finite or negative GPU-time is treated as 0 (full weight).
///
/// # Examples
///
/// ```
/// use pollux_sched::{job_weight, WeightConfig};
///
/// let cfg = WeightConfig::default(); // 4 GPU-hour threshold, λ = 0.5
/// assert_eq!(job_weight(&cfg, 3600.0), 1.0);               // under threshold
/// assert!((job_weight(&cfg, 16.0 * 3600.0) - 0.5) < 1e-12); // 4x over: (1/4)^0.5
/// ```
pub fn job_weight(config: &WeightConfig, gputime: f64) -> f64 {
    if config.lambda <= 0.0 {
        return 1.0;
    }
    let gputime = if gputime.is_finite() {
        gputime.max(0.0)
    } else {
        0.0
    };
    if gputime <= GPUTIME_THRES {
        1.0
    } else {
        (GPUTIME_THRES / gputime).powf(config.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(lambda: f64) -> WeightConfig {
        WeightConfig { lambda }
    }

    #[test]
    fn full_weight_below_threshold() {
        let c = cfg(0.5);
        assert_eq!(job_weight(&c, 0.0), 1.0);
        assert_eq!(job_weight(&c, 3600.0), 1.0);
        assert_eq!(job_weight(&c, 4.0 * 3600.0), 1.0);
    }

    #[test]
    fn decays_above_threshold() {
        let c = cfg(0.5);
        // 16 GPU-hours = 4x the threshold: weight = (1/4)^0.5 = 0.5.
        assert!((job_weight(&c, 16.0 * 3600.0) - 0.5).abs() < 1e-12);
        // 400 GPU-hours: weight = (1/100)^0.5 = 0.1.
        assert!((job_weight(&c, 400.0 * 3600.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn lambda_zero_disables_decay() {
        let c = cfg(0.0);
        assert_eq!(job_weight(&c, 1e12), 1.0);
    }

    #[test]
    fn lambda_one_decays_faster_than_half() {
        let g = 64.0 * 3600.0;
        assert!(job_weight(&cfg(1.0), g) < job_weight(&cfg(0.5), g));
    }

    #[test]
    fn garbage_gputime_gets_full_weight() {
        let c = cfg(0.5);
        assert_eq!(job_weight(&c, f64::NAN), 1.0);
        assert_eq!(job_weight(&c, -5.0), 1.0);
        assert_eq!(job_weight(&c, f64::INFINITY), 1.0);
    }

    proptest! {
        #[test]
        fn weight_in_unit_interval_and_monotone(
            lambda in 0.0f64..3.0,
            g1 in 0.0f64..1e9,
            g2 in 0.0f64..1e9,
        ) {
            let c = cfg(lambda);
            let (lo, hi) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
            let w_lo = job_weight(&c, lo);
            let w_hi = job_weight(&c, hi);
            prop_assert!(w_lo > 0.0 && w_lo <= 1.0);
            prop_assert!(w_hi > 0.0 && w_hi <= 1.0);
            // More attained GPU-time never increases the weight.
            prop_assert!(w_hi <= w_lo + 1e-12);
        }
    }
}
