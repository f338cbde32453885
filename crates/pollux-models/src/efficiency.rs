//! Statistical efficiency and the gradient noise scale (Sec. 3.1).
//!
//! The gradient noise scale at iteration `t` is
//!
//! ```text
//! φ_t = m0 · σ_t² / µ_t²
//! ```
//!
//! where `σ_t² = Var[ĝ(t)]` is the gradient variance and
//! `µ_t² = |E[ĝ(t)]|²` the squared gradient norm, both measured at the
//! initial batch size `m0`. Statistical efficiency at batch size
//! `m ≥ m0` is then (Eqn 7):
//!
//! ```text
//! EFFICIENCY_t(m) = (φ_t + m0) / (φ_t + m)  ∈ (0, 1]
//! ```
//!
//! Training at batch size `m` must process `1 / EFFICIENCY_t(m)` times
//! as many examples to make the same progress as at `m0`.

/// Raw gradient statistics measured at the initial batch size `m0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientStats {
    /// Gradient variance `σ_t² = Var[ĝ(t)]` (trace of the covariance).
    pub variance: f64,
    /// Squared gradient norm `µ_t² = |E[ĝ(t)]|²`.
    pub sqr_norm: f64,
}

impl GradientStats {
    /// Creates gradient statistics, validating non-negativity.
    ///
    /// Returns `None` when either statistic is negative or non-finite.
    /// A zero `sqr_norm` is accepted (the noise scale becomes infinite,
    /// meaning arbitrarily large batches stay efficient).
    pub fn new(variance: f64, sqr_norm: f64) -> Option<Self> {
        if variance >= 0.0 && sqr_norm >= 0.0 && variance.is_finite() && sqr_norm.is_finite() {
            Some(Self { variance, sqr_norm })
        } else {
            None
        }
    }

    /// The gradient noise scale `φ_t = m0 σ² / µ²` in units of examples.
    pub fn noise_scale(&self, m0: u64) -> f64 {
        if self.sqr_norm <= 0.0 {
            f64::INFINITY
        } else {
            m0 as f64 * self.variance / self.sqr_norm
        }
    }
}

/// The statistical-efficiency model `EFFICIENCY_t(m)` at one instant.
///
/// Snapshots are cheap to copy; `PolluxAgent` refreshes the noise scale
/// every reporting interval and rebuilds the model.
///
/// # Examples
///
/// ```
/// use pollux_models::EfficiencyModel;
///
/// // A job with initial batch size 128 and noise scale φ = 1000.
/// let eff = EfficiencyModel::from_noise_scale(128, 1000.0).unwrap();
/// assert_eq!(eff.efficiency(128), 1.0);            // m0 is the reference
/// assert!(eff.efficiency(1024) > 0.5);              // 8x batch stays useful
/// assert!(eff.efficiency(100_000) < 0.02);          // huge batches waste data
/// // AdaScale gain: one step at m=1024 ≈ 4.46 steps at m0.
/// assert!((eff.gain(1024) - 4.458).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyModel {
    /// Initial (user-submitted) batch size `m0`.
    m0: u64,
    /// Gradient noise scale `φ_t` in units of examples, `≥ 0`.
    phi: f64,
}

impl EfficiencyModel {
    /// Builds the model from the noise scale `φ_t` directly.
    ///
    /// Returns `None` when `m0 == 0`, or `φ_t` is negative or NaN
    /// (`+∞` is allowed and means "perfectly scalable right now").
    pub fn from_noise_scale(m0: u64, phi: f64) -> Option<Self> {
        if m0 == 0 || phi.is_nan() || phi < 0.0 {
            None
        } else {
            Some(Self { m0, phi })
        }
    }

    /// The initial batch size `m0`.
    pub fn m0(&self) -> u64 {
        self.m0
    }

    /// The gradient noise scale `φ_t` (examples).
    pub fn noise_scale(&self) -> f64 {
        self.phi
    }

    /// `EFFICIENCY_t(m) = (φ_t + m0) / (φ_t + m)` for `m ≥ m0`.
    ///
    /// Pollux only considers batch sizes at or above the user's initial
    /// `m0`; smaller arguments are clamped to `m0`, which yields an
    /// efficiency of exactly 1 (the paper's normalization point).
    pub fn efficiency(&self, m: u64) -> f64 {
        let m = m.max(self.m0) as f64;
        if self.phi.is_infinite() {
            return 1.0;
        }
        (self.phi + self.m0 as f64) / (self.phi + m)
    }

    /// The AdaScale gain `r_t(m) = (φ_t/m0 + 1) / (φ_t/m + 1)` (Eqn 5).
    ///
    /// One iteration at batch size `m` makes as much progress as `r_t`
    /// iterations at `m0`. Equivalently
    /// `EFFICIENCY_t(m) = r_t(m) · m0 / m` (Appendix A).
    pub fn gain(&self, m: u64) -> f64 {
        let m = m.max(self.m0) as f64;
        if self.phi.is_infinite() {
            // lim φ→∞ of (φ/m0 + 1)/(φ/m + 1) = m / m0.
            return m / self.m0 as f64;
        }
        (self.phi / self.m0 as f64 + 1.0) / (self.phi / m + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gradient_stats_validation() {
        assert!(GradientStats::new(1.0, 1.0).is_some());
        assert!(GradientStats::new(0.0, 0.0).is_some());
        assert!(GradientStats::new(-1.0, 1.0).is_none());
        assert!(GradientStats::new(1.0, -1.0).is_none());
        assert!(GradientStats::new(f64::NAN, 1.0).is_none());
        assert!(GradientStats::new(f64::INFINITY, 1.0).is_none());
    }

    #[test]
    fn noise_scale_formula() {
        let s = GradientStats::new(2.0, 4.0).unwrap();
        // φ = m0 σ²/µ² = 100 · 2 / 4 = 50.
        assert!((s.noise_scale(100) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn zero_norm_means_infinite_noise_scale() {
        let s = GradientStats::new(1.0, 0.0).unwrap();
        assert!(s.noise_scale(32).is_infinite());
        let e = EfficiencyModel::from_noise_scale(32, s.noise_scale(32)).unwrap();
        assert_eq!(e.efficiency(1 << 20), 1.0);
    }

    #[test]
    fn efficiency_is_one_at_m0() {
        let e = EfficiencyModel::from_noise_scale(128, 500.0).unwrap();
        assert!((e.efficiency(128) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_clamps_below_m0() {
        let e = EfficiencyModel::from_noise_scale(128, 500.0).unwrap();
        assert_eq!(e.efficiency(1), e.efficiency(128));
    }

    #[test]
    fn efficiency_matches_paper_formula() {
        // φ = 1000, m0 = 100, m = 400:
        // eff = (1000 + 100) / (1000 + 400) = 1100 / 1400.
        let e = EfficiencyModel::from_noise_scale(100, 1000.0).unwrap();
        assert!((e.efficiency(400) - 1100.0 / 1400.0).abs() < 1e-12);
    }

    #[test]
    fn gain_times_m0_over_m_equals_efficiency() {
        // The Appendix A identity: EFFICIENCY = r_t · m0 / m.
        let e = EfficiencyModel::from_noise_scale(64, 321.5).unwrap();
        for m in [64u64, 100, 256, 1024, 50_000] {
            let lhs = e.efficiency(m);
            let rhs = e.gain(m) * 64.0 / m as f64;
            assert!((lhs - rhs).abs() < 1e-12, "m = {m}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn high_noise_scale_tolerates_large_batches() {
        let low = EfficiencyModel::from_noise_scale(100, 100.0).unwrap();
        let high = EfficiencyModel::from_noise_scale(100, 10_000.0).unwrap();
        // At 8x the base batch size, the high-φ model retains much more
        // efficiency — the core premise behind Pollux's time-varying
        // batch size adaptation (Sec. 2.2).
        assert!(high.efficiency(800) > 0.9);
        assert!(low.efficiency(800) < 0.6);
    }

    #[test]
    fn gain_is_bounded_by_linear_speedup() {
        let e = EfficiencyModel::from_noise_scale(100, 1234.0).unwrap();
        for m in [100u64, 200, 400, 1600, 12_800] {
            let g = e.gain(m);
            assert!(g >= 1.0 - 1e-12);
            assert!(g <= m as f64 / 100.0 + 1e-12);
        }
    }

    #[test]
    fn infinite_phi_gain_is_linear() {
        let e = EfficiencyModel::from_noise_scale(100, f64::INFINITY).unwrap();
        assert!((e.gain(800) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_models_rejected() {
        assert!(EfficiencyModel::from_noise_scale(0, 1.0).is_none());
        assert!(EfficiencyModel::from_noise_scale(10, -1.0).is_none());
        assert!(EfficiencyModel::from_noise_scale(10, f64::NAN).is_none());
        assert!(EfficiencyModel::from_noise_scale(10, f64::INFINITY).is_some());
    }

    proptest! {
        #[test]
        fn efficiency_in_unit_interval_and_monotone(
            m0 in 1u64..10_000,
            phi in 0.0f64..1e9,
            m1 in 1u64..1_000_000,
            m2 in 1u64..1_000_000,
        ) {
            let e = EfficiencyModel::from_noise_scale(m0, phi).unwrap();
            let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
            let e_lo = e.efficiency(lo);
            let e_hi = e.efficiency(hi);
            prop_assert!(e_lo > 0.0 && e_lo <= 1.0 + 1e-12);
            prop_assert!(e_hi > 0.0 && e_hi <= 1.0 + 1e-12);
            // Efficiency is non-increasing in m.
            prop_assert!(e_hi <= e_lo + 1e-12);
        }

        #[test]
        fn gain_is_monotone_in_m(
            m0 in 1u64..10_000,
            phi in 0.0f64..1e9,
            m in 1u64..1_000_000,
        ) {
            let e = EfficiencyModel::from_noise_scale(m0, phi).unwrap();
            // More data per iteration never makes an iteration less useful.
            prop_assert!(e.gain(m.saturating_add(1000)) >= e.gain(m) - 1e-12);
        }
    }
}
