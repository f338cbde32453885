//! Gradient-noise-scale trajectories φ(progress).
//!
//! The noise scale is non-constant: it "tends to gradually increase
//! during training, by up to 10× or more" (Sec. 2.2, citing McCandlish
//! et al.), and jumps sharply when the learning rate is decayed
//! (Fig 2a shows ImageNet's efficiency spiking at epochs 30 and 60).
//! We model φ as geometric interpolation from `phi_start` to `phi_end`
//! over normalized progress `p ∈ [0, 1]`, times step *boosts* that
//! activate at learning-rate-decay points.

/// A φ(progress) trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct GnsProfile {
    /// Noise scale at the start of training (examples).
    pub phi_start: f64,
    /// Noise scale at the end of training, before boosts (examples).
    pub phi_end: f64,
    /// `(progress threshold, multiplier)` pairs: once `p ≥ threshold`
    /// the multiplier applies (learning-rate decay events).
    pub boosts: Vec<(f64, f64)>,
}

impl GnsProfile {
    /// Creates a trajectory. Returns `None` when either endpoint is
    /// non-positive/non-finite, or any boost is malformed.
    pub fn new(phi_start: f64, phi_end: f64, boosts: Vec<(f64, f64)>) -> Option<Self> {
        let ok = phi_start > 0.0
            && phi_start.is_finite()
            && phi_end > 0.0
            && phi_end.is_finite()
            && boosts
                .iter()
                .all(|&(p, m)| (0.0..=1.0).contains(&p) && m > 0.0 && m.is_finite());
        if ok {
            Some(Self {
                phi_start,
                phi_end,
                boosts,
            })
        } else {
            None
        }
    }

    /// A flat trajectory (constant φ), useful in tests.
    pub fn constant(phi: f64) -> Option<Self> {
        Self::new(phi, phi, vec![])
    }

    /// The noise scale at normalized progress `p` (clamped to [0, 1]).
    pub fn phi(&self, progress: f64) -> f64 {
        let p = progress.clamp(0.0, 1.0);
        // Geometric interpolation keeps the growth multiplicative, the
        // empirically observed shape.
        let base = self.phi_start * (self.phi_end / self.phi_start).powf(p);
        let boost: f64 = self
            .boosts
            .iter()
            .filter(|&&(thr, _)| p >= thr)
            .map(|&(_, m)| m)
            .product();
        base * boost
    }

    /// Total growth factor over the whole trajectory (including boosts).
    pub fn total_growth(&self) -> f64 {
        self.phi(1.0) / self.phi(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn validation() {
        assert!(GnsProfile::new(100.0, 1000.0, vec![]).is_some());
        assert!(GnsProfile::new(0.0, 1000.0, vec![]).is_none());
        assert!(GnsProfile::new(100.0, -1.0, vec![]).is_none());
        assert!(GnsProfile::new(100.0, f64::INFINITY, vec![]).is_none());
        assert!(GnsProfile::new(100.0, 1000.0, vec![(1.5, 2.0)]).is_none());
        assert!(GnsProfile::new(100.0, 1000.0, vec![(0.5, 0.0)]).is_none());
        assert!(GnsProfile::new(100.0, 1000.0, vec![(0.5, 2.0)]).is_some());
    }

    #[test]
    fn endpoints_match() {
        let g = GnsProfile::new(100.0, 1000.0, vec![]).unwrap();
        assert!((g.phi(0.0) - 100.0).abs() < 1e-9);
        assert!((g.phi(1.0) - 1000.0).abs() < 1e-9);
        // Geometric midpoint.
        assert!((g.phi(0.5) - (100.0f64 * 1000.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn progress_is_clamped() {
        let g = GnsProfile::new(100.0, 1000.0, vec![]).unwrap();
        assert_eq!(g.phi(-1.0), g.phi(0.0));
        assert_eq!(g.phi(2.0), g.phi(1.0));
    }

    #[test]
    fn boosts_activate_at_thresholds() {
        // ImageNet-style: 3x at p = 0.35, 2x at p = 0.7.
        let g = GnsProfile::new(500.0, 5000.0, vec![(0.35, 3.0), (0.7, 2.0)]).unwrap();
        let before = g.phi(0.34);
        let after = g.phi(0.36);
        // The jump dominates the smooth growth over Δp = 0.02.
        assert!(after / before > 2.5, "jump = {}", after / before);
        assert!((g.total_growth() - 10.0 * 6.0).abs() < 1e-6);
    }

    #[test]
    fn constant_profile_is_flat() {
        let g = GnsProfile::constant(123.0).unwrap();
        assert_eq!(g.phi(0.0), 123.0);
        assert_eq!(g.phi(0.5), 123.0);
        assert_eq!(g.phi(1.0), 123.0);
        assert_eq!(g.total_growth(), 1.0);
    }

    proptest! {
        #[test]
        fn phi_positive_and_monotone_for_growing_profiles(
            start in 1.0f64..1e4,
            growth in 1.0f64..100.0,
            p1 in 0.0f64..1.0,
            p2 in 0.0f64..1.0,
        ) {
            let g = GnsProfile::new(start, start * growth, vec![(0.5, 2.0)]).unwrap();
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = g.phi(lo);
            let b = g.phi(hi);
            prop_assert!(a > 0.0 && b > 0.0);
            prop_assert!(b >= a - 1e-9, "phi not monotone: {} at {} vs {} at {}", a, lo, b, hi);
        }
    }
}
