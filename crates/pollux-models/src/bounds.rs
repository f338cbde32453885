//! Box constraints for bound-constrained optimization.

/// A rectangular (box) constraint set: `lo[i] <= x[i] <= hi[i]`.
///
/// Either side may be infinite. Construction validates that every
/// interval is non-empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Bounds {
    /// Creates a box from lower and upper coordinate bounds.
    ///
    /// Returns `None` if lengths differ, any `lo[i] > hi[i]`, or any
    /// bound is NaN.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Option<Self> {
        if lo.len() != hi.len() {
            return None;
        }
        for (&l, &h) in lo.iter().zip(&hi) {
            if l.is_nan() || h.is_nan() || l > h {
                return None;
            }
        }
        Some(Self { lo, hi })
    }

    /// Number of coordinates.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound of coordinate `i`.
    pub fn lo(&self, i: usize) -> f64 {
        self.lo[i]
    }

    /// Upper bound of coordinate `i`.
    pub fn hi(&self, i: usize) -> f64 {
        self.hi[i]
    }

    /// Projects `x` onto the box in place (componentwise clamp).
    pub fn project(&self, x: &mut [f64]) {
        for (xi, (&l, &h)) in x.iter_mut().zip(self.lo.iter().zip(&self.hi)) {
            if *xi < l {
                *xi = l;
            } else if *xi > h {
                *xi = h;
            }
        }
    }

    /// Returns a projected copy of `x`.
    pub fn projected(&self, x: &[f64]) -> Vec<f64> {
        let mut y = x.to_vec();
        self.project(&mut y);
        y
    }

    /// True when coordinate `i` of `x` is at (or numerically on) a bound
    /// and the gradient pushes it further outside.
    ///
    /// Used to zero search directions along active constraints.
    pub fn is_active(&self, x: &[f64], grad: &[f64], i: usize) -> bool {
        let eps = 1e-12;
        (x[i] <= self.lo[i] + eps && grad[i] > 0.0) || (x[i] >= self.hi[i] - eps && grad[i] < 0.0)
    }
}

/// The boxes and the membership test only the tests build and ask.
#[cfg(test)]
impl Bounds {
    /// An unconstrained box of dimension `dim`.
    pub fn unbounded(dim: usize) -> Self {
        Self {
            lo: vec![f64::NEG_INFINITY; dim],
            hi: vec![f64::INFINITY; dim],
        }
    }

    /// A box where every coordinate shares the same `[lo, hi]` interval.
    pub fn uniform(dim: usize, lo: f64, hi: f64) -> Option<Self> {
        Self::new(vec![lo; dim], vec![hi; dim])
    }

    /// True when `x` lies inside the box (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&xi, (&l, &h))| xi >= l && xi <= h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_rejects_bad_boxes() {
        assert!(Bounds::new(vec![0.0], vec![1.0, 2.0]).is_none());
        assert!(Bounds::new(vec![2.0], vec![1.0]).is_none());
        assert!(Bounds::new(vec![f64::NAN], vec![1.0]).is_none());
        assert!(Bounds::new(vec![0.0], vec![0.0]).is_some());
    }

    #[test]
    fn project_clamps_each_coordinate() {
        let b = Bounds::new(vec![0.0, -1.0], vec![1.0, 1.0]).unwrap();
        let mut x = vec![-5.0, 0.5];
        b.project(&mut x);
        assert_eq!(x, vec![0.0, 0.5]);
        let mut x = vec![2.0, 9.0];
        b.project(&mut x);
        assert_eq!(x, vec![1.0, 1.0]);
    }

    #[test]
    fn unbounded_contains_everything_finite() {
        let b = Bounds::unbounded(3);
        assert!(b.contains(&[1e300, -1e300, 0.0]));
    }

    #[test]
    fn active_set_detection() {
        let b = Bounds::new(vec![0.0], vec![10.0]).unwrap();
        // At the lower bound with a gradient pushing down (positive grad on
        // a minimization step moves x down): active.
        assert!(b.is_active(&[0.0], &[1.0], 0));
        assert!(!b.is_active(&[0.0], &[-1.0], 0));
        assert!(b.is_active(&[10.0], &[-1.0], 0));
        assert!(!b.is_active(&[5.0], &[1.0], 0));
    }

    proptest! {
        #[test]
        fn projection_is_idempotent_and_feasible(
            lo in -100.0f64..0.0,
            width in 0.0f64..100.0,
            x in proptest::collection::vec(-1e4f64..1e4, 1..8)
        ) {
            let dim = x.len();
            let b = Bounds::uniform(dim, lo, lo + width).unwrap();
            let p1 = b.projected(&x);
            prop_assert!(b.contains(&p1));
            let p2 = b.projected(&p1);
            prop_assert_eq!(p1, p2);
        }

        #[test]
        fn projection_is_closest_point_componentwise(
            x in proptest::collection::vec(-1e4f64..1e4, 1..8)
        ) {
            let dim = x.len();
            let b = Bounds::uniform(dim, -1.0, 1.0).unwrap();
            let p = b.projected(&x);
            for i in 0..dim {
                // No feasible coordinate can be closer than the clamp.
                let closest = x[i].clamp(-1.0, 1.0);
                prop_assert!((p[i] - closest).abs() < 1e-15);
            }
        }
    }
}
