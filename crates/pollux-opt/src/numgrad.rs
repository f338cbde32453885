//! Central-difference numerical gradients.
//!
//! No solver here differentiates numerically: [`crate::lbfgsb`] takes
//! the exact gradient from its caller. This is the independent oracle
//! that tests compare such analytic gradients against (the θsys fit's,
//! through the γ-norm of Eqn 11, in `pollux-models`).

/// Computes the central-difference gradient of `f` at `x`.
///
/// The step for each coordinate is `eps * max(1, |x[i]|)`, a standard
/// relative step that behaves well for both tiny and large parameter
/// magnitudes.
pub fn central_gradient<F>(f: &mut F, x: &[f64], eps: f64) -> Vec<f64>
where
    F: FnMut(&[f64]) -> f64,
{
    let mut grad = vec![0.0; x.len()];
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        let h = eps * x[i].abs().max(1.0);
        let orig = xp[i];
        xp[i] = orig + h;
        let fp = f(&xp);
        xp[i] = orig - h;
        let fm = f(&xp);
        xp[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gradient_of_quadratic() {
        // f(x) = sum x_i^2, grad = 2x.
        let mut f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let x = [1.0, -2.0, 3.5];
        let g = central_gradient(&mut f, &x, 1e-6);
        for (gi, xi) in g.iter().zip(&x) {
            assert!((gi - 2.0 * xi).abs() < 1e-6, "{gi} vs {}", 2.0 * xi);
        }
    }

    #[test]
    fn gradient_of_exp_cross_terms() {
        // f(x, y) = exp(x) * y; df/dx = exp(x) y, df/dy = exp(x).
        let mut f = |x: &[f64]| x[0].exp() * x[1];
        let g = central_gradient(&mut f, &[0.5, 2.0], 1e-6);
        assert!((g[0] - 0.5f64.exp() * 2.0).abs() < 1e-5);
        assert!((g[1] - 0.5f64.exp()).abs() < 1e-5);
    }

    proptest! {
        #[test]
        fn linear_functions_have_exact_gradients(
            coeffs in proptest::collection::vec(-10.0f64..10.0, 1..6),
            point in proptest::collection::vec(-10.0f64..10.0, 1..6),
        ) {
            let dim = coeffs.len().min(point.len());
            let c = coeffs[..dim].to_vec();
            let x = point[..dim].to_vec();
            let mut f = |v: &[f64]| v.iter().zip(&c).map(|(a, b)| a * b).sum::<f64>();
            let g = central_gradient(&mut f, &x, 1e-6);
            for (gi, ci) in g.iter().zip(&c) {
                prop_assert!((gi - ci).abs() < 1e-6);
            }
        }
    }
}
