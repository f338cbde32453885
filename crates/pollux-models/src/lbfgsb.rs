//! Bound-constrained limited-memory quasi-Newton minimization.
//!
//! A practical replacement for the L-BFGS-B routine the original Pollux
//! implementation calls through SciPy: limited-memory BFGS directions
//! computed on the free variables (gradient-projection active set), with
//! a projected-path backtracking Armijo line search. Like the paper's
//! SciPy call, the caller supplies the exact gradient: the objective is
//! one closure that returns the value and writes the gradient. For the
//! 7-parameter θsys fit this converges in a few dozen iterations.

use crate::bounds::Bounds;

/// History length for the limited-memory Hessian approximation.
const HISTORY: usize = 8;
/// Convergence tolerance on the projected-gradient infinity norm.
const GRAD_TOL: f64 = 1e-8;
/// Convergence tolerance on the relative objective decrease.
const F_TOL: f64 = 1e-12;

/// Result of a bound-constrained minimization.
#[derive(Debug, Clone)]
pub struct LbfgsbResult {
    /// Final (feasible) point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub fx: f64,
    /// Outer iterations performed.
    pub iters: usize,
    /// Value-and-gradient evaluations performed.
    pub evals: usize,
}

/// Minimizes over the box `bounds` starting from `x0`, for at most
/// `max_iters` outer iterations.
///
/// `fg(x, grad)` returns the objective at `x` and writes its gradient
/// into `grad`. It is only ever called on points inside the box.
/// `None` when `x0` and `bounds` differ in dimension, or when the
/// objective is non-finite at the projected initial point.
pub fn lbfgsb_minimize<F>(
    mut fg: F,
    x0: &[f64],
    bounds: &Bounds,
    max_iters: usize,
) -> Option<LbfgsbResult>
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    if x0.len() != bounds.dim() {
        return None;
    }
    let n = x0.len();
    let mut x = bounds.projected(x0);
    let mut grad = vec![0.0; n];
    let mut fx = fg(&x, &mut grad);
    let mut evals = 1;
    if !fx.is_finite() {
        return None;
    }

    // Work buffers, reused by every iteration.
    let mut active = vec![false; n];
    let mut d = vec![0.0; n];
    let mut x_new = vec![0.0; n];
    let mut grad_new = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut alphas = vec![0.0; HISTORY];
    let mut s_hist: Vec<Vec<f64>> = Vec::with_capacity(HISTORY);
    let mut y_hist: Vec<Vec<f64>> = Vec::with_capacity(HISTORY);
    let mut rho_hist: Vec<f64> = Vec::with_capacity(HISTORY);
    let mut iters = 0;

    for iter in 0..max_iters {
        iters = iter + 1;

        // Projected-gradient stationarity check: || P(x - g) - x ||_inf.
        let mut pg_norm: f64 = 0.0;
        for i in 0..n {
            let stepped = (x[i] - grad[i]).clamp(bounds.lo(i), bounds.hi(i));
            pg_norm = pg_norm.max((stepped - x[i]).abs());
        }
        if pg_norm < GRAD_TOL {
            break;
        }

        // Two-loop recursion for d = -H * g on the free variables: the
        // gradient is zeroed along active bounds going in, and the
        // direction coming out, so the line search does not fight the
        // projection.
        for (i, a) in active.iter_mut().enumerate() {
            *a = bounds.is_active(&x, &grad, i);
        }
        d.copy_from_slice(&grad);
        zero_where(&mut d, &active);
        two_loop_direction(&mut d, &s_hist, &y_hist, &rho_hist, &mut alphas);
        zero_where(&mut d, &active);
        let mut dd = dot(&d, &grad);
        if dd >= 0.0 || !dd.is_finite() {
            // Not a descent direction (stale curvature); reset to steepest
            // descent on the free variables.
            s_hist.clear();
            y_hist.clear();
            rho_hist.clear();
            for (di, g) in d.iter_mut().zip(&grad) {
                *di = -g;
            }
            zero_where(&mut d, &active);
            if d.iter().all(|&v| v == 0.0) {
                break;
            }
            dd = dot(&d, &grad);
        }

        // Projected backtracking line search (Armijo).
        let mut alpha = 1.0;
        let c1 = 1e-4;
        let mut accepted = false;
        let mut f_new = fx;
        for _ in 0..50 {
            for i in 0..n {
                x_new[i] = (x[i] + alpha * d[i]).clamp(bounds.lo(i), bounds.hi(i));
            }
            f_new = fg(&x_new, &mut grad_new);
            evals += 1;
            // The Armijo condition along the projected path uses the true
            // displacement rather than alpha * d.
            let disp_dot_grad: f64 = x_new
                .iter()
                .zip(&x)
                .zip(&grad)
                .map(|((xn, xo), g)| (xn - xo) * g)
                .sum();
            if f_new.is_finite() && f_new <= fx + c1 * disp_dot_grad.min(alpha * dd) {
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            // The line search failed: we are at (numerical) stationarity.
            break;
        }

        // Curvature pair (s, y) = (x_new - x, grad_new - grad). Once the
        // history is full the evicted pair's buffers become the scratch.
        for i in 0..n {
            s[i] = x_new[i] - x[i];
            y[i] = grad_new[i] - grad[i];
        }
        let sy = dot(&s, &y);
        if sy > 1e-12 && sy.is_finite() {
            if s_hist.len() == HISTORY {
                rho_hist.remove(0);
                let (old_s, old_y) = (s_hist.remove(0), y_hist.remove(0));
                s_hist.push(std::mem::replace(&mut s, old_s));
                y_hist.push(std::mem::replace(&mut y, old_y));
            } else {
                s_hist.push(s.clone());
                y_hist.push(y.clone());
            }
            rho_hist.push(1.0 / sy);
        }

        let f_decrease = (fx - f_new).abs();
        let f_scale = fx.abs().max(f_new.abs()).max(1.0);
        std::mem::swap(&mut x, &mut x_new);
        std::mem::swap(&mut grad, &mut grad_new);
        fx = f_new;
        if f_decrease / f_scale < F_TOL {
            break;
        }
    }

    Some(LbfgsbResult {
        x,
        fx,
        iters,
        evals,
    })
}

/// L-BFGS two-loop recursion: replaces `q = g` by `-H * g` in place.
fn two_loop_direction(
    q: &mut [f64],
    s_hist: &[Vec<f64>],
    y_hist: &[Vec<f64>],
    rho_hist: &[f64],
    alphas: &mut [f64],
) {
    let k = s_hist.len();
    for i in (0..k).rev() {
        let a = rho_hist[i] * dot(&s_hist[i], q);
        alphas[i] = a;
        for (qj, yj) in q.iter_mut().zip(&y_hist[i]) {
            *qj -= a * yj;
        }
    }
    // Initial Hessian scaling H0 = (s·y / y·y) I.
    if k > 0 {
        let last = k - 1;
        let yy = dot(&y_hist[last], &y_hist[last]);
        if yy > 0.0 {
            let gamma = 1.0 / (rho_hist[last] * yy);
            for qj in q.iter_mut() {
                *qj *= gamma;
            }
        }
    }
    for i in 0..k {
        let beta = rho_hist[i] * dot(&y_hist[i], q);
        for (qj, sj) in q.iter_mut().zip(&s_hist[i]) {
            *qj += (alphas[i] - beta) * sj;
        }
    }
    q.iter_mut().for_each(|v| *v = -*v);
}

/// Zeroes the coordinates of `v` that `mask` marks.
fn zero_where(v: &mut [f64], mask: &[bool]) {
    for (vi, &masked) in v.iter_mut().zip(mask) {
        if masked {
            *vi = 0.0;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The iteration budget of the tests that do not set their own.
    const MAX_ITERS: usize = 200;

    /// `Σ w_i (x_i − c_i)²` with its gradient.
    fn quadratic<'a>(
        centre: &'a [f64],
        weight: &'a [f64],
    ) -> impl FnMut(&[f64], &mut [f64]) -> f64 + 'a {
        move |x, g| {
            let mut f = 0.0;
            for i in 0..x.len() {
                let r = x[i] - centre[i];
                f += weight[i] * r * r;
                g[i] = 2.0 * weight[i] * r;
            }
            f
        }
    }

    #[test]
    fn minimizes_unconstrained_quadratic() {
        let f = quadratic(&[1.0, -2.0], &[1.0, 10.0]);
        let r = lbfgsb_minimize(f, &[5.0, 5.0], &Bounds::unbounded(2), MAX_ITERS).unwrap();
        assert!(r.iters < MAX_ITERS, "a criterion stopped the solve");
        assert!((r.x[0] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + 2.0).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn respects_active_lower_bound() {
        // Unconstrained minimum at (-3, -3); feasible minimum at (0, 0).
        let f = quadratic(&[-3.0, -3.0], &[1.0, 1.0]);
        let b = Bounds::uniform(2, 0.0, 10.0).unwrap();
        let r = lbfgsb_minimize(f, &[5.0, 5.0], &b, MAX_ITERS).unwrap();
        assert!(r.x[0].abs() < 1e-5 && r.x[1].abs() < 1e-5, "{:?}", r.x);
    }

    #[test]
    fn respects_active_upper_bound() {
        let f = quadratic(&[100.0], &[1.0]);
        let b = Bounds::new(vec![0.0], vec![7.0]).unwrap();
        let r = lbfgsb_minimize(f, &[1.0], &b, MAX_ITERS).unwrap();
        assert!((r.x[0] - 7.0).abs() < 1e-6, "{:?}", r.x);
    }

    #[test]
    fn mixed_active_and_free_coordinates() {
        // Min at (-5, 2): x0 pinned to its lower bound 0, x1 free.
        let f = quadratic(&[-5.0, 2.0], &[1.0, 1.0]);
        let b = Bounds::new(vec![0.0, -10.0], vec![10.0, 10.0]).unwrap();
        let r = lbfgsb_minimize(f, &[3.0, -3.0], &b, MAX_ITERS).unwrap();
        assert!(r.x[0].abs() < 1e-5);
        assert!((r.x[1] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn solves_constrained_rosenbrock() {
        let f = |x: &[f64], g: &mut [f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            g[0] = -2.0 * a - 400.0 * x[0] * b;
            g[1] = 200.0 * b;
            a * a + 100.0 * b * b
        };
        let b = Bounds::uniform(2, -2.0, 2.0).unwrap();
        let r = lbfgsb_minimize(f, &[-1.5, 1.5], &b, 2000).unwrap();
        assert!(
            (r.x[0] - 1.0).abs() < 1e-3 && (r.x[1] - 1.0).abs() < 1e-3,
            "{:?}",
            r.x
        );
        assert!(r.evals > r.iters, "every iteration evaluates at least once");
    }

    #[test]
    fn short_history_recycles_its_buffers_and_still_converges() {
        // More iterations than history slots, so pairs are evicted and
        // their buffers reused: the solve must still reach the optimum.
        let centre: Vec<f64> = (0..16).map(|i| f64::from(i) - 7.5).collect();
        let weight: Vec<f64> = (0..16).map(|i| 1.6f64.powi(i)).collect();
        let r = lbfgsb_minimize(
            quadratic(&centre, &weight),
            &[0.0; 16],
            &Bounds::unbounded(16),
            MAX_ITERS,
        )
        .unwrap();
        assert!(r.iters > HISTORY, "iters = {}", r.iters);
        for (xi, ci) in r.x.iter().zip(&centre) {
            assert!((xi - ci).abs() < 1e-4, "{:?}", r.x);
        }
    }

    #[test]
    fn infeasible_start_is_projected() {
        let f = quadratic(&[0.0], &[1.0]);
        let b = Bounds::new(vec![1.0], vec![5.0]).unwrap();
        let r = lbfgsb_minimize(f, &[-100.0], &b, MAX_ITERS).unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let f = |_: &[f64], _: &mut [f64]| 0.0;
        let b = Bounds::unbounded(3);
        assert!(lbfgsb_minimize(f, &[0.0], &b, MAX_ITERS).is_none());
    }

    #[test]
    fn nan_at_start_is_an_error() {
        let f = |_: &[f64], _: &mut [f64]| f64::NAN;
        let b = Bounds::unbounded(1);
        assert!(lbfgsb_minimize(f, &[0.0], &b, MAX_ITERS).is_none());
        // A NaN start stays NaN under projection and is refused too.
        assert!(lbfgsb_minimize(quadratic(&[0.0], &[1.0]), &[f64::NAN], &b, MAX_ITERS).is_none());
    }

    #[test]
    fn already_optimal_converges_immediately() {
        let f = quadratic(&[0.0], &[1.0]);
        let r = lbfgsb_minimize(f, &[0.0], &Bounds::unbounded(1), MAX_ITERS).unwrap();
        assert!(r.iters <= 2);
        assert_eq!(r.evals, 1);
    }

    #[test]
    fn seven_dim_box_like_theta_sys() {
        // A synthetic strongly-convex objective in the same box the agent
        // uses for θsys: six non-negative parameters and γ in [1, 10].
        let target = [0.1, 0.01, 0.05, 0.0, 0.2, 0.002, 1.6];
        let lo = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0];
        let hi = vec![f64::INFINITY; 6].into_iter().chain([10.0]).collect();
        let b = Bounds::new(lo, hi).unwrap();
        let r = lbfgsb_minimize(quadratic(&target, &[1.0; 7]), &[1.0; 7], &b, MAX_ITERS).unwrap();
        for (xi, ti) in r.x.iter().zip(&target) {
            assert!((xi - ti).abs() < 1e-4, "{:?}", r.x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn result_is_always_feasible(
            start in proptest::collection::vec(-20.0f64..20.0, 2..5),
            shift in proptest::collection::vec(-20.0f64..20.0, 2..5),
        ) {
            let dim = start.len().min(shift.len());
            let ones = vec![1.0; dim];
            let b = Bounds::uniform(dim, -5.0, 5.0).unwrap();
            let r = lbfgsb_minimize(
                quadratic(&shift[..dim], &ones),
                &start[..dim],
                &b,
                MAX_ITERS,
            )
            .unwrap();
            prop_assert!(b.contains(&r.x));
            // The clamped shift is the true constrained optimum.
            for (xi, si) in r.x.iter().zip(&shift) {
                prop_assert!((xi - si.clamp(-5.0, 5.0)).abs() < 1e-3,
                    "x = {:?}, shift = {:?}", r.x, shift);
            }
        }
    }
}
