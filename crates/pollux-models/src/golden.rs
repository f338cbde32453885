//! Golden-section search for unimodal functions.
//!
//! Pollux maximizes `GOODPUT(a, m)` over the batch size `m` for the
//! agent's batch size (Eqn 13) and for each maximization in the
//! numerator and denominator of `SPEEDUP_j` (Eqn 15). Golden-section
//! search (Kiefer, 1953) answers where the derivative solver of
//! [`crate::goodput`] cannot, and is the oracle that solver is tested
//! against.
//!
//! Goodput is unimodal in `m` (throughput is increasing and saturating,
//! efficiency is decreasing), so golden-section converges to the global
//! maximum on the interval.

/// Inverse golden ratio, `(sqrt(5) - 1) / 2`.
const INV_PHI: f64 = 0.618_033_988_749_894_9;
/// Bracket width at which the continuous search stops: the integer
/// search polishes the last two batch sizes on either side itself.
const TOL: f64 = 0.5;
/// Shrink steps the continuous search takes at most.
const MAX_ITERS: usize = 128;

/// Maximizes a unimodal function `f` on `[lo, hi]`.
///
/// Returns `(x_max, f(x_max))`. The search runs until the bracketing
/// interval is narrower than [`TOL`] or [`MAX_ITERS`] shrink steps have
/// been performed, whichever comes first; `None` when `lo > hi`, either
/// end is non-finite, or `f` is non-finite at both initial probe
/// points.
fn golden_section_max<F>(mut f: F, lo: f64, hi: f64) -> Option<(f64, f64)>
where
    F: FnMut(f64) -> f64,
{
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return None;
    }
    if hi - lo <= TOL {
        let mid = 0.5 * (lo + hi);
        let v = f(mid);
        return v.is_finite().then_some((mid, v));
    }

    let mut a = lo;
    let mut b = hi;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    if !fc.is_finite() && !fd.is_finite() {
        return None;
    }

    for _ in 0..MAX_ITERS {
        if b - a <= TOL {
            break;
        }
        // Treat non-finite values as -inf so the search retreats from them.
        let fc_cmp = if fc.is_finite() {
            fc
        } else {
            f64::NEG_INFINITY
        };
        let fd_cmp = if fd.is_finite() {
            fd
        } else {
            f64::NEG_INFINITY
        };
        if fc_cmp > fd_cmp {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }

    let x = 0.5 * (a + b);
    let fx = f(x);
    // Return the best of the evaluated points to be robust to plateaus.
    let mut best = (x, fx);
    for (p, v) in [(c, fc), (d, fd)] {
        if v.is_finite() && (v > best.1 || !best.1.is_finite()) {
            best = (p, v);
        }
    }
    best.1.is_finite().then_some(best)
}

/// Maximizes a unimodal function over the **integers** in `[lo, hi]`.
///
/// Batch sizes are integer sample counts; this wrapper runs the
/// continuous search and then polishes by evaluating the integer
/// neighborhood of the continuous optimum, guaranteeing the returned
/// point is an integer in range. `None` when `lo > hi` or `f` is
/// non-finite wherever the search looked.
pub fn golden_section_max_int<F>(mut f: F, lo: u64, hi: u64) -> Option<(u64, f64)>
where
    F: FnMut(u64) -> f64,
{
    if lo > hi {
        return None;
    }
    if hi - lo <= 8 {
        // Small range: exhaustive scan.
        let mut best: Option<(u64, f64)> = None;
        for m in lo..=hi {
            let v = f(m);
            if v.is_finite() && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((m, v));
            }
        }
        return best;
    }

    let (xc, _) = golden_section_max(|x| f(x.round() as u64), lo as f64, hi as f64)?;
    let center = xc.round() as i64;
    let mut best: Option<(u64, f64)> = None;
    for dm in -2i64..=2 {
        let m = (center + dm).clamp(lo as i64, hi as i64) as u64;
        let v = f(m);
        if v.is_finite() && best.is_none_or(|(_, bv)| v > bv) {
            best = Some((m, v));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// How close to the peak the continuous search lands: the last
    /// bracket is at most [`TOL`] wide and holds the peak.
    const NEAR: f64 = TOL / 2.0;

    #[test]
    fn finds_parabola_peak() {
        let (x, fx) = golden_section_max(|x| -(x - 3.0) * (x - 3.0), 0.0, 10.0).unwrap();
        assert!((x - 3.0).abs() <= NEAR, "x = {x}");
        assert!(fx.abs() <= NEAR * NEAR);
    }

    #[test]
    fn peak_at_interval_edge() {
        // Monotone increasing: maximum at hi.
        let (x, _) = golden_section_max(|x| x, 0.0, 5.0).unwrap();
        assert!((x - 5.0).abs() <= NEAR);
        // Monotone decreasing: maximum at lo.
        let (x, _) = golden_section_max(|x| -x, 0.0, 5.0).unwrap();
        assert!(x.abs() <= NEAR);
    }

    #[test]
    fn degenerate_interval_returns_midpoint() {
        let (x, fx) = golden_section_max(|x| x * x, 2.0, 2.0).unwrap();
        assert_eq!(x, 2.0);
        assert_eq!(fx, 4.0);
    }

    #[test]
    fn rejects_inverted_interval() {
        assert!(golden_section_max(|x| x, 1.0, 0.0).is_none());
    }

    #[test]
    fn rejects_nan_objective() {
        assert!(golden_section_max(|_| f64::NAN, 0.0, 1.0).is_none());
    }

    #[test]
    fn tolerates_partial_nan_region() {
        // NaN below 2.0, unimodal above; the search should still find ~3.
        let f = |x: f64| {
            if x < 2.0 {
                f64::NAN
            } else {
                -(x - 3.0).powi(2)
            }
        };
        let (x, _) = golden_section_max(f, 0.0, 10.0).unwrap();
        assert!((x - 3.0).abs() <= NEAR, "x = {x}");
    }

    #[test]
    fn integer_search_small_range_is_exact() {
        let (m, v) = golden_section_max_int(|m| -((m as f64) - 5.0).powi(2), 3, 9).unwrap();
        assert_eq!(m, 5);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn integer_search_large_range() {
        let (m, _) =
            golden_section_max_int(|m| -((m as f64) - 1234.0).powi(2), 1, 100_000).unwrap();
        assert_eq!(m, 1234);
    }

    #[test]
    fn integer_search_respects_bounds() {
        // Optimum at 0 is below the domain; should return lo.
        let (m, _) = golden_section_max_int(|m| -(m as f64), 10, 1000).unwrap();
        assert_eq!(m, 10);
    }

    proptest! {
        #[test]
        fn converges_on_random_shifted_parabolas(peak in -50.0f64..50.0, scale in 0.1f64..10.0) {
            let (x, _) = golden_section_max(
                |x| -scale * (x - peak) * (x - peak),
                -100.0, 100.0,
            ).unwrap();
            prop_assert!((x - peak).abs() <= NEAR, "x = {}, peak = {}", x, peak);
        }

        #[test]
        fn integer_search_matches_exhaustive(peak in 0u64..2000, hi in 2000u64..4000) {
            let f = |m: u64| -((m as f64) - (peak as f64)).powi(2);
            let (m, _) = golden_section_max_int(f, 0, hi).unwrap();
            prop_assert_eq!(m, peak);
        }
    }
}
