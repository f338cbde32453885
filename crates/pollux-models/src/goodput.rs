//! The combined goodput model (Eqn 6), batch-size optimization
//! (Eqn 13), and `SPEEDUP` (Eqn 15).

use crate::efficiency::EfficiencyModel;
use crate::golden::golden_section_max_int;
use crate::throughput::{PlacementShape, ThroughputParams};

/// Feasible batch-size range for a job.
///
/// The lower limit is the user's initial batch size `m0` (Pollux only
/// considers `m ≥ m0`); the upper limit is the smaller of a global cap
/// (e.g. dataset-size or convergence-driven) and per-GPU memory
/// capacity times the number of allocated GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSizeLimits {
    /// Initial and minimum total batch size `m0 ≥ 1`.
    pub min: u64,
    /// Largest total batch size that is ever worth considering.
    pub max_global: u64,
    /// Largest per-GPU local batch size that fits in GPU memory.
    pub max_per_gpu: u64,
}

impl BatchSizeLimits {
    /// Creates limits, validating `1 ≤ min ≤ max_global` and
    /// `max_per_gpu ≥ 1`.
    pub fn new(min: u64, max_global: u64, max_per_gpu: u64) -> Option<Self> {
        if min >= 1 && min <= max_global && max_per_gpu >= 1 {
            Some(Self {
                min,
                max_global,
                max_per_gpu,
            })
        } else {
            None
        }
    }

    /// The feasible total-batch-size interval under `shape`, or `None`
    /// when even `m0` does not fit on the allocated GPUs.
    pub fn range(&self, shape: PlacementShape) -> Option<(u64, u64)> {
        let cap = self.max_per_gpu.saturating_mul(shape.gpus as u64);
        let hi = cap.min(self.max_global);
        if hi >= self.min {
            Some((self.min, hi))
        } else {
            None
        }
    }

    /// The minimum number of GPUs on which `m0` fits.
    pub fn min_gpus(&self) -> u32 {
        self.min.div_ceil(self.max_per_gpu).min(u32::MAX as u64) as u32
    }
}

/// A job's goodput model at one instant of training:
/// `GOODPUT_t(a, m) = THROUGHPUT(a, m) × EFFICIENCY_t(m)`.
///
/// # Examples
///
/// ```
/// use pollux_models::{
///     BatchSizeLimits, EfficiencyModel, GoodputModel, PlacementShape, ThroughputParams,
/// };
///
/// let model = GoodputModel::new(
///     ThroughputParams::new(0.01, 1e-3, 0.02, 0.002, 0.07, 0.008, 1.8).unwrap(),
///     EfficiencyModel::from_noise_scale(128, 2000.0).unwrap(),
///     BatchSizeLimits::new(128, 8192, 1024).unwrap(),
/// )
/// .unwrap();
///
/// // The most efficient batch size grows with the allocation (Eqn 13).
/// let (m_small, _) = model.optimal_batch_size(PlacementShape::new(2, 1).unwrap()).unwrap();
/// let (m_large, _) = model.optimal_batch_size(PlacementShape::new(16, 4).unwrap()).unwrap();
/// assert!(m_large > m_small);
///
/// // SPEEDUP (Eqn 15) is 1 on a single GPU and sub-linear beyond.
/// assert!((model.speedup(PlacementShape::single()) - 1.0).abs() < 1e-9);
/// let s16 = model.speedup(PlacementShape::new(16, 4).unwrap());
/// assert!(s16 > 1.0 && s16 < 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodputModel {
    /// The fitted (or ground-truth) system-throughput parameters.
    pub throughput: ThroughputParams,
    /// The statistical-efficiency snapshot at the current iteration.
    pub efficiency: EfficiencyModel,
    /// Feasible batch sizes for this job.
    pub limits: BatchSizeLimits,
}

impl GoodputModel {
    /// Creates the combined model. Returns `None` when the efficiency
    /// model's `m0` disagrees with `limits.min` (they must be the same
    /// quantity).
    pub fn new(
        throughput: ThroughputParams,
        efficiency: EfficiencyModel,
        limits: BatchSizeLimits,
    ) -> Option<Self> {
        if efficiency.m0() != limits.min {
            return None;
        }
        Some(Self {
            throughput,
            efficiency,
            limits,
        })
    }

    /// Evaluates `GOODPUT_t(a, m)` in useful examples per second.
    ///
    /// Returns 0 when `m` is infeasible under `shape`.
    pub fn goodput(&self, shape: PlacementShape, m: u64) -> f64 {
        match self.limits.range(shape) {
            Some((lo, hi)) if m >= lo && m <= hi => {
                self.throughput.throughput(shape, m) * self.efficiency.efficiency(m)
            }
            _ => 0.0,
        }
    }

    /// Raw throughput (examples/s) at `m` under `shape`, 0 if infeasible.
    pub fn raw_throughput(&self, shape: PlacementShape, m: u64) -> f64 {
        match self.limits.range(shape) {
            Some((lo, hi)) if m >= lo && m <= hi => self.throughput.throughput(shape, m),
            _ => 0.0,
        }
    }

    /// The most efficient batch size `m* = argmax_m GOODPUT(a, m)`
    /// (Eqn 13).
    ///
    /// Returns `(m*, GOODPUT(a, m*))`, or `None` when no feasible batch
    /// size exists under `shape`.
    pub fn optimal_batch_size(&self, shape: PlacementShape) -> Option<(u64, f64)> {
        self.optimal_batch_size_near(shape, None)
            .map(|solve| (solve.batch_size, solve.goodput))
    }

    /// [`Self::optimal_batch_size`] with the work it took, optionally
    /// started from `near`: a batch size believed to be close to `m*`,
    /// typically the optimum of a neighbouring shape. The hint steers
    /// the search only; the answer is the same with and without it.
    ///
    /// `GOODPUT` is unimodal in `m` (Sec. 4.1). Its logarithmic
    /// derivative is
    ///
    /// ```text
    /// g(m) = 1/m − 1/(φ+m) − (β_grad/K) · T_grad^(γ−1) / (T_grad^γ + T_sync^γ)
    /// ```
    ///
    /// and `g · m (φ+m) (T_grad + T_sync^γ / T_grad^(γ−1))` — same sign,
    /// same root — collapses to
    ///
    /// ```text
    /// F(m) = φ · (α_grad + T_sync^γ / T_grad^(γ−1)) − (β_grad/K) · m²
    /// ```
    ///
    /// which falls strictly with `m`, costs one `pow` (none when
    /// `T_sync = 0`, where its root is the closed form `√(φ α K / β)`)
    /// and is close to a parabola, so a bracketed Newton iteration
    /// finds the root in a few steps. The integers next to the root are
    /// then compared on [`Self::goodput`] itself, so the value returned
    /// is computed by the expression a golden-section search over
    /// `goodput` would have returned it from. That search
    /// ([`golden_section_max_int`]) still answers whatever the
    /// derivative cannot: ranges of at most nine batch sizes (scanned),
    /// θsys outside its box, a non-finite `F`, and a top too flat for
    /// neighbouring goodputs to differ beyond rounding (DESIGN.md §3.2).
    pub fn optimal_batch_size_near(
        &self,
        shape: PlacementShape,
        near: Option<u64>,
    ) -> Option<BatchSolve> {
        let (lo, hi) = self.limits.range(shape)?;
        let mut evals = 0;
        let found = if hi - lo > 8 {
            self.stationary_batch_size(shape, (lo, hi), near, &mut evals)
                .and_then(|start| self.climb(shape, (lo, hi), start, &mut evals))
        } else {
            None
        };
        let (batch_size, goodput) = found.or_else(|| {
            let counted = |m| {
                evals += 1;
                self.goodput(shape, m)
            };
            golden_section_max_int(counted, lo, hi)
        })?;
        Some(BatchSolve {
            batch_size,
            goodput,
            evals,
        })
    }

    /// The integer nearest the root of `F` (see
    /// [`Self::optimal_batch_size_near`]) on `[lo, hi]`, or the end of
    /// the range `GOODPUT` rises or falls towards when `F` keeps one
    /// sign. `None` hands the solve to the golden-section search: θsys
    /// outside its box (where `F` need not fall), a non-finite `F`, or
    /// an iteration that has not settled within its budget.
    fn stationary_batch_size(
        &self,
        shape: PlacementShape,
        (lo, hi): (u64, u64),
        near: Option<u64>,
        evals: &mut u32,
    ) -> Option<u64> {
        /// Newton steps before the solve is handed over. Every step that
        /// leaves the bracket bisects it, so 64 cover any range of
        /// batch sizes a `u64` can hold.
        const MAX_STEPS: usize = 64;

        let tp = &self.throughput;
        if !tp.is_valid() {
            return None;
        }
        let alpha = tp.alpha_grad;
        let beta = tp.beta_grad / shape.gpus as f64;
        let t_sync = tp.t_sync(shape);
        let sync_pow = if t_sync > 0.0 {
            t_sync.powf(tp.gamma)
        } else {
            0.0
        };
        let gamma_m1 = tp.gamma - 1.0;
        let phi = self.efficiency.noise_scale();
        // `(F, F′, α_grad + T_sync^γ / T_grad^(γ−1))` at `m`, which
        // becomes the end of `ends` on its side of the root:
        // `F(ends.0) ≥ 0 ≥ F(ends.1)` for every end probed.
        let mut probe = |m: f64, ends: &mut (f64, f64)| {
            *evals += 1;
            let t_grad = alpha + beta * m;
            let (c, dc) = if sync_pow > 0.0 {
                let ratio = sync_pow / t_grad.powf(gamma_m1);
                (alpha + ratio, -gamma_m1 * beta * ratio / t_grad)
            } else {
                (alpha, 0.0)
            };
            let (f, df) = if phi.is_infinite() {
                (c, dc)
            } else {
                (phi * c - beta * m * m, phi * dc - 2.0 * beta * m)
            };
            if f >= 0.0 {
                ends.0 = m;
            } else {
                ends.1 = m;
            }
            (f.is_finite() && df.is_finite()).then_some((f, df, c))
        };

        // A hint strictly inside the range is probed first: it stands in
        // for the end of the range on its side of the root, and is
        // where the iteration starts.
        let (lo_f, hi_f) = (lo as f64, hi as f64);
        let mut ends = (lo_f, hi_f);
        let mut at = None;
        if let Some(hint) = near.filter(|&m| lo < m && m < hi) {
            let (f, df, _) = probe(hint as f64, &mut ends)?;
            at = Some((hint as f64, f, df));
        }
        if ends.0 == lo_f && probe(lo_f, &mut ends)?.0 <= 0.0 {
            return Some(lo);
        }
        if ends.1 == hi_f {
            let (f, _, c) = probe(hi_f, &mut ends)?;
            if f >= 0.0 {
                return Some(hi);
            }
            if at.is_none() {
                // `F(lo) > 0 > F(hi)`, so φ is finite and β_grad > 0.
                // The bracketed term only falls with `m`, so this is a
                // lower bound on the root, and the root itself when
                // `T_sync = 0`.
                let mut x = (phi * c / beta).sqrt();
                if !(lo_f < x && x < hi_f) {
                    x = 0.5 * (lo_f + hi_f);
                }
                let (f, df, _) = probe(x, &mut ends)?;
                at = Some((x, f, df));
            }
        }
        let (mut x, mut f, mut df) = at.expect("probed at the hint or at the first guess");
        for _ in 0..MAX_STEPS {
            // `F′ ≤ −2 (β_grad/K) m < 0` here.
            let mut next = x - f / df;
            if !(ends.0 <= next && next <= ends.1) {
                next = 0.5 * (ends.0 + ends.1);
            }
            if (next - x).abs() < 0.25 || ends.1 - ends.0 <= 0.5 {
                return Some((next.round() as u64).clamp(lo, hi));
            }
            x = next;
            (f, df, _) = probe(x, &mut ends)?;
        }
        None
    }

    /// Walks from `start` to the batch size whose goodput exceeds both
    /// neighbours', on [`Self::goodput`] itself. `None` — the solve
    /// goes to the golden-section search — when a value is non-finite,
    /// the walk is still moving after `MAX_MOVES` steps (the
    /// derivative's root was nowhere near the top), or the top stands
    /// out from a neighbour by less than rounding error can fake: there
    /// the derivative's sign says nothing about which float is largest.
    fn climb(
        &self,
        shape: PlacementShape,
        (lo, hi): (u64, u64),
        start: u64,
        evals: &mut u32,
    ) -> Option<(u64, f64)> {
        const MAX_MOVES: usize = 16;
        /// Relative gap to a neighbour below which the top counts as
        /// flat: some hundreds of ulps, where one step off a smooth top
        /// at `m ≤ 10⁶` costs 10⁻¹² or more.
        const FLAT: f64 = 1e-13;

        let mut goodput = |m: u64| {
            *evals += 1;
            self.goodput(shape, m)
        };
        let mut m = start;
        let mut best = goodput(m);
        // The neighbours' values where the last move left them known.
        let (mut left, mut right) = (None, None);
        for _ in 0..MAX_MOVES {
            if !best.is_finite() {
                return None;
            }
            let l = match left {
                Some(v) => v,
                None if m > lo => goodput(m - 1),
                None => f64::NEG_INFINITY,
            };
            if l > best {
                (left, right) = (None, Some(best));
                (m, best) = (m - 1, l);
                continue;
            }
            let r = match right {
                Some(v) => v,
                None if m < hi => goodput(m + 1),
                None => f64::NEG_INFINITY,
            };
            if r > best {
                (left, right) = (Some(best), None);
                (m, best) = (m + 1, r);
                continue;
            }
            let margin = best * FLAT;
            return (best - l > margin && best - r > margin).then_some((m, best));
        }
        None
    }

    /// `max_m GOODPUT(a, m)` or 0 when infeasible.
    pub fn max_goodput(&self, shape: PlacementShape) -> f64 {
        self.optimal_batch_size(shape).map_or(0.0, |(_, g)| g)
    }

    /// `SPEEDUP_j(A_j)` (Eqn 15): the goodput at `shape` (batch size
    /// re-optimized) relative to the goodput of a single GPU (batch
    /// size re-optimized).
    ///
    /// When `m0` does not fit on a single GPU the denominator instead
    /// uses the minimum feasible co-located allocation, preserving the
    /// property that the smallest feasible allocation has speedup 1.
    pub fn speedup(&self, shape: PlacementShape) -> f64 {
        let num = self.max_goodput(shape);
        if num <= 0.0 {
            return 0.0;
        }
        let base_shape = self.reference_shape();
        let den = self.max_goodput(base_shape);
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// The reference (denominator) placement for [`Self::speedup`]:
    /// one GPU when feasible, otherwise the fewest co-located GPUs on
    /// which `m0` fits.
    pub fn reference_shape(&self) -> PlacementShape {
        let k = self.limits.min_gpus().max(1);
        PlacementShape::new(k, 1).unwrap_or(PlacementShape::single())
    }

    /// Evaluates `SPEEDUP` for every GPU count in one pass, producing a
    /// dense profile indexed by `K − 1` for both locality classes.
    ///
    /// `T_sync` (Eqn 10) only distinguishes co-located (`N = 1`) from
    /// cross-node (`N ≥ 2`) placements, so two rows of length `len`
    /// cover the entire feasible shape space. Entries outside
    /// `feasible` (and the impossible distributed `K = 1` cell) are 0,
    /// matching [`Self::speedup`]'s treatment of infeasible shapes.
    /// When `include_distributed` is false the distributed row is all
    /// zeros and its batch-size solves are skipped (single-node
    /// clusters can never query it).
    ///
    /// Every stored value is bit-identical to the corresponding
    /// [`Self::speedup`] call: both divide `max_goodput(shape)` by a
    /// once-computed `max_goodput(reference_shape())`. Each question is
    /// asked once and the answers feed each other: `m*` grows with `K`
    /// (Fig 1b), so within a locality class every solve starts from the
    /// previous cell's optimum
    /// ([`Self::optimal_batch_size_near`]), and the reference shape's
    /// solve is reused when it is a cell of the profile.
    pub fn speedup_profile(
        &self,
        feasible: std::ops::RangeInclusive<u32>,
        len: u32,
        include_distributed: bool,
    ) -> SpeedupProfile {
        let mut profile = SpeedupProfile {
            colocated: vec![0.0; len as usize],
            distributed: vec![0.0; len as usize],
            solves: 0,
        };
        let lo = (*feasible.start()).max(1);
        let hi = (*feasible.end()).min(len);
        if lo > hi {
            return profile;
        }
        profile.solves += 1;
        let reference_shape = self.reference_shape();
        let reference = self.optimal_batch_size_near(reference_shape, None);
        let denom = reference.map_or(0.0, |solve| solve.goodput);
        if denom <= 0.0 {
            return profile;
        }
        // `max_goodput(shape)`, started from and leaving behind the
        // optimum of the locality's previous cell.
        let max_goodput = |shape: PlacementShape, near: &mut Option<u64>| {
            let solve = if shape == reference_shape {
                reference
            } else {
                self.optimal_batch_size_near(shape, *near)
            };
            *near = solve.map(|solve| solve.batch_size).or(*near);
            solve.map_or(0.0, |solve| solve.goodput)
        };
        let (mut near_colocated, mut near_spread) = (None, None);
        for k in lo..=hi {
            profile.solves += 1;
            let colocated = PlacementShape::new(k, 1).expect("k >= 1");
            profile.colocated[(k - 1) as usize] =
                max_goodput(colocated, &mut near_colocated) / denom;
            if include_distributed && k >= 2 {
                profile.solves += 1;
                let spread = PlacementShape::new(k, 2).expect("k >= 2");
                // The first spread cell starts from its co-located twin.
                near_spread = near_spread.or(near_colocated);
                profile.distributed[(k - 1) as usize] =
                    max_goodput(spread, &mut near_spread) / denom;
            }
        }
        profile
    }
}

/// One Eqn-13 solve: the optimum and what finding it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchSolve {
    /// The most efficient batch size `m*`.
    pub batch_size: u64,
    /// `GOODPUT(a, m*)`.
    pub goodput: f64,
    /// Evaluations spent: of the derivative's numerator `F` and of
    /// `GOODPUT` itself, one count each.
    pub evals: u32,
}

/// Dense `SPEEDUP` values over `K = 1..=len` for both locality classes
/// of one model, produced by [`GoodputModel::speedup_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupProfile {
    /// `SPEEDUP(K, N = 1)` at index `K − 1`; 0 outside the feasible range.
    pub colocated: Vec<f64>,
    /// `SPEEDUP(K, N = 2)` at index `K − 1` (the canonical value for
    /// every `N ≥ 2` placement); 0 outside the feasible range and for
    /// the impossible `K = 1` cell.
    pub distributed: Vec<f64>,
    /// Batch-size questions (Eqn 13) the profile answers: the reference
    /// denominator plus one per stored entry, whether or not an entry
    /// could reuse another's solve.
    pub solves: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn throughput_params() -> ThroughputParams {
        ThroughputParams::new(0.05, 5.0e-4, 0.05, 0.002, 0.2, 0.01, 2.0).unwrap()
    }

    fn model(phi: f64) -> GoodputModel {
        let tp = throughput_params();
        let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
        let limits = BatchSizeLimits::new(128, 65_536, 512).unwrap();
        GoodputModel::new(tp, eff, limits).unwrap()
    }

    #[test]
    fn limits_validation() {
        assert!(BatchSizeLimits::new(1, 1, 1).is_some());
        assert!(BatchSizeLimits::new(0, 10, 1).is_none());
        assert!(BatchSizeLimits::new(10, 9, 1).is_none());
        assert!(BatchSizeLimits::new(1, 10, 0).is_none());
    }

    #[test]
    fn range_respects_gpu_memory() {
        let l = BatchSizeLimits::new(128, 10_000, 256).unwrap();
        // 1 GPU: cap 256.
        assert_eq!(l.range(PlacementShape::single()), Some((128, 256)));
        // 8 GPUs: cap 2048.
        assert_eq!(
            l.range(PlacementShape::new(8, 2).unwrap()),
            Some((128, 2048))
        );
        // Global cap binds with many GPUs.
        assert_eq!(
            l.range(PlacementShape::new(64, 16).unwrap()),
            Some((128, 10_000))
        );
    }

    #[test]
    fn infeasible_when_m0_does_not_fit() {
        let l = BatchSizeLimits::new(1024, 10_000, 256).unwrap();
        assert_eq!(l.range(PlacementShape::single()), None);
        assert_eq!(l.range(PlacementShape::new(3, 1).unwrap()), None);
        assert!(l.range(PlacementShape::new(4, 1).unwrap()).is_some());
        assert_eq!(l.min_gpus(), 4);
    }

    #[test]
    fn model_rejects_m0_mismatch() {
        let tp = throughput_params();
        let eff = EfficiencyModel::from_noise_scale(100, 10.0).unwrap();
        let limits = BatchSizeLimits::new(128, 1000, 512).unwrap();
        assert!(GoodputModel::new(tp, eff, limits).is_none());
    }

    #[test]
    fn goodput_is_throughput_times_efficiency() {
        let g = model(1000.0);
        let shape = PlacementShape::new(4, 1).unwrap();
        let m = 512;
        let expected = g.throughput.throughput(shape, m) * g.efficiency.efficiency(m);
        assert!((g.goodput(shape, m) - expected).abs() < 1e-9);
    }

    #[test]
    fn goodput_never_exceeds_throughput() {
        let g = model(700.0);
        for k in [1u32, 2, 4, 8, 16] {
            let shape = PlacementShape::new(k, k.div_ceil(4)).unwrap();
            for m in [128u64, 256, 1024, 4096] {
                assert!(g.goodput(shape, m) <= g.raw_throughput(shape, m) + 1e-9);
            }
        }
    }

    #[test]
    fn goodput_zero_outside_feasible_range() {
        let g = model(1000.0);
        let shape = PlacementShape::single();
        // Above the 1-GPU memory cap of 512.
        assert_eq!(g.goodput(shape, 1024), 0.0);
        // Below m0 = 128.
        assert_eq!(g.goodput(shape, 64), 0.0);
    }

    #[test]
    fn optimal_batch_size_beats_endpoints() {
        let g = model(2000.0);
        let shape = PlacementShape::new(8, 2).unwrap();
        let (m_star, best) = g.optimal_batch_size(shape).unwrap();
        let (lo, hi) = g.limits.range(shape).unwrap();
        assert!(m_star >= lo && m_star <= hi);
        assert!(best >= g.goodput(shape, lo) - 1e-9);
        assert!(best >= g.goodput(shape, hi) - 1e-9);
        // Sanity: sample the range and confirm near-optimality.
        let mut sampled_best = 0.0f64;
        let mut m = lo;
        while m <= hi {
            sampled_best = sampled_best.max(g.goodput(shape, m));
            m += 16;
        }
        assert!(
            best >= sampled_best * 0.999,
            "{best} vs sampled {sampled_best}"
        );
    }

    #[test]
    fn higher_noise_scale_prefers_larger_batches() {
        // Fig 1b: later in training (higher φ), the best batch size grows.
        let early = model(500.0);
        let late = model(8000.0);
        let shape = PlacementShape::new(16, 4).unwrap();
        let (m_early, _) = early.optimal_batch_size(shape).unwrap();
        let (m_late, _) = late.optimal_batch_size(shape).unwrap();
        assert!(
            m_late > m_early,
            "late m* {m_late} should exceed early m* {m_early}"
        );
    }

    #[test]
    fn speedup_of_single_gpu_is_one() {
        let g = model(1500.0);
        let s = g.speedup(PlacementShape::single());
        assert!((s - 1.0).abs() < 1e-9, "speedup = {s}");
    }

    #[test]
    fn speedup_scales_sublinearly() {
        let g = model(1500.0);
        // Within a fixed locality class (all co-located), speedup is
        // monotone in K and bounded by the ideal linear speedup.
        let mut prev = 1.0;
        for k in [2u32, 3, 4] {
            let shape = PlacementShape::new(k, 1).unwrap();
            let s = g.speedup(shape);
            assert!(s >= prev - 1e-9, "speedup should not decrease: K={k} s={s}");
            assert!(s <= k as f64 + 1e-9, "speedup {s} exceeds ideal {k}");
            prev = s;
        }
        // Distributed placements stay bounded by linear speedup too.
        for k in [8u32, 16] {
            let shape = PlacementShape::new(k, k.div_ceil(4)).unwrap();
            let s = g.speedup(shape);
            assert!(s <= k as f64 + 1e-9);
            assert!(s > 0.0);
        }
    }

    #[test]
    fn colocated_beats_spread_placement() {
        // Sec 2.1: T_sync is smaller when replicas are co-located, so
        // goodput at equal K favors fewer nodes.
        let g = model(1500.0);
        let packed = PlacementShape::new(4, 1).unwrap();
        let spread = PlacementShape::new(4, 4).unwrap();
        assert!(g.max_goodput(packed) > g.max_goodput(spread));
    }

    #[test]
    fn speedup_reference_uses_min_feasible_gpus() {
        let tp = throughput_params();
        let eff = EfficiencyModel::from_noise_scale(1024, 3000.0).unwrap();
        // m0 = 1024 needs at least 4 GPUs at 256/GPU.
        let limits = BatchSizeLimits::new(1024, 65_536, 256).unwrap();
        let g = GoodputModel::new(tp, eff, limits).unwrap();
        assert_eq!(g.reference_shape(), PlacementShape::new(4, 1).unwrap());
        // Infeasible shapes have zero speedup.
        assert_eq!(g.speedup(PlacementShape::single()), 0.0);
        // The reference shape itself has speedup 1.
        let s = g.speedup(g.reference_shape());
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_profile_matches_speedup_bitwise() {
        let g = model(1500.0);
        let profile = g.speedup_profile(1..=12, 12, true);
        for k in 1u32..=12 {
            let co = g.speedup(PlacementShape::new(k, 1).unwrap());
            assert_eq!(
                profile.colocated[(k - 1) as usize].to_bits(),
                co.to_bits(),
                "colocated K={k}"
            );
            if k >= 2 {
                let sp = g.speedup(PlacementShape::new(k, 2).unwrap());
                assert_eq!(
                    profile.distributed[(k - 1) as usize].to_bits(),
                    sp.to_bits(),
                    "distributed K={k}"
                );
            }
        }
        assert_eq!(profile.distributed[0], 0.0, "K=1 cannot span two nodes");
        // 1 reference + 12 colocated + 11 distributed solves.
        assert_eq!(profile.solves, 24);
    }

    #[test]
    fn speedup_profile_respects_feasible_range_and_locality_gate() {
        let g = model(900.0);
        let profile = g.speedup_profile(3..=6, 8, false);
        for k in 1u32..=8 {
            let idx = (k - 1) as usize;
            assert_eq!(profile.distributed[idx], 0.0, "distributed gated off");
            if !(3..=6).contains(&k) {
                assert_eq!(profile.colocated[idx], 0.0, "K={k} infeasible");
            } else {
                assert!(profile.colocated[idx] > 0.0, "K={k} feasible");
            }
        }
        // Empty feasible range: no solves at all.
        #[allow(clippy::reversed_empty_ranges)]
        let empty = g.speedup_profile(5..=4, 8, true);
        assert_eq!(empty.solves, 0);
        assert!(empty.colocated.iter().all(|&v| v == 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn goodput_is_unimodal_in_batch_size(
            alpha_grad in 0.0f64..0.5,
            beta_grad in 1e-5f64..1e-2,
            alpha_sync in 0.0f64..0.5,
            beta_sync in 0.0f64..0.05,
            gamma in 1.0f64..10.0,
            phi in 1.0f64..1e5,
            gpus in 1u32..32,
        ) {
            // Sec 4.1 asserts GOODPUT(a, m) is unimodal in m, which is
            // what justifies searching for one top. Verify on a grid:
            // once the sampled values start decreasing, they never
            // meaningfully increase again.
            let tp = ThroughputParams::new(
                alpha_grad, beta_grad, alpha_sync, beta_sync,
                alpha_sync * 2.0, beta_sync * 2.0, gamma,
            ).unwrap();
            let eff = EfficiencyModel::from_noise_scale(128, phi).unwrap();
            let limits = BatchSizeLimits::new(128, 65_536, 2048).unwrap();
            let g = GoodputModel::new(tp, eff, limits).unwrap();
            let nodes = gpus.div_ceil(4);
            let shape = PlacementShape::new(gpus, nodes).unwrap();
            let (lo, hi) = g.limits.range(shape).unwrap();
            let step = ((hi - lo) / 200).max(1);
            let mut vals = Vec::new();
            let mut m = lo;
            while m <= hi {
                vals.push(g.goodput(shape, m));
                m += step;
            }
            // Once the sequence turns downward, every later value must
            // stay (weakly) below its predecessor — a second local rise
            // would break unimodality.
            let mut decreasing = false;
            for w in vals.windows(2) {
                let (prev, v) = (w[0], w[1]);
                if decreasing {
                    prop_assert!(v <= prev * (1.0 + 1e-9),
                        "goodput rebounds after decreasing: {prev} -> {v}");
                } else if v < prev * (1.0 - 1e-9) {
                    decreasing = true;
                }
            }
        }

        #[test]
        fn optimal_batch_is_feasible_and_near_global_max(
            phi in 10.0f64..50_000.0,
            gpus in 1u32..32,
        ) {
            let g = model(phi);
            let nodes = gpus.div_ceil(4);
            let shape = PlacementShape::new(gpus, nodes).unwrap();
            let (m_star, best) = g.optimal_batch_size(shape).unwrap();
            let (lo, hi) = g.limits.range(shape).unwrap();
            prop_assert!(m_star >= lo && m_star <= hi);
            // Coarse sampling should never beat the solver by >0.5%.
            let step = ((hi - lo) / 64).max(1);
            let mut m = lo;
            while m <= hi {
                prop_assert!(g.goodput(shape, m) <= best * 1.005 + 1e-9,
                    "m = {} beats m* = {}", m, m_star);
                m += step;
            }
        }

        #[test]
        fn chained_profile_matches_per_cell_speedup_bitwise(
            alpha_grad in 0.0f64..0.3,
            beta_grad in 1e-5f64..5e-3,
            alpha_sync in 0.0f64..0.3,
            beta_sync in 0.0f64..0.02,
            gamma in 1.0f64..10.0,
            phi_kind in 0u8..8,
            (m0_exp, per_gpu_exp) in (3u32..10, 3u32..10),
            (first, len) in (1u32..6, 1u32..40),
        ) {
            // Whatever a cell's solve started from — nothing, the
            // previous cell's optimum, its co-located twin's, or the
            // reference shape's solve reused outright (`m0` may need
            // several GPUs, and `first` may sit above or below them) —
            // the profile holds what `speedup` answers from scratch.
            let tp = ThroughputParams::new(
                alpha_grad, beta_grad, alpha_sync, beta_sync,
                alpha_sync * 1.5, beta_sync * 1.5, gamma,
            ).unwrap();
            let phi = match phi_kind {
                0 => 0.0,
                1 => f64::INFINITY,
                k => 40.0 * 3f64.powi(i32::from(k)),
            };
            let m0 = 1u64 << m0_exp;
            let eff = EfficiencyModel::from_noise_scale(m0, phi).unwrap();
            let limits = BatchSizeLimits::new(m0, 65_536, 1 << per_gpu_exp).unwrap();
            let g = GoodputModel::new(tp, eff, limits).unwrap();
            let profile = g.speedup_profile(first..=len, len, true);
            let mut cells = 0;
            for k in 1..=len {
                for (nodes, row) in [(1, &profile.colocated), (2, &profile.distributed)] {
                    let feasible = k >= first && k >= nodes;
                    let expect = if feasible {
                        g.speedup(PlacementShape::new(k, nodes).unwrap())
                    } else {
                        0.0
                    };
                    cells += u64::from(feasible);
                    prop_assert_eq!(
                        row[(k - 1) as usize].to_bits(), expect.to_bits(),
                        "K = {} N = {}: {} vs {}", k, nodes, row[(k - 1) as usize], expect
                    );
                }
            }
            // A reused or hinted solve is still a cell counted.
            prop_assert_eq!(profile.solves, if first <= len { 1 + cells } else { 0 });
        }
    }
}
