//! The system-throughput model (Sec. 3.2, Eqns 8–11).
//!
//! Per-iteration time is decomposed into gradient computation and
//! gradient synchronization:
//!
//! ```text
//! T_grad(a, m) = α_grad + β_grad · m / K
//! T_sync(a)    = 0                              if K = 1
//!              = α_sync^local + β_sync^local (K−2)   if N = 1, K ≥ 2
//!              = α_sync^node  + β_sync^node  (K−2)   otherwise
//! T_iter       = (T_grad^γ + T_sync^γ)^(1/γ)        γ ∈ [1, 10]
//! THROUGHPUT(a, m) = m / T_iter(a, m)
//! ```
//!
//! `K` is the total number of allocated GPUs and `N` the number of
//! distinct physical nodes occupied. The γ-norm smoothly interpolates
//! between no compute/communication overlap (γ = 1, `T_iter = T_grad +
//! T_sync`) and perfect overlap (γ → ∞, `T_iter = max(T_grad, T_sync)`).

/// A placement summarized by the only two quantities `T_iter` depends
/// on: total GPUs `K` and occupied nodes `N`.
///
/// Full allocation vectors (which GPUs on which nodes) live in
/// `pollux-cluster`; they reduce to this shape for throughput
/// prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlacementShape {
    /// Total number of allocated GPUs, `K ≥ 1`.
    pub gpus: u32,
    /// Number of physical nodes with at least one allocated GPU,
    /// `1 ≤ N ≤ K`.
    pub nodes: u32,
}

impl PlacementShape {
    /// Creates a placement shape, validating `1 ≤ nodes ≤ gpus`.
    pub fn new(gpus: u32, nodes: u32) -> Option<Self> {
        if gpus >= 1 && nodes >= 1 && nodes <= gpus {
            Some(Self { gpus, nodes })
        } else {
            None
        }
    }

    /// A single GPU on a single node.
    pub fn single() -> Self {
        Self { gpus: 1, nodes: 1 }
    }

    /// True when replicas span more than one physical node.
    pub fn is_distributed(&self) -> bool {
        self.nodes > 1
    }
}

/// The seven learnable system-throughput parameters θsys (Eqn 12).
///
/// All `α`/`β` parameters are in seconds (per iteration, or per
/// `(K−2)` retrogression step); `β_grad` is seconds per local example.
///
/// # Examples
///
/// ```
/// use pollux_models::{PlacementShape, ThroughputParams};
///
/// let p = ThroughputParams::new(0.01, 1e-3, 0.02, 0.002, 0.07, 0.008, 1.8).unwrap();
/// let one = PlacementShape::single();
/// let sixteen = PlacementShape::new(16, 4).unwrap();
/// // At a fixed small batch, 16 GPUs are sync-bound (Amdahl's law)...
/// let small_scaling = p.throughput(sixteen, 512) / p.throughput(one, 512);
/// // ...while a large batch amortizes the synchronization.
/// let large_scaling = p.throughput(sixteen, 2048) / p.throughput(one, 2048);
/// assert!(large_scaling > 2.0 * small_scaling);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputParams {
    /// Fixed per-iteration gradient-computation overhead (s).
    pub alpha_grad: f64,
    /// Per-local-example gradient-computation cost (s/example).
    pub beta_grad: f64,
    /// Synchronization constant when all GPUs share one node (s).
    pub alpha_sync_local: f64,
    /// Synchronization retrogression per extra GPU, co-located (s).
    pub beta_sync_local: f64,
    /// Synchronization constant across nodes (s).
    pub alpha_sync_node: f64,
    /// Synchronization retrogression per extra GPU, across nodes (s).
    pub beta_sync_node: f64,
    /// Overlap exponent γ ∈ [1, 10].
    pub gamma: f64,
}

impl ThroughputParams {
    /// Number of parameters (the θsys 7-tuple).
    pub const DIM: usize = 7;

    /// Lower bounds used when fitting: α, β ≥ 0 and γ ≥ 1.
    pub const LOWER: [f64; Self::DIM] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0];

    /// Upper bound on γ used when fitting.
    pub const GAMMA_MAX: f64 = 10.0;

    /// Creates parameters, validating the fitting box constraints.
    ///
    /// Returns `None` if any α/β is negative, γ is outside `[1, 10]`,
    /// or any value is non-finite.
    pub fn new(
        alpha_grad: f64,
        beta_grad: f64,
        alpha_sync_local: f64,
        beta_sync_local: f64,
        alpha_sync_node: f64,
        beta_sync_node: f64,
        gamma: f64,
    ) -> Option<Self> {
        let p = Self {
            alpha_grad,
            beta_grad,
            alpha_sync_local,
            beta_sync_local,
            alpha_sync_node,
            beta_sync_node,
            gamma,
        };
        if p.is_valid() {
            Some(p)
        } else {
            None
        }
    }

    /// True when all parameters satisfy the fitting box constraints.
    pub fn is_valid(&self) -> bool {
        let v = self.to_vec();
        v.iter().all(|x| x.is_finite())
            && v[..6].iter().all(|&x| x >= 0.0)
            && (1.0..=Self::GAMMA_MAX).contains(&self.gamma)
    }

    /// Packs the parameters into a vector in the canonical θsys order.
    pub fn to_vec(&self) -> [f64; Self::DIM] {
        [
            self.alpha_grad,
            self.beta_grad,
            self.alpha_sync_local,
            self.beta_sync_local,
            self.alpha_sync_node,
            self.beta_sync_node,
            self.gamma,
        ]
    }

    /// Unpacks parameters from the canonical order without validation.
    pub fn from_slice_unchecked(v: &[f64]) -> Self {
        Self {
            alpha_grad: v[0],
            beta_grad: v[1],
            alpha_sync_local: v[2],
            beta_sync_local: v[3],
            alpha_sync_node: v[4],
            beta_sync_node: v[5],
            gamma: v[6],
        }
    }

    /// `T_grad(a, m) = α_grad + β_grad · m / K` (Eqn 9).
    pub fn t_grad(&self, shape: PlacementShape, batch_size: u64) -> f64 {
        self.alpha_grad + self.beta_grad * batch_size as f64 / shape.gpus as f64
    }

    /// `T_sync(a)` (Eqn 10): zero for one GPU, locality-dependent
    /// otherwise.
    pub fn t_sync(&self, shape: PlacementShape) -> f64 {
        let k = shape.gpus;
        if k <= 1 {
            0.0
        } else if shape.nodes == 1 {
            self.alpha_sync_local + self.beta_sync_local * (k - 2) as f64
        } else {
            self.alpha_sync_node + self.beta_sync_node * (k - 2) as f64
        }
    }

    /// `T_iter = (T_grad^γ + T_sync^γ)^{1/γ}` (Eqn 11).
    pub fn t_iter(&self, shape: PlacementShape, batch_size: u64) -> f64 {
        let tg = self.t_grad(shape, batch_size);
        let ts = self.t_sync(shape);
        gamma_norm(tg, ts, self.gamma)
    }

    /// `THROUGHPUT(a, m) = m / T_iter(a, m)` in examples per second
    /// (Eqn 8). Returns 0 when `T_iter` is not positive.
    pub fn throughput(&self, shape: PlacementShape, batch_size: u64) -> f64 {
        let t = self.t_iter(shape, batch_size);
        if t > 0.0 {
            batch_size as f64 / t
        } else {
            0.0
        }
    }
}

/// The γ-norm combination `(a^γ + b^γ)^{1/γ}` for non-negative `a`, `b`.
///
/// Evaluated in a numerically stable way by factoring out the larger
/// term, so `γ` up to 10 never overflows even for large iteration times.
fn gamma_norm(a: f64, b: f64, gamma: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if hi <= 0.0 {
        return 0.0;
    }
    let r = lo / hi;
    hi * (1.0 + r.powf(gamma)).powf(1.0 / gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> ThroughputParams {
        ThroughputParams::new(0.05, 1.0e-3, 0.02, 0.001, 0.1, 0.004, 2.0).unwrap()
    }

    #[test]
    fn placement_shape_validation() {
        assert!(PlacementShape::new(4, 2).is_some());
        assert!(PlacementShape::new(0, 0).is_none());
        assert!(PlacementShape::new(2, 3).is_none());
        assert!(PlacementShape::new(1, 0).is_none());
        assert!(PlacementShape::single().gpus == 1);
        assert!(!PlacementShape::new(4, 1).unwrap().is_distributed());
        assert!(PlacementShape::new(4, 2).unwrap().is_distributed());
    }

    #[test]
    fn params_validation() {
        assert!(ThroughputParams::new(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0).is_some());
        assert!(ThroughputParams::new(-0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0).is_none());
        assert!(ThroughputParams::new(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5).is_none());
        assert!(ThroughputParams::new(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 11.0).is_none());
        assert!(ThroughputParams::new(f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0).is_none());
    }

    #[test]
    fn roundtrip_vec() {
        let p = params();
        let q = ThroughputParams::from_slice_unchecked(&p.to_vec());
        assert_eq!(p, q);
    }

    #[test]
    fn t_grad_scales_with_local_batch() {
        let p = params();
        let s1 = PlacementShape::new(1, 1).unwrap();
        let s4 = PlacementShape::new(4, 1).unwrap();
        // 4 GPUs each process m/4 examples: T_grad shrinks accordingly.
        let t1 = p.t_grad(s1, 1024);
        let t4 = p.t_grad(s4, 1024);
        assert!((t1 - (0.05 + 1.0e-3 * 1024.0)).abs() < 1e-12);
        assert!((t4 - (0.05 + 1.0e-3 * 256.0)).abs() < 1e-12);
    }

    #[test]
    fn t_sync_is_zero_for_single_gpu() {
        let p = params();
        assert_eq!(p.t_sync(PlacementShape::single()), 0.0);
    }

    #[test]
    fn t_sync_uses_locality_parameters() {
        let p = params();
        let local = PlacementShape::new(4, 1).unwrap();
        let multi = PlacementShape::new(4, 2).unwrap();
        assert!((p.t_sync(local) - (0.02 + 0.001 * 2.0)).abs() < 1e-12);
        assert!((p.t_sync(multi) - (0.1 + 0.004 * 2.0)).abs() < 1e-12);
        // Cross-node sync is slower than co-located sync.
        assert!(p.t_sync(multi) > p.t_sync(local));
    }

    #[test]
    fn t_sync_at_exactly_two_gpus_is_alpha_only() {
        let p = params();
        assert!((p.t_sync(PlacementShape::new(2, 1).unwrap()) - 0.02).abs() < 1e-12);
        assert!((p.t_sync(PlacementShape::new(2, 2).unwrap()) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gamma_one_is_sum_gamma_inf_is_max() {
        assert!((gamma_norm(3.0, 4.0, 1.0) - 7.0).abs() < 1e-12);
        // Large gamma approaches max(a, b).
        assert!((gamma_norm(3.0, 4.0, 200.0) - 4.0).abs() < 1e-9);
        // Gamma-norm is between max and sum for gamma in (1, inf).
        let v = gamma_norm(3.0, 4.0, 2.0);
        assert!(v > 4.0 && v < 7.0);
        assert!((v - 5.0).abs() < 1e-12); // 3-4-5 triangle.
    }

    #[test]
    fn gamma_norm_handles_zeros() {
        assert_eq!(gamma_norm(0.0, 0.0, 2.0), 0.0);
        assert!((gamma_norm(5.0, 0.0, 2.0) - 5.0).abs() < 1e-12);
        assert!((gamma_norm(0.0, 5.0, 3.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_saturates_with_gpus_at_fixed_batch() {
        // Amdahl's law (Sec. 2.1): at a fixed batch size, adding GPUs
        // shrinks T_grad but not T_sync, so throughput saturates below
        // m / T_sync.
        let p = params();
        let m = 1024;
        let mut last = 0.0;
        for k in 1..=16u32 {
            let shape = PlacementShape::new(k, k.div_ceil(4)).unwrap();
            let x = p.throughput(shape, m);
            if k > 2 {
                let bound = m as f64 / p.t_sync(shape);
                assert!(x <= bound + 1e-9, "K = {k}: {x} > {bound}");
            }
            if k >= 4 {
                // Diminishing returns: relative gain per GPU shrinks.
                assert!(x < last * 2.0);
            }
            last = x;
        }
    }

    #[test]
    fn larger_batch_enables_better_scaling() {
        // Fig 1a: the 2048 batch scales to more GPUs than the 512 batch.
        let p = params();
        let k16 = PlacementShape::new(16, 4).unwrap();
        let k1 = PlacementShape::single();
        let scale_small = p.throughput(k16, 512) / p.throughput(k1, 512);
        let scale_large = p.throughput(k16, 2048) / p.throughput(k1, 2048);
        assert!(
            scale_large > scale_small,
            "large-batch speedup {scale_large} should exceed small-batch {scale_small}"
        );
    }

    proptest! {
        #[test]
        fn t_iter_bounded_by_sum_and_max(
            ag in 0.0f64..1.0, bg in 0.0f64..0.01,
            asl in 0.0f64..1.0, bsl in 0.0f64..0.1,
            asn in 0.0f64..1.0, bsn in 0.0f64..0.1,
            gamma in 1.0f64..10.0,
            gpus in 1u32..64, m in 1u64..100_000,
        ) {
            let p = ThroughputParams::new(ag, bg, asl, bsl, asn, bsn, gamma).unwrap();
            let nodes = gpus.div_ceil(4).max(1).min(gpus);
            let shape = PlacementShape::new(gpus, nodes).unwrap();
            let tg = p.t_grad(shape, m);
            let ts = p.t_sync(shape);
            let ti = p.t_iter(shape, m);
            prop_assert!(ti <= tg + ts + 1e-9, "t_iter {} > sum {}", ti, tg + ts);
            prop_assert!(ti >= tg.max(ts) - 1e-9, "t_iter {} < max {}", ti, tg.max(ts));
        }

        #[test]
        fn throughput_monotone_in_batch_size(
            m in 64u64..100_000,
            gpus in 1u32..32,
        ) {
            // More examples per iteration never reduces examples/sec in
            // this model (T_iter grows sub-linearly in m).
            let p = ThroughputParams::new(0.05, 1e-3, 0.02, 0.001, 0.1, 0.004, 2.0).unwrap();
            let nodes = gpus.div_ceil(4).max(1);
            let shape = PlacementShape::new(gpus, nodes).unwrap();
            prop_assert!(p.throughput(shape, m * 2) >= p.throughput(shape, m) - 1e-9);
        }
    }
}
