//! The Eqn-13 solver against its oracle.
//!
//! `GoodputModel::optimal_batch_size` brackets the root of the
//! derivative of `ln GOODPUT` and compares the integers next to it on
//! `goodput()`; the search it replaced, `golden_section_max_int` over
//! `goodput()`, is the oracle. Both maximise the same unimodal function
//! over the same integers and return `goodput()` at the winner, so they
//! must agree to the bit — and where the argument stops (a top too flat
//! to rank by anything but rounding, a non-finite or out-of-box θsys)
//! the solver hands the question to the oracle itself.

use pollux_models::{
    golden_section_max_int, BatchSizeLimits, EfficiencyModel, GoodputModel, PlacementShape,
    ThroughputParams,
};
use proptest::prelude::*;

fn oracle(model: &GoodputModel, shape: PlacementShape) -> Option<(u64, f64)> {
    let (lo, hi) = model.limits.range(shape)?;
    golden_section_max_int(|m| model.goodput(shape, m), lo, hi)
}

fn bits(solve: Option<(u64, f64)>) -> Option<(u64, u64)> {
    solve.map(|(m, goodput)| (m, goodput.to_bits()))
}

/// One question: a model, a shape, and a hint that may be anywhere.
type World = (GoodputModel, PlacementShape, Option<u64>);

/// Random θsys (γ ∈ [1, 10], each α/β zeroed one time in eight),
/// φ ∈ {0, 50…2·10⁴, ∞}, `m0` 8…512 with memory and global caps that
/// put the optimum at `lo`, at `hi` or inside — one range in eight is
/// at most nine batch sizes wide — and 1…64 GPUs in both localities.
fn world() -> impl Strategy<Value = World> {
    let theta = (
        0.0f64..0.5,
        -5.0f64..-1.0,
        0.0f64..0.3,
        0.0f64..0.02,
        0.0f64..0.5,
        0.0f64..0.03,
        1.0f64..10.0,
        // Three bits per term: all zero → the term is zero; the top
        // three decide γ = 1.
        0u32..(1 << 21),
    );
    let rest = (
        0u8..10,      // φ: 0 → 0, 1 → ∞, else log-uniform in [50, 2·10⁴]
        0.0f64..1.0,  // its magnitude
        3u32..10,     // log2 m0
        4u32..12,     // log2 of the per-GPU cap
        9u32..17,     // log2 of the global cap
        0u64..72,     // < 9: the global cap is m0 plus this
        1u32..65,     // K
        0u64..70_000, // hint; the top tenth means none
    );
    (theta, rest, 0u8..2).prop_map(|(theta, rest, spread)| {
        let (ag, log_bg, asl, bsl, asn, bsn, gamma, zeros) = theta;
        let term = |i: u32, v: f64| {
            if (zeros >> (3 * i)) & 7 == 0 {
                0.0
            } else {
                v
            }
        };
        let gamma = if (zeros >> 18) & 7 == 0 { 1.0 } else { gamma };
        let params = ThroughputParams::new(
            term(0, ag),
            term(1, 10f64.powf(log_bg)),
            term(2, asl),
            term(3, bsl),
            term(4, asn),
            term(5, bsn),
            gamma,
        )
        .expect("inside the fitting box");
        let (phi_kind, phi_mag, m0, per_gpu, global, tiny, gpus, hint) = rest;
        let phi = match phi_kind {
            0 => 0.0,
            1 => f64::INFINITY,
            _ => 50.0 * 400f64.powf(phi_mag),
        };
        let m0 = 1u64 << m0;
        let global = if tiny < 9 {
            m0 + tiny
        } else {
            m0.max(1 << global)
        };
        let limits = BatchSizeLimits::new(m0, global, m0.max(1 << per_gpu)).expect("min <= max");
        let efficiency = EfficiencyModel::from_noise_scale(m0, phi).expect("phi >= 0");
        let model = GoodputModel::new(params, efficiency, limits).expect("same m0");
        let nodes = 1 + u32::from(spread == 1 && gpus >= 2);
        let shape = PlacementShape::new(gpus, nodes).expect("nodes <= gpus");
        (model, shape, (hint < 63_000).then_some(hint))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every batch of 500 questions: each answer is the oracle's to the
    /// bit (or, were the two ever to differ, at least as good — and the
    /// case is printed), with and without a hint, and the batch spends
    /// at most 12 evaluations a solve — on the solves that end inside
    /// the range, too — where the oracle spends ≈ 26.
    #[test]
    fn solver_matches_golden_section_bitwise(worlds in proptest::collection::vec(world(), 500)) {
        let (mut evals, mut solves, mut differing) = (0u64, 0u64, 0u64);
        let (mut at_lo, mut at_hi, mut inside, mut short) = (0, 0, 0u64, 0);
        let mut inside_evals = 0u64;
        for (model, shape, hint) in worlds {
            let old = oracle(&model, shape);
            let cold = model.optimal_batch_size_near(shape, None);
            prop_assert_eq!(old.is_some(), cold.is_some(), "{:?} {:?}", model, shape);
            prop_assert_eq!(
                bits(model.optimal_batch_size(shape)),
                bits(cold.map(|s| (s.batch_size, s.goodput)))
            );
            let (Some(old), Some(cold)) = (old, cold) else { continue };
            let (lo, hi) = model.limits.range(shape).expect("solved, so feasible");
            prop_assert!((lo..=hi).contains(&cold.batch_size));
            prop_assert_eq!(
                cold.goodput.to_bits(),
                model.goodput(shape, cold.batch_size).to_bits(),
                "the value is goodput() at the batch size"
            );
            short += usize::from(hi - lo <= 8);
            at_lo += usize::from(cold.batch_size == lo);
            at_hi += usize::from(cold.batch_size == hi && hi > lo);
            if lo < cold.batch_size && cold.batch_size < hi {
                inside += 1;
                inside_evals += u64::from(cold.evals);
            }
            evals += u64::from(cold.evals);
            solves += 1;
            if bits(Some(old)) != bits(Some((cold.batch_size, cold.goodput))) {
                differing += 1;
                eprintln!(
                    "solver != oracle: {model:?} {shape:?}: oracle {old:?}, solver {cold:?}"
                );
                prop_assert!(cold.goodput >= old.1, "the solver's answer is worse");
            }
            let warm = model
                .optimal_batch_size_near(shape, hint)
                .expect("feasible with a hint as without");
            prop_assert_eq!(
                (warm.batch_size, warm.goodput.to_bits()),
                (cold.batch_size, cold.goodput.to_bits()),
                "hint {:?} moved the answer: {:?} {:?}", hint, model, shape
            );
        }
        prop_assert!(solves >= 450);
        // Ends of the range are cheap; the bound holds without them.
        prop_assert!(
            evals <= 12 * solves && inside_evals <= 12 * inside,
            "{} evaluations over {} solves, {} over {} inside the range",
            evals, solves, inside_evals, inside
        );
        // The batch exercises every way a solve can end.
        prop_assert!(
            at_lo >= 20 && at_hi >= 20 && inside >= 20 && short >= 20,
            "lo {} hi {} inside {} short {}", at_lo, at_hi, inside, short
        );
        prop_assert!(differing <= 5, "{} of {} solves differ", differing, solves);
    }

    /// θsys that never went through `ThroughputParams::new`: NaN, ±∞,
    /// negative and huge entries. The solver must answer what the
    /// oracle answers — `None` included — and return at all.
    #[test]
    fn hostile_models_get_the_oracles_answer(
        picks in proptest::collection::vec((0usize..7, 0usize..9), 1..4),
        gamma in 1.0f64..10.0,
        phi_kind in 0u8..4,
        gpus in 1u32..33,
        spread in 0u8..2,
        hint in 0u64..5_000,
    ) {
        const HOSTILE: [f64; 9] = [
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-9, 1e300, 1e-300, 0.0, -0.0,
        ];
        let mut theta = [0.02, 1.0e-3, 0.05, 0.002, 0.2, 0.01, gamma];
        for (slot, value) in picks {
            theta[slot] = HOSTILE[value];
        }
        let params = ThroughputParams::from_slice_unchecked(&theta);
        let phi = [0.0, 700.0, 1e300, f64::INFINITY][phi_kind as usize];
        let efficiency = EfficiencyModel::from_noise_scale(128, phi).expect("phi >= 0");
        let limits = BatchSizeLimits::new(128, 32_768, 512).expect("static");
        let model = GoodputModel::new(params, efficiency, limits).expect("same m0");
        let nodes = 1 + u32::from(spread == 1 && gpus >= 2);
        let shape = PlacementShape::new(gpus, nodes).expect("nodes <= gpus");
        let old = oracle(&model, shape);
        for near in [None, Some(hint)] {
            let new = model.optimal_batch_size_near(shape, near);
            // Inside the box (a hostile value may be a legal one, 1e300
            // say) a differing answer must at least be no worse.
            if bits(old) != bits(new.map(|s| (s.batch_size, s.goodput))) {
                prop_assert!(params.is_valid(), "{:?} {:?}: {:?} vs {:?}", params, shape, old, new);
                let (old, new) = (old.expect("both answer"), new.expect("both answer"));
                prop_assert!(new.goodput >= old.1, "{:?} {:?}: {:?} vs {:?}", params, shape, old, new);
            }
            // Bounded: the derivative's budget, the walk's, the oracle's.
            prop_assert!(new.is_none_or(|s| s.evals <= 64 + 3 + 2 * 16 + 160), "{:?}", new);
        }
    }
}
