//! θsys fit quality and hostile inputs, under the tier-1 command.
//!
//! The quality half mirrors the assertions of `pollux-models`' own
//! `fit.rs` tests through the umbrella's public API, at thresholds no
//! looser than theirs. The hostile half pins the contract of the three
//! public fit entry points on inputs no profiler would produce: valid
//! parameters or `None`, never NaN, never a panic.

use pollux::models::{
    fit_throughput_params, fit_throughput_params_constrained, fit_throughput_params_warm,
    FitObservation, FitPriors, FitReport, PlacementShape, ThroughputParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn truth() -> ThroughputParams {
    ThroughputParams::new(0.08, 8.0e-4, 0.05, 0.002, 0.25, 0.008, 1.8).unwrap()
}

fn shape(gpus: u32, nodes: u32) -> PlacementShape {
    PlacementShape::new(gpus, nodes).unwrap()
}

fn observe(gpus: u32, nodes: u32, batch_size: u64) -> FitObservation {
    let shape = shape(gpus, nodes);
    FitObservation {
        shape,
        batch_size,
        t_iter: truth().t_iter(shape, batch_size),
    }
}

/// A grid of placements and batch sizes under the true model, with
/// multiplicative noise of the given relative magnitude.
fn synth_observations(noise: f64, seed: u64) -> Vec<FitObservation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut obs = Vec::new();
    for (gpus, nodes) in [(1, 1), (2, 1), (4, 1), (4, 2), (8, 2), (8, 4), (16, 4)] {
        for m in [128u64, 256, 512, 1024, 2048] {
            let mut o = observe(gpus, nodes, m);
            o.t_iter *= 1.0 + rng.gen_range(-noise..=noise);
            obs.push(o);
        }
    }
    obs
}

fn fit(obs: &[FitObservation]) -> FitReport {
    fit_throughput_params(obs, FitPriors::from_observations(obs)).expect("finite observations")
}

fn held_out_error(params: &ThroughputParams) -> f64 {
    [(3u32, 1u32, 384u64), (12, 3, 1536), (6, 2, 768)]
        .iter()
        .map(|&(gpus, nodes, m)| {
            let want = truth().t_iter(shape(gpus, nodes), m);
            (params.t_iter(shape(gpus, nodes), m) - want).abs() / want
        })
        .fold(0.0, f64::max)
}

#[test]
fn noise_free_data_is_recovered_on_held_out_shapes() {
    let report = fit(&synth_observations(0.0, 3));
    assert!(report.rmsle < 1e-4, "rmsle = {}", report.rmsle);
    // Predictions, not parameters: the model is weakly identified.
    let err = held_out_error(&report.params);
    assert!(err < 0.05, "held-out error {err}");
}

#[test]
fn ten_percent_noise_moves_predictions_by_less() {
    for seed in [4, 5, 6] {
        let report = fit(&synth_observations(0.10, seed));
        let want = truth().throughput(shape(8, 2), 1024);
        let got = report.params.throughput(shape(8, 2), 1024);
        assert!(
            (got - want).abs() / want < 0.2,
            "seed {seed}: {got} vs {want}"
        );
        assert!(held_out_error(&report.params) < 0.15, "seed {seed}");
    }
}

#[test]
fn single_gpu_data_keeps_the_optimistic_prior() {
    let obs: Vec<_> = [128, 256, 512].map(|m| observe(1, 1, m)).into();
    let report = fit(&obs);
    let p = report.params;
    assert_eq!(
        [
            p.alpha_sync_local,
            p.beta_sync_local,
            p.alpha_sync_node,
            p.beta_sync_node
        ],
        [0.0; 4]
    );
    // 8 GPUs at 8x the batch: same local batch, so ~8x the throughput.
    let scaling = p.throughput(shape(8, 2), 4096) / p.throughput(shape(1, 1), 512);
    assert!(scaling > 6.0, "scaling = {scaling}");
}

#[test]
fn heavy_noise_still_yields_parameters_inside_the_box() {
    for seed in [7, 8, 9] {
        let report = fit(&synth_observations(0.3, seed));
        assert!(report.params.is_valid(), "seed {seed}: {:?}", report.params);
        assert!(report.rmsle.is_finite());
    }
}

#[test]
fn one_observation_is_fitted_exactly() {
    // One equation, at least three unknowns: a perfect fit exists, and
    // the smooth objective lets the quasi-Newton steps reach it.
    for (gpus, nodes, m) in [
        (1, 1, 128),
        (2, 1, 256),
        (4, 1, 512),
        (8, 2, 512),
        (16, 4, 4096),
    ] {
        let obs = [observe(gpus, nodes, m)];
        let report = fit(&obs);
        assert!(
            report.rmsle <= 1e-6,
            "({gpus}, {nodes}, {m}): rmsle = {}",
            report.rmsle
        );
        assert_eq!(report.num_observations, 1);
    }
}

fn bits(report: &FitReport) -> Vec<u64> {
    let mut v: Vec<u64> = report.params.to_vec().map(f64::to_bits).into();
    v.push(report.rmsle.to_bits());
    v
}

#[test]
fn warm_none_is_the_cold_fit_bit_for_bit() {
    for noise in [0.0, 0.05, 0.3] {
        let obs = synth_observations(noise, 9);
        let priors = FitPriors::from_observations(&obs);
        let cold = fit_throughput_params(&obs, priors).unwrap();
        let warm = fit_throughput_params_warm(&obs, priors, None).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(bits(&cold), bits(&warm));
        assert!(!warm.used_warm_start);
    }
}

#[test]
fn a_good_warm_start_is_accepted_and_a_bad_one_is_no_worse_than_cold() {
    let obs = synth_observations(0.0, 10);
    let priors = FitPriors::from_observations(&obs);
    let cold = fit_throughput_params(&obs, priors).unwrap();
    let again = fit_throughput_params_warm(&obs, priors, Some(&cold.params)).unwrap();
    assert!(again.used_warm_start);
    assert!(again.rmsle <= cold.rmsle + 1e-12);

    let junk = ThroughputParams::new(500.0, 50.0, 400.0, 90.0, 300.0, 80.0, 10.0).unwrap();
    let rescued = fit_throughput_params_warm(&obs, priors, Some(&junk)).unwrap();
    assert!(rescued.rmsle <= cold.rmsle + 1e-9, "{}", rescued.rmsle);
    assert!(rescued.params.is_valid());
}

#[test]
fn warm_refits_keep_up_with_cold_fits_while_exploration_unlocks_parameters() {
    // A job's life: one GPU, then two, four, a second node, sixteen
    // GPUs. Every new shape can free parameters the previous fit held
    // at 0, where the objective is flat in them (∂T/∂T_sync → 0 as
    // T_sync → 0 at γ > 1); a warm solve that started there would
    // stall, pass the acceptance threshold, and hand the scheduler a
    // model without synchronization cost.
    let steps = [
        (1, 1),
        (1, 1),
        (2, 1),
        (2, 1),
        (4, 1),
        (4, 1),
        (4, 2),
        (8, 2),
        (8, 2),
        (8, 3),
        (12, 3),
        (16, 4),
        (16, 4),
        (12, 4),
        (6, 2),
    ];
    for seed in 1..=4 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = Vec::new();
        let mut previous: Option<ThroughputParams> = None;
        for (step, &(gpus, nodes)) in steps.iter().enumerate() {
            let per_gpu = [128u64, 192, 256, 384, 512, 768, 1024][rng.gen_range(0..7usize)];
            let mut o = observe(gpus, nodes, per_gpu * u64::from(gpus.min(4)));
            o.t_iter *= 1.0 + rng.gen_range(-0.05..=0.05);
            obs.push(o);
            let priors = FitPriors::from_observations(&obs);
            let warm = fit_throughput_params_warm(&obs, priors, previous.as_ref()).unwrap();
            let cold = fit_throughput_params(&obs, priors).unwrap();
            assert!(
                warm.rmsle <= 1.25 * cold.rmsle + 1e-6,
                "seed {seed} step {step}: warm {} vs cold {}",
                warm.rmsle,
                cold.rmsle
            );
            previous = Some(warm.params);
        }
    }
}

/// The contract on hostile input: `None`, or a report whose
/// parameters satisfy the box and whose loss is a number.
fn assert_valid_or_none(what: &str, report: Option<FitReport>) -> Option<FitReport> {
    if let Some(r) = &report {
        assert!(r.params.is_valid(), "{what}: invalid {:?}", r.params);
        assert!(
            r.rmsle.is_finite() && r.rmsle >= 0.0,
            "{what}: rmsle {}",
            r.rmsle
        );
    }
    report
}

fn with(f: impl FnOnce(&mut ThroughputParams)) -> ThroughputParams {
    let mut p = truth();
    f(&mut p);
    p
}

#[test]
fn hostile_warm_starts_are_absorbed() {
    let obs = synth_observations(0.05, 11);
    let priors = FitPriors::from_observations(&obs);
    let cold = fit_throughput_params(&obs, priors).unwrap();

    // NaN or +∞ coordinates, which projection onto the box leaves
    // non-finite: the warm start is ignored outright.
    for (what, warm) in [
        ("NaN α_grad", with(|p| p.alpha_grad = f64::NAN)),
        ("NaN γ", with(|p| p.gamma = f64::NAN)),
        ("+∞ β_grad", with(|p| p.beta_grad = f64::INFINITY)),
        (
            "all NaN",
            ThroughputParams::from_slice_unchecked(&[f64::NAN; 7]),
        ),
    ] {
        let report =
            assert_valid_or_none(what, fit_throughput_params_warm(&obs, priors, Some(&warm)))
                .unwrap_or_else(|| panic!("{what}: the cold seeds must still fit"));
        assert_eq!(bits(&report), bits(&cold), "{what}");
        assert!(!report.used_warm_start, "{what}");
    }

    // Outside the box: projected onto it, then used.
    for (what, warm) in [
        ("−∞ α_sync", with(|p| p.alpha_sync_node = f64::NEG_INFINITY)),
        (
            "negative α/β",
            ThroughputParams::from_slice_unchecked(&[-1.0, -1e-3, -0.5, -0.1, -2.0, -0.3, 1.8]),
        ),
        ("γ = 50", with(|p| p.gamma = 50.0)),
        ("γ = −3", with(|p| p.gamma = -3.0)),
        ("huge", ThroughputParams::from_slice_unchecked(&[1e300; 7])),
        ("tiny", ThroughputParams::from_slice_unchecked(&[1e-300; 7])),
    ] {
        let report =
            assert_valid_or_none(what, fit_throughput_params_warm(&obs, priors, Some(&warm)))
                .unwrap_or_else(|| panic!("{what}: the cold seeds must still fit"));
        assert!(
            report.rmsle <= cold.rmsle + 1e-9,
            "{what}: {}",
            report.rmsle
        );
    }
}

#[test]
fn hostile_observations_yield_valid_parameters_or_none() {
    let base = synth_observations(0.05, 12);
    let hostile_t = [1e300, 1e-300, f64::MAX, f64::MIN_POSITIVE, 5e-324];
    let hostile_m = [0, 1, u64::MAX];

    let mut cases: Vec<(String, Vec<FitObservation>)> = Vec::new();
    for &t in &hostile_t {
        for (gpus, nodes) in [(1, 1), (4, 1), (8, 2)] {
            let o = FitObservation {
                t_iter: t,
                ..observe(gpus, nodes, 256)
            };
            cases.push((format!("alone t = {t:e} on ({gpus}, {nodes})"), vec![o]));
            let mut mixed = base.clone();
            mixed.push(o);
            cases.push((format!("mixed t = {t:e} on ({gpus}, {nodes})"), mixed));
        }
    }
    for &m in &hostile_m {
        for (gpus, nodes) in [(1, 1), (4, 1), (8, 2)] {
            let o = FitObservation {
                batch_size: m,
                ..observe(gpus, nodes, 256)
            };
            cases.push((format!("alone m = {m} on ({gpus}, {nodes})"), vec![o]));
            let mut mixed = base.clone();
            mixed.push(o);
            cases.push((format!("mixed m = {m} on ({gpus}, {nodes})"), mixed));
        }
    }
    // The same observation many times over, alone and among others.
    cases.push(("one row x 64".into(), vec![observe(4, 1, 512); 64]));
    let mut doubled = base.clone();
    doubled.extend_from_slice(&base);
    cases.push(("every row twice".into(), doubled));
    // Enough huge rows to overflow their sum.
    cases.push((
        "sum overflows".into(),
        vec![
            FitObservation {
                t_iter: f64::MAX,
                ..observe(1, 1, 128)
            };
            4
        ],
    ));
    // Unusable rows are dropped, not fitted.
    let mut dirty = base.clone();
    for t in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
        dirty.push(FitObservation {
            t_iter: t,
            ..observe(2, 1, 128)
        });
    }
    cases.push(("unusable rows".into(), dirty));

    for (what, obs) in &cases {
        let priors = FitPriors::from_observations(obs);
        let cold = assert_valid_or_none(what, fit_throughput_params(obs, priors));
        let warm = cold.as_ref().map(|r| r.params).unwrap_or_else(truth);
        assert_valid_or_none(what, fit_throughput_params_warm(obs, priors, Some(&warm)));
        for range in [(1.0, 1.0), (10.0, 10.0), (2.5, 2.5)] {
            assert_valid_or_none(what, fit_throughput_params_constrained(obs, priors, range));
        }
        // Priors that disagree with the data (a profiler never does
        // this) pin or free parameters the rows do or do not touch.
        for priors in [
            FitPriors::default(),
            FitPriors {
                max_gpus_seen: 64,
                max_nodes_seen: 16,
            },
        ] {
            assert_valid_or_none(what, fit_throughput_params(obs, priors));
        }
    }

    let duplicated = fit(&[base.clone(), base.clone()].concat());
    let once = fit(&base);
    assert!(
        (duplicated.rmsle - once.rmsle).abs() < 1e-6,
        "duplicates change the optimum"
    );
    assert_eq!(fit(&cases.last().unwrap().1).num_observations, base.len());
}

#[test]
fn unusable_input_and_bad_gamma_ranges_are_refused() {
    assert!(fit_throughput_params(&[], FitPriors::default()).is_none());
    let nan = [FitObservation {
        t_iter: f64::NAN,
        ..observe(1, 1, 128)
    }];
    assert!(fit_throughput_params(&nan, FitPriors::default()).is_none());
    let obs = synth_observations(0.0, 13);
    let priors = FitPriors::from_observations(&obs);
    for range in [
        (0.5, 2.0),
        (2.0, 1.0),
        (1.0, 11.0),
        (f64::NAN, 2.0),
        (1.0, f64::NAN),
    ] {
        assert!(
            fit_throughput_params_constrained(&obs, priors, range).is_none(),
            "{range:?}"
        );
    }
}
