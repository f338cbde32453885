//! The paper's relative claims, asserted where the tier-1 command
//! (`cargo test -q` at the repository root) runs them.
//!
//! The golden digests prove the code agrees with its past self; these
//! tests check that it still agrees with the paper, so a re-pinned
//! golden whose reproduction broke fails here.

use pollux::experiments::{fig10, fig7, table2, table3};

/// Table 2's headline ordering on one trace: Pollux < Optimus+Oracle <
/// Tiresias+TunedJobs on average JCT (Sec. 5.2).
#[test]
fn table2_orders_pollux_before_optimus_before_tiresias() {
    let result = table2::run(1).expect("one trace is a valid grid");
    let [pollux, optimus, tiresias] = result.outcomes.map(|o| o.avg_jct_hours);
    assert!(pollux < optimus, "{pollux} vs {optimus}");
    assert!(optimus < tiresias, "{optimus} vs {tiresias}");
}

/// Fig 7's direction on one trace: with every job user-configured
/// instead of tuned, neither baseline gets closer to Pollux (Sec.
/// 5.3.1). Only the end points are compared; the steps between them
/// are not monotone at one trace.
#[test]
fn fig7_user_configured_jobs_help_neither_baseline() {
    let result = fig7::run(1).expect("one trace is a valid grid");
    let (tuned, user) = match &result.points[..] {
        [first, .., last] => (first, last),
        points => panic!("{} sweep points", points.len()),
    };
    assert_eq!((tuned.user_fraction, user.user_fraction), (0.0, 1.0));
    for (p, (name, _)) in table2::POLICIES.iter().enumerate().skip(1) {
        assert!(
            user.normalized[p] >= tuned.normalized[p],
            "{name}: {} at 100 % user-configured vs {} at 0 %",
            user.normalized[p],
            tuned.normalized[p]
        );
    }
}

/// Table 3 on one trace: at λ = 1 the median JCT improves on λ = 0 and
/// the 99th percentile pays for it (Sec. 5.3.2).
#[test]
fn table3_weight_decay_trades_the_tail_for_the_median() {
    let result = table3::run(1).expect("one trace is a valid grid");
    let (none, full) = (&result.rows[0], &result.rows[2]);
    assert_eq!((none.lambda, full.lambda), (0.0, 1.0));
    assert!(
        full.p50_jct_hours < none.p50_jct_hours,
        "median {} at λ = 1 vs {} at λ = 0",
        full.p50_jct_hours,
        none.p50_jct_hours
    );
    assert!(
        full.p99_jct_hours > none.p99_jct_hours,
        "p99 {} at λ = 1 vs {} at λ = 0",
        full.p99_jct_hours,
        none.p99_jct_hours
    );
}

/// Fig 10 at the runner's default job size: goodput-based autoscaling
/// trains ImageNet cheaper than Or et al.'s throughput-based one, and
/// slower (Sec. 5.3.3).
#[test]
fn fig10_pollux_autoscaling_is_cheaper_but_slower() {
    let result = fig10::run(0.25);
    let saving = result.cost_saving();
    let overhead = result.time_overhead().expect("both jobs finish");
    assert!(saving > 0.0, "cost saving {saving}");
    assert!(overhead > 0.0, "time overhead {overhead}");
}
