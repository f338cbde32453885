//! The paper's relative claims, asserted where the tier-1 command
//! (`cargo test -q` at the repository root) runs them.
//!
//! The golden digests prove the code agrees with its past self; these
//! tests check that it still agrees with the paper, so a re-pinned
//! golden whose reproduction broke fails here.

use pollux::experiments::cell::{run_averaged, Cell};
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

/// Fig 8's end points on one trace: from 1× to 2× load every policy's
/// average JCT grows, and Pollux's grows least (Sec. 5.3.2). The cells
/// are `fig8::run`'s at those two loads.
#[test]
fn fig8_pollux_degrades_least_under_double_load() {
    let cells: Vec<Cell> = [1.0, 2.0]
        .iter()
        .flat_map(|&load| {
            table2::POLICIES.map(|(policy, _)| Cell {
                load,
                ..Cell::evaluation(policy, 0)
            })
        })
        .collect();
    let jct = run_averaged(&cells, 1).expect("one trace is a valid grid");
    let growth: Vec<f64> = (0..3)
        .map(|p| jct[3 + p].avg_jct_hours / jct[p].avg_jct_hours)
        .collect();
    for (p, (name, _)) in table2::POLICIES.iter().enumerate().skip(1) {
        assert!(
            growth[0] < growth[p],
            "JCT grew {}x under Pollux vs {}x under {name}",
            growth[0],
            growth[p]
        );
    }
}

/// Fig 9's end points on one trace: interference avoidance costs
/// Pollux at most 5 % when co-location is free, and wins when it slows
/// distributed jobs by 50 % (Sec. 5.3.2). The cells are `fig9::run`'s
/// at those two slowdowns.
#[test]
fn fig9_interference_avoidance_is_cheap_and_wins_under_slowdown() {
    let cells: Vec<Cell> = [0.0, 0.5]
        .iter()
        .flat_map(|&interference| {
            [true, false].map(|avoidance| {
                let mut cell = Cell {
                    interference,
                    ..Cell::evaluation("pollux", 0)
                };
                cell.pollux.sched.ga.interference_avoidance = avoidance;
                cell
            })
        })
        .collect();
    let jct = run_averaged(&cells, 1).expect("one trace is a valid grid");
    let [free_on, free_off, slow_on, slow_off] = [0, 1, 2, 3].map(|i| jct[i].avg_jct_hours);
    assert!(
        free_on <= 1.05 * free_off,
        "at 0 % slowdown: {free_on} h with avoidance vs {free_off} h without"
    );
    assert!(
        slow_off > slow_on,
        "at 50 % slowdown: {slow_off} h without avoidance vs {slow_on} h with"
    );
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
