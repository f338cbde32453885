//! The paper's relative claims, asserted where the tier-1 command
//! (`cargo test -q` at the repository root) runs them.
//!
//! The golden digests prove the code agrees with its past self; these
//! tests check that it still agrees with the paper, so a re-pinned
//! golden whose reproduction broke fails here.

use pollux::experiments::table2;

/// Table 2's headline ordering on one trace: Pollux < Optimus+Oracle <
/// Tiresias+TunedJobs on average JCT (Sec. 5.2).
#[test]
fn table2_orders_pollux_before_optimus_before_tiresias() {
    let result = table2::run(1).expect("one trace is a valid grid");
    let [pollux, optimus, tiresias] = result.outcomes.map(|o| o.avg_jct_hours);
    assert!(pollux < optimus, "{pollux} vs {optimus}");
    assert!(optimus < tiresias, "{optimus} vs {tiresias}");
}
