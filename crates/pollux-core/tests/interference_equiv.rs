//! [`InterferenceIndex`] ≡ the full rescan: the incremental occupant
//! index is driven through a random stream of placement diffs (the
//! simulator's `apply` / `clear_job` / `push_job` / `rebuild` calls)
//! and its slowdown marking must match a brute-force recomputation
//! from the placement rows at every step.
//!
//! The golden-digest suites pin the *trajectory*; this suite pins the
//! *data structure* under inputs the trajectories never reach.

use pollux_simulator::InterferenceIndex;
use proptest::prelude::*;

/// Brute-force interference marking from raw placement rows: a job is
/// slowed iff it is distributed (≥ 2 nodes) and shares some node with
/// another distributed job — the rule `compute_interference` applies.
fn rescan_slowdowns(rows: &[Vec<u32>], num_nodes: usize, factor: f64) -> Vec<f64> {
    let distributed: Vec<bool> = rows
        .iter()
        .map(|r| r.iter().filter(|&&g| g > 0).count() > 1)
        .collect();
    let mut out = vec![0.0; rows.len()];
    for n in 0..num_nodes {
        let sharers: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(j, r)| distributed[*j] && r.get(n).copied().unwrap_or(0) > 0)
            .map(|(j, _)| j)
            .collect();
        if sharers.len() > 1 {
            for j in sharers {
                out[j] = factor;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The incremental interference index marks exactly the jobs a
    /// full rescan of the placement rows would, across a random
    /// stream of placement diffs, finishes, spawns, and rebuilds.
    #[test]
    fn interference_index_equals_full_rescan(
        init_nodes in 1usize..6,
        factor in 0.05f64..0.9,
        ops in proptest::collection::vec(
            (0u8..8, 0usize..16, 0u64..1_000_000),
            1..60,
        ),
    ) {
        let mut num_nodes = init_nodes;
        let mut rows: Vec<Vec<u32>> = Vec::new();
        let mut index = InterferenceIndex::new(num_nodes);
        for (step, &(kind, pick, pattern)) in ops.iter().enumerate() {
            match kind {
                // Spawn: one new idle job.
                0 => {
                    index.push_job();
                    rows.push(vec![0; num_nodes]);
                }
                // Finish: clear a job's placement.
                1 => {
                    if !rows.is_empty() {
                        let j = pick % rows.len();
                        index.clear_job(j, &rows[j]);
                        rows[j].iter_mut().for_each(|g| *g = 0);
                    }
                }
                // Resize: change the node count and rebuild.
                2 => {
                    num_nodes = 1 + (pick % 8);
                    for row in &mut rows {
                        row.resize(num_nodes, 0);
                    }
                    index.rebuild(num_nodes, rows.iter().map(|r| r.as_slice()));
                }
                // Reallocation diff: replace one job's row with a
                // pattern-derived placement (0-2 GPUs per node).
                _ => {
                    if !rows.is_empty() {
                        let j = pick % rows.len();
                        let new: Vec<u32> = (0..num_nodes)
                            .map(|n| ((pattern >> (2 * (n % 32))) % 3) as u32)
                            .collect();
                        index.apply(j, &rows[j], &new);
                        rows[j] = new;
                    }
                }
            }
            let mut marked = vec![0.0; rows.len()];
            index.mark_slowdowns(factor, &mut marked);
            let expected = rescan_slowdowns(&rows, num_nodes, factor);
            assert_eq!(
                marked, expected,
                "step {step}: op ({kind}, {pick}, {pattern}) over {num_nodes} nodes, rows {rows:?}"
            );
        }
    }
}
