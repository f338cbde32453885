//! Equivalence wall for the datacenter-scale sparse structures.
//!
//! Two pinned equivalences, each under randomized operation streams:
//!
//! 1. [`SparseAllocation`] ≡ [`AllocationMatrix`]: both sides execute
//!    the same random sequence of `set` / `copy_row` / `push_job` /
//!    `remove_job` / `resize_nodes` operations and must agree on every
//!    observable — cell values, per-job totals, shapes, per-node
//!    usage, and the dense materialization.
//! 2. [`InterferenceIndex`] ≡ the full rescan: the incremental
//!    occupant index is driven through a random stream of placement
//!    diffs (the simulator's `apply` / `clear_job` / `push_job` /
//!    `rebuild` calls) and its slowdown marking must match a
//!    brute-force recomputation from the placement rows at every step.
//!
//! These are the structures `bench_scale` leans on; the golden-digest
//! suites pin the *trajectory*, this suite pins the *data structures*
//! under inputs the trajectories never reach.

use pollux_cluster::{AllocationMatrix, SparseAllocation};
use pollux_simulator::InterferenceIndex;
use proptest::prelude::*;

/// Asserts every observable of the sparse and dense representations
/// agrees.
fn assert_equivalent(s: &SparseAllocation, m: &AllocationMatrix, ctx: &str) {
    assert_eq!(s.num_jobs(), m.num_jobs(), "num_jobs diverged: {ctx}");
    assert_eq!(s.num_nodes(), m.num_nodes(), "num_nodes diverged: {ctx}");
    assert_eq!(&s.to_dense(), m, "dense view diverged: {ctx}");
    for j in 0..m.num_jobs() {
        assert_eq!(s.dense_row(j), m.row(j), "row {j} diverged: {ctx}");
        assert!(
            s.row_equals_dense(j, m.row(j)),
            "row_equals_dense {j}: {ctx}"
        );
        assert_eq!(s.gpus_of(j), m.gpus_of(j), "gpus_of {j}: {ctx}");
        assert_eq!(s.nodes_of(j), m.nodes_of(j), "nodes_of {j}: {ctx}");
        assert_eq!(s.shape_of(j), m.shape_of(j), "shape_of {j}: {ctx}");
        assert_eq!(
            s.is_distributed(j),
            m.is_distributed(j),
            "is_distributed {j}: {ctx}"
        );
        for n in 0..m.num_nodes() {
            assert_eq!(s.get(j, n), m.get(j, n), "get({j},{n}): {ctx}");
        }
    }
    for n in 0..m.num_nodes() {
        assert_eq!(
            s.gpus_used_on(n),
            m.gpus_used_on(n),
            "gpus_used_on {n}: {ctx}"
        );
    }
    assert_eq!(s.total_gpus_used(), m.total_gpus_used(), "total: {ctx}");
}

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
    /// Sparse and dense allocations agree on every observable after
    /// every operation of a random mutation stream.
    #[test]
    fn sparse_equals_dense_under_random_ops(
        init_jobs in 0usize..6,
        init_nodes in 1usize..8,
        ops in proptest::collection::vec(
            (0u8..5, 0usize..16, 0usize..16, 0u32..5),
            1..60,
        ),
    ) {
        let mut m = AllocationMatrix::zeros(init_jobs, init_nodes);
        let mut s = SparseAllocation::zeros(init_jobs, init_nodes);
        assert_equivalent(&s, &m, "initial");
        for (step, &(kind, a, b, g)) in ops.iter().enumerate() {
            let ctx = format!("step {step}: op ({kind}, {a}, {b}, {g})");
            match kind {
                0 => {
                    if m.num_jobs() > 0 {
                        let j = a % m.num_jobs();
                        let n = b % m.num_nodes();
                        m.set(j, n, g);
                        s.set(j, n, g);
                    }
                }
                1 => {
                    if m.num_jobs() > 0 {
                        let j = a % m.num_jobs();
                        // A pseudorandom full row derived from the op
                        // operands: deterministic, hits many patterns.
                        let row: Vec<u32> = (0..m.num_nodes())
                            .map(|n| ((n * (b + 1) + g as usize) % 5) as u32 % 3)
                            .collect();
                        m.copy_row(j, &row);
                        s.set_row_dense(j, &row);
                    }
                }
                2 => {
                    assert_eq!(m.push_job(), s.push_job(), "push index: {ctx}");
                }
                3 => {
                    if m.num_jobs() > 0 {
                        let j = a % m.num_jobs();
                        m.remove_job(j);
                        s.remove_job(j);
                    }
                }
                _ => {
                    let w = 1 + b % 10;
                    m.resize_nodes(w);
                    s.resize_nodes(w);
                }
            }
            assert_equivalent(&s, &m, &ctx);
        }
        // Round-trips through the other representation are lossless.
        assert_eq!(SparseAllocation::from_dense(&m), s, "from_dense round-trip");
        assert_eq!(s.to_dense(), m, "to_dense round-trip");
    }

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
