//! The allocation matrix `A` (Sec. 4.2).
//!
//! Row `A_j` is job `j`'s placement vector; `A[j][n]` is the number of
//! GPUs from node `n` allocated to job `j`. The genetic algorithm in
//! `pollux-sched` mutates, crosses over, and repairs these matrices;
//! this module provides the representation and the structural queries.

use crate::ids::NodeId;
use crate::spec::ClusterSpec;
use pollux_models::PlacementShape;

/// A jobs × nodes GPU allocation matrix.
///
/// Cells live in one row-major `Vec<u32>` (`cells[j * num_nodes + n]`),
/// so a row is a contiguous slice and copying one is a `memcpy`.
///
/// # Examples
///
/// ```
/// use pollux_cluster::{AllocationMatrix, ClusterSpec};
///
/// let spec = ClusterSpec::homogeneous(2, 4).unwrap();
/// let mut a = AllocationMatrix::zeros(2, 2);
/// a.set(0, 0, 2); // job 0: 2 GPUs on node 0
/// a.set(1, 0, 1); // job 1: 1 GPU on node 0, 2 on node 1 (distributed)
/// a.set(1, 1, 2);
/// assert!(a.is_feasible(&spec));
/// assert!(!a.is_distributed(0));
/// assert!(a.is_distributed(1));
/// let shape = a.shape_of(1).unwrap();
/// assert_eq!((shape.gpus, shape.nodes), (3, 2));
/// ```
#[derive(Default, PartialEq, Eq)]
pub struct AllocationMatrix {
    num_jobs: usize,
    num_nodes: usize,
    cells: Vec<u32>,
}

/// `clone_from` copies into the existing cell buffer, so overwriting a
/// matrix with one of no more cells allocates nothing.
impl Clone for AllocationMatrix {
    fn clone(&self) -> Self {
        Self {
            num_jobs: self.num_jobs,
            num_nodes: self.num_nodes,
            cells: self.cells.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.num_jobs = source.num_jobs;
        self.num_nodes = source.num_nodes;
        self.cells.clone_from(&source.cells);
    }
}

/// The text `#[derive(Debug)]` rendered for the former
/// `{ num_nodes, rows: Vec<Vec<u32>> }` layout, byte for byte — by
/// deriving it on a view of that shape: `SimResult::canonical_text`
/// is `Debug` text, and every golden digest covers this rendering.
impl std::fmt::Debug for AllocationMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        #[derive(Debug)]
        #[allow(dead_code)] // read by the derive only
        struct AllocationMatrix<'a> {
            num_nodes: usize,
            rows: Vec<&'a [u32]>,
        }
        let rows = self.iter_rows().map(|(_, row)| row).collect();
        let num_nodes = self.num_nodes;
        AllocationMatrix { num_nodes, rows }.fmt(f)
    }
}

impl AllocationMatrix {
    /// An all-zero matrix with `num_jobs` rows and `num_nodes` columns.
    pub fn zeros(num_jobs: usize, num_nodes: usize) -> Self {
        Self {
            num_jobs,
            num_nodes,
            cells: vec![0; num_jobs * num_nodes],
        }
    }

    /// Builds a matrix from explicit rows. Returns `None` when rows
    /// have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<u32>>, num_nodes: usize) -> Option<Self> {
        if rows.iter().any(|r| r.len() != num_nodes) {
            None
        } else {
            Some(Self {
                num_jobs: rows.len(),
                num_nodes,
                cells: rows.concat(),
            })
        }
    }

    /// Number of job rows.
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }

    /// Number of node columns.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The cells of row `j`.
    #[inline]
    fn span(&self, j: usize) -> std::ops::Range<usize> {
        assert!(j < self.num_jobs, "row {j} out of {} jobs", self.num_jobs);
        j * self.num_nodes..(j + 1) * self.num_nodes
    }

    /// The placement vector of job row `j`.
    #[inline]
    pub fn row(&self, j: usize) -> &[u32] {
        &self.cells[self.span(j)]
    }

    /// The placement vector of job row `j`, writable. Unlike
    /// [`Self::rows_mut`] it works on a matrix without node columns,
    /// where every row is empty.
    #[inline]
    pub fn row_mut(&mut self, j: usize) -> &mut [u32] {
        let span = self.span(j);
        &mut self.cells[span]
    }

    /// GPUs allocated to job `j` on node `n`.
    #[inline]
    pub fn get(&self, j: usize, n: usize) -> u32 {
        self.row(j)[n]
    }

    /// Sets the GPUs allocated to job `j` on node `n`.
    #[inline]
    pub fn set(&mut self, j: usize, n: usize, gpus: u32) {
        self.row_mut(j)[n] = gpus;
    }

    /// Overwrites the whole row for job `j`.
    ///
    /// # Panics
    ///
    /// Panics when `row.len() != num_nodes`.
    pub fn copy_row(&mut self, j: usize, row: &[u32]) {
        assert_eq!(row.len(), self.num_nodes, "row width mismatch");
        self.row_mut(j).copy_from_slice(row);
    }

    /// Zeroes the whole row for job `j`.
    pub fn clear_row(&mut self, j: usize) {
        self.row_mut(j).fill(0);
    }

    /// Appends an empty row for a newly submitted job and returns its
    /// row index.
    pub fn push_job(&mut self) -> usize {
        self.num_jobs += 1;
        self.cells.resize(self.num_jobs * self.num_nodes, 0);
        self.num_jobs - 1
    }

    /// Removes the row for a finished job.
    pub fn remove_job(&mut self, j: usize) {
        self.cells.drain(self.span(j));
        self.num_jobs -= 1;
    }

    /// Resizes the node dimension (cloud auto-scaling). Shrinking
    /// drops allocations on removed nodes.
    pub fn resize_nodes(&mut self, num_nodes: usize) {
        let kept = self.num_nodes.min(num_nodes);
        let mut cells = vec![0; self.num_jobs * num_nodes];
        for j in 0..self.num_jobs {
            cells[j * num_nodes..j * num_nodes + kept].copy_from_slice(&self.row(j)[..kept]);
        }
        self.cells = cells;
        self.num_nodes = num_nodes;
    }

    /// Total GPUs allocated to job `j`, `K = Σ_n A[j][n]`.
    pub fn gpus_of(&self, j: usize) -> u32 {
        self.row(j).iter().sum()
    }

    /// Number of distinct nodes occupied by job `j`.
    pub fn nodes_of(&self, j: usize) -> u32 {
        self.shape_of(j).map_or(0, |shape| shape.nodes)
    }

    /// The `(K, N)` placement shape of job `j`, or `None` when the job
    /// holds no GPUs.
    pub fn shape_of(&self, j: usize) -> Option<PlacementShape> {
        row_shape(self.row(j))
    }

    /// True when job `j` spans more than one node.
    pub fn is_distributed(&self, j: usize) -> bool {
        self.nodes_of(j) > 1
    }

    /// Total GPUs allocated on node `n` across all jobs, saturating at
    /// `u32::MAX` (a column of hostile cells can sum past it).
    pub fn gpus_used_on(&self, n: usize) -> u32 {
        assert!(n < self.num_nodes, "node {n} out of {}", self.num_nodes);
        let column = self.cells.iter().skip(n).step_by(self.num_nodes);
        u32::try_from(column.map(|&g| u64::from(g)).sum::<u64>()).unwrap_or(u32::MAX)
    }

    /// Total GPUs allocated across the whole matrix.
    pub fn total_gpus_used(&self) -> u32 {
        self.cells.iter().sum()
    }

    /// Node columns whose usage exceeds the cluster capacity. Columns
    /// are summed in `u64`, so hostile cells cannot wrap one.
    pub fn over_capacity_nodes(&self, spec: &ClusterSpec) -> Vec<NodeId> {
        let mut used = vec![0u64; self.num_nodes];
        for (_, row) in self.iter_rows() {
            used.iter_mut().zip(row).for_each(|(u, &g)| *u += g as u64);
        }
        let nodes = (0..spec.num_nodes() as u32).map(NodeId);
        let over = nodes.zip(used).filter(|&(n, u)| u > spec.gpus_on(n).into());
        over.map(|(n, _)| n).collect()
    }

    /// True when every node is within its GPU capacity and the matrix
    /// width matches the cluster.
    pub fn is_feasible(&self, spec: &ClusterSpec) -> bool {
        self.num_nodes == spec.num_nodes() && self.over_capacity_nodes(spec).is_empty()
    }

    /// Row indices of *distributed* jobs (spanning ≥ 2 nodes) that
    /// occupy node `n` — the quantity the interference-avoidance
    /// constraint bounds by 1 per node (Sec. 4.2.1).
    fn distributed_jobs_on(&self, n: usize) -> Vec<usize> {
        (0..self.num_jobs)
            .filter(|&j| self.get(j, n) > 0 && self.is_distributed(j))
            .collect()
    }

    /// True when no node hosts two or more distributed jobs.
    pub fn satisfies_interference_avoidance(&self) -> bool {
        (0..self.num_nodes).all(|n| self.distributed_jobs_on(n).len() <= 1)
    }

    /// Iterates over `(job_row, placement)` for all rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.num_jobs).map(|j| (j, self.row(j)))
    }

    /// Every row at once as disjoint mutable slices, in row order, so
    /// that several writers can each fill their own rows of one matrix
    /// at the same time.
    ///
    /// # Panics
    ///
    /// Panics on a matrix without node columns: it has no cells to
    /// split into rows.
    pub fn rows_mut(&mut self) -> impl ExactSizeIterator<Item = &mut [u32]> + '_ {
        self.cells.chunks_exact_mut(self.num_nodes)
    }
}

/// The `(K, N)` shape of one placement row — its GPUs and the nodes
/// holding any — or `None` for an empty row. The one row kernel: a fold
/// with no early exit, so the compiler vectorizes it, where an `any` or
/// a `filter().count()` would scan a cell at a time.
#[inline]
pub fn row_shape(row: &[u32]) -> Option<PlacementShape> {
    let add = |(gpus, nodes): (u32, u32), &g: &u32| (gpus + g, nodes + u32::from(g > 0));
    let (gpus, nodes) = row.iter().fold((0, 0), add);
    PlacementShape::new(gpus, nodes)
}

/// True when `row` holds no GPU: [`row_shape`]'s branch-free fold, for
/// callers that need only whether a job runs.
#[inline]
pub fn row_is_empty(row: &[u32]) -> bool {
    row.iter().fold(0, |any, &g| any | g) == 0
}

impl std::fmt::Display for AllocationMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (j, row) in self.iter_rows() {
            write!(f, "job {j:>3}: ")?;
            for g in row {
                write!(f, "{g:>3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::homogeneous(4, 4).unwrap()
    }

    #[test]
    fn zeros_is_feasible_and_empty() {
        let a = AllocationMatrix::zeros(3, 4);
        assert_eq!(a.num_jobs(), 3);
        assert_eq!(a.total_gpus_used(), 0);
        assert!(a.is_feasible(&spec()));
        assert_eq!(a.shape_of(0), None);
    }

    #[test]
    fn from_rows_validates_width() {
        assert!(AllocationMatrix::from_rows(vec![vec![1, 2]], 2).is_some());
        assert!(AllocationMatrix::from_rows(vec![vec![1, 2, 3]], 2).is_none());
    }

    #[test]
    fn shape_reduction() {
        let mut a = AllocationMatrix::zeros(2, 4);
        a.set(0, 0, 2);
        a.set(0, 2, 1);
        assert_eq!(a.shape_of(0), PlacementShape::new(3, 2));
        assert!(a.is_distributed(0));
        a.set(1, 3, 4);
        assert_eq!(a.shape_of(1), PlacementShape::new(4, 1));
        assert!(!a.is_distributed(1));
    }

    #[test]
    fn capacity_checks() {
        let mut a = AllocationMatrix::zeros(2, 4);
        a.set(0, 0, 3);
        a.set(1, 0, 2);
        // Node 0 has 5 > 4 GPUs allocated.
        assert!(!a.is_feasible(&spec()));
        assert_eq!(a.over_capacity_nodes(&spec()), vec![NodeId(0)]);
        a.set(1, 0, 1);
        assert!(a.is_feasible(&spec()));
        assert!(a.over_capacity_nodes(&spec()).is_empty());
    }

    #[test]
    fn interference_detection() {
        let mut a = AllocationMatrix::zeros(3, 4);
        // Job 0 distributed across nodes 0-1; job 1 distributed across 1-2.
        a.set(0, 0, 2);
        a.set(0, 1, 2);
        a.set(1, 1, 1);
        a.set(1, 2, 1);
        // Job 2 co-located on node 1 — does not count as interference.
        a.set(2, 1, 1);
        assert!(!a.satisfies_interference_avoidance());
        assert_eq!(a.distributed_jobs_on(1), vec![0, 1]);
        // Moving job 1 entirely to node 2 resolves the conflict.
        a.set(1, 1, 0);
        a.set(1, 2, 2);
        assert!(a.satisfies_interference_avoidance());
    }

    #[test]
    fn push_and_remove_jobs() {
        let mut a = AllocationMatrix::zeros(1, 2);
        let j = a.push_job();
        assert_eq!(j, 1);
        a.set(j, 1, 2);
        assert_eq!(a.gpus_of(1), 2);
        a.remove_job(0);
        assert_eq!(a.num_jobs(), 1);
        assert_eq!(a.gpus_of(0), 2);
    }

    #[test]
    fn resize_nodes_preserves_and_drops() {
        let mut a = AllocationMatrix::zeros(1, 2);
        a.set(0, 1, 3);
        a.resize_nodes(4);
        assert_eq!(a.num_nodes(), 4);
        assert_eq!(a.gpus_of(0), 3);
        a.resize_nodes(1);
        assert_eq!(a.gpus_of(0), 0);
    }

    #[test]
    fn rows_mut_splits_into_disjoint_rows() {
        let mut a = AllocationMatrix::zeros(3, 2);
        let mut rows: Vec<&mut [u32]> = a.rows_mut().collect();
        assert_eq!(rows.len(), 3);
        // Held together and written out of order.
        rows[2][1] = 5;
        rows[0][0] = 7;
        assert_eq!(a.row(0), &[7, 0]);
        assert_eq!(a.row(1), &[0, 0]);
        assert_eq!(a.row(2), &[0, 5]);
        assert_eq!(AllocationMatrix::zeros(0, 2).rows_mut().len(), 0);
    }

    #[test]
    fn display_renders_rows() {
        let mut a = AllocationMatrix::zeros(1, 2);
        a.set(0, 1, 3);
        let s = a.to_string();
        assert!(s.contains("job   0:"));
        assert!(s.contains('3'));
    }

    proptest! {
        #[test]
        fn usage_sums_are_consistent(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..5, 4), 1..6)
        ) {
            let a = AllocationMatrix::from_rows(rows.clone(), 4).unwrap();
            // Column sums equal row sums in total.
            let by_cols: u32 = (0..4).map(|n| a.gpus_used_on(n)).sum();
            let by_rows: u32 = (0..rows.len()).map(|j| a.gpus_of(j)).sum();
            prop_assert_eq!(by_cols, by_rows);
            prop_assert_eq!(a.total_gpus_used(), by_cols);
            // Shapes are consistent with row contents.
            for j in 0..a.num_jobs() {
                match a.shape_of(j) {
                    Some(s) => {
                        prop_assert_eq!(s.gpus, a.gpus_of(j));
                        prop_assert_eq!(s.nodes, a.nodes_of(j));
                        prop_assert!(s.nodes <= s.gpus);
                    }
                    None => prop_assert_eq!(a.gpus_of(j), 0),
                }
            }
        }

        #[test]
        fn the_row_kernel_matches_a_sum_and_a_count(
            row in proptest::collection::vec((0u32..40).prop_map(|g| g.saturating_sub(24)), 0..=300)
        ) {
            // Most cells empty, the rest 1-16 GPUs: a placement row.
            let gpus = row.iter().sum();
            let nodes = row.iter().filter(|&&g| g > 0).count() as u32;
            prop_assert_eq!(row_shape(&row), PlacementShape::new(gpus, nodes));
            prop_assert_eq!(row_is_empty(&row), row.iter().all(|&g| g == 0));
        }

        #[test]
        fn over_capacity_columns_are_judged_by_their_exact_sums(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..8, 0u32..4).prop_map(|(g, huge)| {
                    // One cell in four is near 2³¹, so columns wrap a u32.
                    if huge == 0 { (1 << 31) - 3 + g } else { g }
                }), 3), 1..6)
        ) {
            let a = AllocationMatrix::from_rows(rows.clone(), 3).unwrap();
            let spec = ClusterSpec::homogeneous(3, 4).unwrap();
            let exact: Vec<NodeId> = (0..3)
                .filter(|&n| rows.iter().map(|r| u64::from(r[n])).sum::<u64>() > 4)
                .map(|n| NodeId(n as u32))
                .collect();
            prop_assert_eq!(a.over_capacity_nodes(&spec), exact);
        }

        #[test]
        fn feasibility_matches_over_capacity_list(
            rows in proptest::collection::vec(
                proptest::collection::vec(0u32..7, 4), 1..6)
        ) {
            let a = AllocationMatrix::from_rows(rows, 4).unwrap();
            let spec = ClusterSpec::homogeneous(4, 4).unwrap();
            prop_assert_eq!(a.is_feasible(&spec), a.over_capacity_nodes(&spec).is_empty());
        }

        #[test]
        fn capacity_clamped_set_sequences_stay_feasible(
            ops in proptest::collection::vec(
                (0usize..5, 0usize..4, 0u32..9), 1..40)
        ) {
            // A writer that clamps each `set` to the node's remaining
            // capacity can never drive any node over capacity — the
            // invariant the GA's repair step relies on.
            let spec = ClusterSpec::homogeneous(4, 4).unwrap();
            let mut a = AllocationMatrix::zeros(5, 4);
            for &(j, n, g) in &ops {
                let cap = spec.gpus_on(NodeId(n as u32));
                let others = a.gpus_used_on(n) - a.get(j, n);
                a.set(j, n, g.min(cap - others));
                prop_assert!(a.is_feasible(&spec));
                prop_assert!(a.gpus_used_on(n) <= cap);
            }
            // Usage stays consistent across the row/column views
            // after an arbitrary op sequence.
            let by_cols: u32 = (0..4).map(|n| a.gpus_used_on(n)).sum();
            let by_rows: u32 = (0..5).map(|j| a.gpus_of(j)).sum();
            prop_assert_eq!(by_cols, by_rows);
            // Shrinking and re-growing the node dimension drops
            // exactly the allocations on removed nodes.
            let kept: u32 = (0..2).map(|n| a.gpus_used_on(n)).sum();
            a.resize_nodes(2);
            prop_assert_eq!(a.total_gpus_used(), kept);
            a.resize_nodes(4);
            prop_assert_eq!(a.total_gpus_used(), kept);
        }
    }
}
