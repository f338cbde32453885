//! Incremental interference index.
//!
//! The paper's interference rule (Sec. 4.2.1 / Fig 9): a *distributed*
//! job (one spanning ≥ 2 nodes) is slowed by a fixed factor whenever
//! it shares any node with another distributed job. Recomputing
//! eligibility by rescanning every active placement is O(active ·
//! nodes), which dominates at datacenter scale where placements are
//! sparse.
//!
//! [`InterferenceIndex`] maintains the two facts the rule needs — the
//! occupant set of every node and each job's occupied-node count —
//! updated incrementally from the same placement deltas the engine
//! already applies ([`apply`](InterferenceIndex::apply) on a
//! reallocation, [`clear_job`](InterferenceIndex::clear_job) on
//! finish, [`rebuild`](InterferenceIndex::rebuild) after a cluster
//! resize). Query cost is O(nodes + occupancy), paid once per chunk
//! that follows a mutation, and update cost O(changed cells) per
//! round, independent of job count.
//!
//! Invalidation rules (who must call what):
//! - job spawned → [`push_job`](InterferenceIndex::push_job) (jobs
//!   enter with an empty placement);
//! - placement row replaced → [`apply`](InterferenceIndex::apply)
//!   with the old and new rows, *before* the row is overwritten;
//! - job finished → [`clear_job`](InterferenceIndex::clear_job) with
//!   the final row, *before* the row is zeroed;
//! - cluster resized (placements truncated/zeroed wholesale) →
//!   [`rebuild`](InterferenceIndex::rebuild) from all rows.
//!
//! The `interference_equiv` proptest suite pins this index against the
//! full rescan over random reallocation streams; a debug assertion in
//! the engine cross-checks every query in debug builds.

/// Per-node occupant sets plus per-job occupied-node counts.
#[derive(Debug, Clone, Default)]
pub struct InterferenceIndex {
    /// `occupants[n]` — indices of jobs holding ≥ 1 GPU on node `n`,
    /// ascending.
    occupants: Vec<Vec<u32>>,
    /// `nodes_held[j]` — number of nodes on which job `j` holds GPUs.
    nodes_held: Vec<u32>,
}

impl InterferenceIndex {
    /// An empty index over `num_nodes` nodes and no jobs.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            occupants: vec![Vec::new(); num_nodes],
            nodes_held: Vec::new(),
        }
    }

    /// Registers a new job (with an empty placement); job indices are
    /// assigned densely in call order and never reused.
    pub fn push_job(&mut self) {
        self.nodes_held.push(0);
    }

    /// Number of tracked jobs.
    pub fn num_jobs(&self) -> usize {
        self.nodes_held.len()
    }

    /// Number of nodes job `j` currently occupies.
    pub fn nodes_held(&self, j: usize) -> u32 {
        self.nodes_held[j]
    }

    /// Applies a placement change for job `j`: `old` is the row in
    /// effect (the engine's authoritative copy, read before it is
    /// overwritten), `new` the row being applied. Rows may differ in
    /// width; missing cells count as zero. O(changed cells occupied on
    /// either side) plus the occupant-set edits.
    pub fn apply(&mut self, j: usize, old: &[u32], new: &[u32]) {
        let len = old.len().max(new.len());
        if len > self.occupants.len() {
            self.occupants.resize(len, Vec::new());
        }
        for n in 0..len {
            let was = old.get(n).copied().unwrap_or(0) > 0;
            let is = new.get(n).copied().unwrap_or(0) > 0;
            if was == is {
                continue;
            }
            if is {
                self.insert(n, j);
                self.nodes_held[j] += 1;
            } else {
                self.remove(n, j);
                self.nodes_held[j] -= 1;
            }
        }
    }

    /// Removes job `j` from every node of `row` (its final placement,
    /// read before the engine zeroes it) — the finish-path fast form
    /// of `apply(j, row, &[])`.
    pub fn clear_job(&mut self, j: usize, row: &[u32]) {
        for (n, &g) in row.iter().enumerate() {
            if g > 0 {
                self.remove(n, j);
            }
        }
        self.nodes_held[j] = 0;
    }

    /// Rebuilds the index from scratch over `num_nodes` nodes and the
    /// given placement rows (one per job, in job-index order). Used
    /// after bulk placement edits — a cluster resize truncates and
    /// zeroes rows without going through `apply`.
    pub fn rebuild<'a, I>(&mut self, num_nodes: usize, rows: I)
    where
        I: IntoIterator<Item = &'a [u32]>,
    {
        self.occupants.clear();
        self.occupants.resize(num_nodes, Vec::new());
        self.nodes_held.clear();
        for (j, row) in rows.into_iter().enumerate() {
            let mut held = 0;
            for (n, &g) in row.iter().enumerate() {
                if g > 0 && n < num_nodes {
                    self.occupants[n].push(j as u32);
                    held += 1;
                }
            }
            self.nodes_held.push(held);
        }
    }

    /// Writes the interference slowdown of every job into `out`
    /// (already sized to the job count and zeroed): a job gets
    /// `factor` iff it is distributed (≥ 2 nodes held) and some node
    /// it occupies hosts ≥ 2 distributed jobs. Produces exactly the
    /// values of the engine's full placement rescan.
    pub fn mark_slowdowns(&self, factor: f64, out: &mut [f64]) {
        for occ in &self.occupants {
            let distributed = |j: &&u32| self.nodes_held[**j as usize] > 1;
            if occ.iter().filter(distributed).take(2).count() > 1 {
                for &j in occ.iter().filter(distributed) {
                    out[j as usize] = factor;
                }
            }
        }
    }

    /// The jobs sharing at least one node with job `j`, ascending and
    /// deduplicated. O(occupancy of j's nodes); used by the round
    /// audit to report interference co-residents, never by the
    /// scheduling hot path.
    pub fn co_residents(&self, j: usize) -> Vec<u32> {
        let j = j as u32;
        let mut out: Vec<u32> = self
            .occupants
            .iter()
            .filter(|occ| occ.binary_search(&j).is_ok())
            .flat_map(|occ| occ.iter().copied().filter(|&o| o != j))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn insert(&mut self, n: usize, j: usize) {
        let occ = &mut self.occupants[n];
        let j = j as u32;
        if let Err(i) = occ.binary_search(&j) {
            occ.insert(i, j);
        }
    }

    fn remove(&mut self, n: usize, j: usize) {
        let occ = &mut self.occupants[n];
        if let Ok(i) = occ.binary_search(&(j as u32)) {
            occ.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slowdowns(ix: &InterferenceIndex, factor: f64) -> Vec<f64> {
        let mut out = vec![0.0; ix.num_jobs()];
        ix.mark_slowdowns(factor, &mut out);
        out
    }

    #[test]
    fn two_distributed_jobs_sharing_a_node_interfere() {
        let mut ix = InterferenceIndex::new(3);
        ix.push_job();
        ix.push_job();
        ix.push_job();
        ix.apply(0, &[0, 0, 0], &[1, 1, 0]); // distributed on {0,1}
        ix.apply(1, &[0, 0, 0], &[0, 1, 1]); // distributed on {1,2}
        ix.apply(2, &[0, 0, 0], &[2, 0, 0]); // colocated on {0}
        assert_eq!(slowdowns(&ix, 0.3), vec![0.3, 0.3, 0.0]);
    }

    #[test]
    fn colocated_jobs_never_interfere() {
        let mut ix = InterferenceIndex::new(2);
        ix.push_job();
        ix.push_job();
        ix.apply(0, &[0, 0], &[4, 0]);
        ix.apply(1, &[0, 0], &[4, 0]);
        assert_eq!(slowdowns(&ix, 0.3), vec![0.0, 0.0]);
    }

    #[test]
    fn clearing_a_job_removes_its_interference() {
        let mut ix = InterferenceIndex::new(2);
        ix.push_job();
        ix.push_job();
        ix.apply(0, &[0, 0], &[1, 1]);
        ix.apply(1, &[0, 0], &[1, 1]);
        assert_eq!(slowdowns(&ix, 0.5), vec![0.5, 0.5]);
        ix.clear_job(1, &[1, 1]);
        assert_eq!(slowdowns(&ix, 0.5), vec![0.0, 0.0]);
        assert_eq!(ix.nodes_held(1), 0);
    }

    #[test]
    fn apply_handles_width_mismatch_as_zero_padding() {
        let mut ix = InterferenceIndex::new(2);
        ix.push_job();
        ix.apply(0, &[], &[1, 1]);
        assert_eq!(ix.nodes_held(0), 2);
        ix.apply(0, &[1, 1], &[2]);
        assert_eq!(ix.nodes_held(0), 1);
    }

    #[test]
    fn co_residents_lists_node_sharers_once() {
        let mut ix = InterferenceIndex::new(3);
        for _ in 0..3 {
            ix.push_job();
        }
        ix.apply(0, &[0, 0, 0], &[1, 1, 0]);
        ix.apply(1, &[0, 0, 0], &[2, 2, 0]); // shares nodes 0 AND 1 with job 0
        ix.apply(2, &[0, 0, 0], &[0, 0, 4]); // alone on node 2
        assert_eq!(ix.co_residents(0), vec![1]);
        assert_eq!(ix.co_residents(1), vec![0]);
        assert_eq!(ix.co_residents(2), Vec::<u32>::new());
    }

    #[test]
    fn rebuild_matches_incremental_state() {
        let rows: Vec<Vec<u32>> = vec![vec![1, 1, 0], vec![0, 2, 1], vec![0, 0, 0]];
        let mut incremental = InterferenceIndex::new(3);
        for row in &rows {
            incremental.push_job();
            let j = incremental.num_jobs() - 1;
            incremental.apply(j, &[0, 0, 0], row);
        }
        let mut rebuilt = InterferenceIndex::new(3);
        rebuilt.rebuild(3, rows.iter().map(|r| r.as_slice()));
        assert_eq!(slowdowns(&incremental, 0.3), slowdowns(&rebuilt, 0.3),);
        assert_eq!(incremental.nodes_held(0), rebuilt.nodes_held(0));
    }
}
