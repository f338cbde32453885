//! Scheduling topology: racks as a partition of the cluster's nodes.
//!
//! [`Topology`] enumerates the racks, with each rack's member nodes
//! precomputed in ascending order, so a rack-aware optimizer can
//! decompose a datacenter-scale placement problem into independent
//! per-rack subproblems. A single-rack topology is the degenerate case
//! in which that decomposition is exactly the flat search — the
//! golden-digest suites pin this.

use crate::ids::NodeId;

/// A partition of nodes into racks with per-rack member lists.
///
/// Invariants: every node belongs to exactly one rack, rack indices
/// are contiguous from 0, every rack is non-empty, and
/// `nodes_in(r)` is ascending for every rack `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `rack_of[n]` is the rack index of node `n`.
    rack_of: Vec<u32>,
    /// `racks[r]` lists the node indices of rack `r`, ascending.
    racks: Vec<Vec<u32>>,
}

impl Topology {
    /// Builds a topology from an explicit node → rack assignment.
    ///
    /// Returns `None` when the assignment is empty or rack indices are
    /// not contiguous from 0 (every rack in `0..max+1` must own at
    /// least one node).
    pub fn from_rack_of(rack_of: Vec<u32>) -> Option<Self> {
        let num_racks = rack_of.iter().max()? + 1;
        let mut racks = vec![Vec::new(); num_racks as usize];
        for (n, &r) in rack_of.iter().enumerate() {
            racks[r as usize].push(n as u32);
        }
        racks
            .iter()
            .all(|nodes| !nodes.is_empty())
            .then_some(Self { rack_of, racks })
    }

    /// `num_nodes` nodes grouped into consecutive racks of
    /// `nodes_per_rack` (the last rack may be smaller). `None` when
    /// either count is zero.
    pub fn grouped(num_nodes: u32, nodes_per_rack: u32) -> Option<Self> {
        if nodes_per_rack == 0 {
            return None;
        }
        Self::from_rack_of((0..num_nodes).map(|n| n / nodes_per_rack).collect())
    }

    /// The degenerate one-rack topology over `num_nodes` nodes.
    pub fn single_rack(num_nodes: u32) -> Option<Self> {
        Self::grouped(num_nodes, num_nodes)
    }

    /// Number of nodes covered by the topology.
    pub fn num_nodes(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of racks.
    pub fn num_racks(&self) -> u32 {
        self.racks.len() as u32
    }

    /// The rack of node `n`.
    pub fn rack_of(&self, n: NodeId) -> u32 {
        self.rack_of[n.index()]
    }

    /// The nodes of rack `r`, ascending.
    pub fn nodes_in(&self, r: u32) -> &[u32] {
        &self.racks[r as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_partitions_nodes() {
        let t = Topology::grouped(10, 4).unwrap();
        assert_eq!(t.num_nodes(), 10);
        assert_eq!(t.num_racks(), 3);
        assert_eq!(t.nodes_in(0), &[0, 1, 2, 3]);
        assert_eq!(t.nodes_in(1), &[4, 5, 6, 7]);
        assert_eq!(t.nodes_in(2), &[8, 9]);
        let racks = [0, 3, 4, 5, 9].map(|n| t.rack_of(NodeId(n)));
        assert_eq!(racks, [0, 0, 1, 1, 2]);
    }

    #[test]
    fn single_rack_is_degenerate() {
        let t = Topology::single_rack(6).unwrap();
        assert_eq!(t.num_racks(), 1);
        assert_eq!(t.nodes_in(0), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn from_rack_of_handles_interleaved_assignment() {
        let t = Topology::from_rack_of(vec![1, 0, 1, 0]).unwrap();
        assert_eq!(t.nodes_in(0), &[1, 3]);
        assert_eq!(t.nodes_in(1), &[0, 2]);
        assert_eq!(
            Topology::from_rack_of(vec![0, 0, 1, 1]),
            Topology::grouped(4, 2)
        );
    }

    #[test]
    fn rejects_invalid_assignments() {
        assert!(Topology::from_rack_of(vec![]).is_none());
        // Rack 1 missing: indices not contiguous.
        assert!(Topology::from_rack_of(vec![0, 2]).is_none());
        assert!(Topology::from_rack_of(vec![0, 0, 2]).is_none());
        assert!(Topology::grouped(0, 4).is_none());
        assert!(Topology::grouped(4, 0).is_none());
        assert!(Topology::single_rack(0).is_none());
    }

    #[test]
    fn racks_cover_every_node_exactly_once() {
        let t = Topology::grouped(13, 5).unwrap();
        let mut seen = vec![0u32; t.num_nodes()];
        for r in 0..t.num_racks() {
            for &n in t.nodes_in(r) {
                seen[n as usize] += 1;
                assert_eq!(t.rack_of(NodeId(n)), r);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
