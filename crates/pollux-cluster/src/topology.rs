//! Scheduling topology: racks of consecutive nodes.
//!
//! [`Topology`] groups the cluster's nodes into racks of a fixed
//! width, so a rack-aware optimizer can decompose a datacenter-scale
//! placement problem into independent per-rack subproblems. A
//! single-rack topology is the degenerate case in which that
//! decomposition is exactly the flat search — the golden-digest suites
//! pin this.

use crate::ids::NodeId;
use std::ops::Range;

/// `num_nodes` nodes grouped into consecutive racks of
/// `nodes_per_rack` nodes; the last rack may be smaller.
///
/// Invariants: both counts are positive and `nodes_per_rack <=
/// num_nodes`, so two topologies of the same racks compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    num_nodes: u32,
    nodes_per_rack: u32,
}

impl Topology {
    /// `num_nodes` nodes grouped into consecutive racks of
    /// `nodes_per_rack` (the last rack may be smaller; a width past the
    /// node count is one rack). `None` when either count is zero.
    pub fn grouped(num_nodes: u32, nodes_per_rack: u32) -> Option<Self> {
        (num_nodes > 0 && nodes_per_rack > 0).then_some(Self {
            num_nodes,
            nodes_per_rack: nodes_per_rack.min(num_nodes),
        })
    }

    /// The degenerate one-rack topology over `num_nodes` nodes.
    pub fn single_rack(num_nodes: u32) -> Option<Self> {
        Self::grouped(num_nodes, num_nodes)
    }

    /// Number of nodes covered by the topology.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of racks.
    pub fn num_racks(&self) -> u32 {
        self.num_nodes.div_ceil(self.nodes_per_rack)
    }

    /// The rack of node `n`.
    pub fn rack_of(&self, n: NodeId) -> u32 {
        n.0 / self.nodes_per_rack
    }

    /// The nodes of rack `r`, ascending.
    pub fn nodes_in(&self, r: u32) -> Range<u32> {
        let start = r * self.nodes_per_rack;
        start..(start + self.nodes_per_rack).min(self.num_nodes)
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
        assert_eq!(t.nodes_in(0), 0..4);
        assert_eq!(t.nodes_in(1), 4..8);
        assert_eq!(t.nodes_in(2), 8..10);
        let racks = [0, 3, 4, 5, 9].map(|n| t.rack_of(NodeId(n)));
        assert_eq!(racks, [0, 0, 1, 1, 2]);
    }

    #[test]
    fn single_rack_is_degenerate() {
        let t = Topology::single_rack(6).unwrap();
        assert_eq!(t.num_racks(), 1);
        assert_eq!(t.nodes_in(0), 0..6);
        // A width past the node count is the same one rack.
        assert_eq!(Topology::grouped(8, 16), Topology::grouped(8, 8));
    }

    #[test]
    fn rejects_invalid_assignments() {
        assert!(Topology::grouped(0, 4).is_none());
        assert!(Topology::grouped(4, 0).is_none());
        assert!(Topology::single_rack(0).is_none());
    }

    #[test]
    fn racks_cover_every_node_exactly_once() {
        let t = Topology::grouped(13, 5).unwrap();
        let mut seen = vec![0u32; t.num_nodes()];
        for r in 0..t.num_racks() {
            for n in t.nodes_in(r) {
                seen[n as usize] += 1;
                assert_eq!(t.rack_of(NodeId(n)), r);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
