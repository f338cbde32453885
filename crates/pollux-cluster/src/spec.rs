//! Node inventory: how many GPUs each node offers.

use crate::ids::NodeId;

/// Specification of a single node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Number of GPUs installed on this node (≥ 1).
    pub gpus: u32,
}

/// The cluster's node inventory.
///
/// The paper's testbed is 16 nodes × 4 GPUs (AWS g4dn.12xlarge); the
/// simulator also uses 4-GPU nodes. Heterogeneous capacities are
/// supported for the auto-scaling experiments, where nodes are added
/// and removed dynamically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// Builds a cluster from per-node specs. Returns `None` when the
    /// list is empty or any node has zero GPUs.
    pub fn new(nodes: Vec<NodeSpec>) -> Option<Self> {
        if nodes.is_empty() || nodes.iter().any(|n| n.gpus == 0) {
            None
        } else {
            Some(Self { nodes })
        }
    }

    /// A homogeneous cluster of `num_nodes` nodes with `gpus_per_node`
    /// GPUs each (the common case in the paper's evaluation).
    pub fn homogeneous(num_nodes: u32, gpus_per_node: u32) -> Option<Self> {
        if num_nodes == 0 {
            return None;
        }
        Self::new(vec![
            NodeSpec {
                gpus: gpus_per_node
            };
            num_nodes as usize
        ])
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// GPU capacity of node `n`.
    pub fn gpus_on(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].gpus
    }

    /// Total GPUs across the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.nodes.iter().map(|n| n.gpus).sum()
    }

    /// Iterates over `(NodeId, NodeSpec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeSpec)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &s)| (NodeId(i as u32), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster() {
        let c = ClusterSpec::homogeneous(16, 4).unwrap();
        assert_eq!(c.num_nodes(), 16);
        assert_eq!(c.total_gpus(), 64);
        assert_eq!(c.gpus_on(NodeId(15)), 4);
    }

    #[test]
    fn rejects_degenerate_specs() {
        assert!(ClusterSpec::homogeneous(0, 4).is_none());
        assert!(ClusterSpec::homogeneous(4, 0).is_none());
        assert!(ClusterSpec::new(vec![]).is_none());
        assert!(ClusterSpec::new(vec![NodeSpec { gpus: 0 }]).is_none());
    }

    #[test]
    fn heterogeneous_total() {
        let c = ClusterSpec::new(vec![NodeSpec { gpus: 8 }, NodeSpec { gpus: 2 }]).unwrap();
        assert_eq!(c.total_gpus(), 10);
        assert_eq!(c.gpus_on(NodeId(0)), 8);
        assert_eq!(c.gpus_on(NodeId(1)), 2);
    }

    #[test]
    fn iter_yields_all_nodes() {
        let c = ClusterSpec::homogeneous(3, 4).unwrap();
        let ids: Vec<u32> = c.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
