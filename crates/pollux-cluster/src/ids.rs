//! Strongly-typed identifiers for jobs and nodes.

/// Identifier of a training job, stable across re-allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Identifier of a physical node (its column in the allocation matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl NodeId {
    /// The column index of this node in an allocation matrix.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(JobId(3).to_string(), "job-3");
        assert_eq!(NodeId(7).to_string(), "node-7");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(JobId(1) < JobId(2));
        let mut s = HashSet::new();
        s.insert(NodeId(0));
        s.insert(NodeId(0));
        assert_eq!(s.len(), 1);
    }
}
