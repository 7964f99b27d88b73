//! Node identifiers.

use std::fmt;

/// Identifier of a node (= process) in the simulated network.
///
/// Node ids are dense `0 .. n-1`. The detection layers map them 1:1 onto
/// `ftscp_vclock::ProcessId`s.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Usable as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// All node ids of an `n`-node network.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n as u32).map(NodeId)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node id exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_basics() {
        assert_eq!(NodeId(4).index(), 4);
        assert_eq!(NodeId::from(4usize), NodeId(4));
        assert_eq!(NodeId(4).to_string(), "N4");
        assert_eq!(NodeId::all(3).count(), 3);
    }
}
