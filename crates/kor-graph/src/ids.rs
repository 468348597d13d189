//! Integer id newtypes for nodes, edges, and keywords.
//!
//! All ids are `u32`-backed: the paper's graphs top out at 20k nodes, and
//! compact ids keep search labels small (perf-book "Smaller Integers").

use std::fmt;

/// Identifier of a node (location) in a [`crate::Graph`].
///
/// Ids are dense: a graph with `n` nodes uses exactly `NodeId(0..n)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a directed edge in a [`crate::Graph`].
///
/// Edge ids index the forward CSR arrays; they are assigned in
/// source-major order when the graph is built.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Identifier of an interned keyword in a [`crate::Vocab`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeywordId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl KeywordId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Debug for KeywordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for KeywordId {
    fn from(v: u32) -> Self {
        KeywordId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_index() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(EdgeId(9).index(), 9);
        assert_eq!(KeywordId(3).index(), 3);
    }

    #[test]
    fn debug_formats_match_paper_notation() {
        assert_eq!(format!("{:?}", NodeId(0)), "v0");
        assert_eq!(format!("{}", NodeId(12)), "v12");
        assert_eq!(format!("{:?}", KeywordId(1)), "t1");
        assert_eq!(format!("{:?}", EdgeId(4)), "e4");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(KeywordId(0) < KeywordId(5));
    }
}
