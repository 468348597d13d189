//! Incremental, validating graph construction.

use std::collections::HashSet;

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, KeywordId, NodeId};
use crate::keyword::{KeywordSet, Vocab};

/// Builder for [`Graph`].
///
/// Nodes are added with their keyword sets (interned into a shared
/// [`Vocab`]) and optional planar positions; edges carry the paper's two
/// attributes (objective value, budget value) and are validated eagerly.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    vocab: Vocab,
    node_keywords: Vec<Vec<KeywordId>>,
    positions: Vec<(f64, f64)>,
    has_positions: bool,
    edges: Vec<RawEdge>,
    edge_set: HashSet<(u32, u32)>,
}

#[derive(Debug, Clone, Copy)]
struct RawEdge {
    from: NodeId,
    to: NodeId,
    objective: f64,
    budget: f64,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            vocab: Vocab::new(),
            node_keywords: Vec::with_capacity(nodes),
            positions: Vec::with_capacity(nodes),
            has_positions: false,
            edges: Vec::with_capacity(edges),
            edge_set: HashSet::with_capacity(edges),
        }
    }

    /// Adds a node described by textual keywords, returning its id.
    pub fn add_node<I, S>(&mut self, keywords: I) -> NodeId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let ids = keywords
            .into_iter()
            .map(|s| self.vocab.intern(s.as_ref()))
            .collect();
        self.push_node(ids, (0.0, 0.0))
    }

    /// Adds a node with textual keywords and a planar `(x, y)` position
    /// (kilometres in the paper's datasets).
    pub fn add_node_at<I, S>(&mut self, keywords: I, x: f64, y: f64) -> NodeId
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let ids = keywords
            .into_iter()
            .map(|s| self.vocab.intern(s.as_ref()))
            .collect();
        self.has_positions = true;
        self.push_node(ids, (x, y))
    }

    /// Adds a node whose keywords are already interned ids.
    pub fn add_node_ids(&mut self, keywords: Vec<KeywordId>) -> NodeId {
        self.push_node(keywords, (0.0, 0.0))
    }

    /// Adds a node with pre-interned keyword ids and a position.
    pub fn add_node_ids_at(&mut self, keywords: Vec<KeywordId>, x: f64, y: f64) -> NodeId {
        self.has_positions = true;
        self.push_node(keywords, (x, y))
    }

    fn push_node(&mut self, ids: Vec<KeywordId>, pos: (f64, f64)) -> NodeId {
        let id = NodeId(self.node_keywords.len() as u32);
        self.node_keywords.push(ids);
        self.positions.push(pos);
        id
    }

    /// Mutable access to the vocabulary, e.g. to pre-intern a tag model.
    pub fn vocab_mut(&mut self) -> &mut Vocab {
        &mut self.vocab
    }

    /// Read access to the vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.node_keywords.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the directed edge `from → to` has been added.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edge_set.contains(&(from.0, to.0))
    }

    /// Adds the directed edge `from → to` with objective value `objective`
    /// and budget value `budget` (Definition 3 attributes).
    ///
    /// # Errors
    ///
    /// Rejects unknown endpoints, self-loops, duplicate edges, and
    /// non-finite or non-positive weights (see [`GraphError`]).
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        objective: f64,
        budget: f64,
    ) -> Result<EdgeId, GraphError> {
        let n = self.node_keywords.len() as u32;
        if from.0 >= n {
            return Err(GraphError::UnknownNode(from));
        }
        if to.0 >= n {
            return Err(GraphError::UnknownNode(to));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        for (attribute, value) in [("objective", objective), ("budget", budget)] {
            if !value.is_finite() || value <= 0.0 {
                return Err(GraphError::InvalidWeight {
                    from,
                    to,
                    attribute,
                    value,
                });
            }
        }
        if !self.edge_set.insert((from.0, to.0)) {
            return Err(GraphError::DuplicateEdge { from, to });
        }
        if self.edges.len() >= u32::MAX as usize {
            return Err(GraphError::TooLarge);
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(RawEdge {
            from,
            to,
            objective,
            budget,
        });
        Ok(id)
    }

    /// Adds edges in both directions with the same weights (convenience
    /// for undirected inputs such as road networks).
    pub fn add_bidirectional(
        &mut self,
        a: NodeId,
        b: NodeId,
        objective: f64,
        budget: f64,
    ) -> Result<(EdgeId, EdgeId), GraphError> {
        let e1 = self.add_edge(a, b, objective, budget)?;
        let e2 = self.add_edge(b, a, objective, budget)?;
        Ok((e1, e2))
    }

    /// Finalizes the graph: sorts edges into forward CSR form and hands
    /// it to [`Graph::from_csr_parts`], which derives the backward CSR and
    /// weight extrema.
    ///
    /// # Errors
    ///
    /// [`GraphError::TooLarge`] past `u32::MAX` nodes, and
    /// [`GraphError::InvalidCsr`] for a keyword id (from
    /// [`Self::add_node_ids`]) outside the vocabulary.
    pub fn build(self) -> Result<Graph, GraphError> {
        if self.node_keywords.len() >= u32::MAX as usize {
            return Err(GraphError::TooLarge);
        }
        let n = self.node_keywords.len();
        let m = self.edges.len();

        // Forward CSR via counting sort on the source node.
        let mut out_offsets = vec![0u32; n + 1];
        for e in &self.edges {
            out_offsets[e.from.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut cursor = out_offsets.clone();
        let mut out_targets = vec![NodeId(0); m];
        let mut out_objective = vec![0.0f64; m];
        let mut out_budget = vec![0.0f64; m];
        for e in &self.edges {
            let slot = cursor[e.from.index()] as usize;
            cursor[e.from.index()] += 1;
            out_targets[slot] = e.to;
            out_objective[slot] = e.objective;
            out_budget[slot] = e.budget;
        }

        let keywords = self
            .node_keywords
            .into_iter()
            .map(KeywordSet::new)
            .collect();
        Graph::from_csr_parts(
            out_offsets,
            out_targets,
            out_objective,
            out_budget,
            keywords,
            self.has_positions.then_some(self.positions),
            self.vocab,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_endpoints() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        assert_eq!(
            b.add_edge(v0, NodeId(5), 1.0, 1.0),
            Err(GraphError::UnknownNode(NodeId(5)))
        );
        assert_eq!(
            b.add_edge(NodeId(9), v0, 1.0, 1.0),
            Err(GraphError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        let v1 = b.add_node(["b"]);
        assert_eq!(b.add_edge(v0, v0, 1.0, 1.0), Err(GraphError::SelfLoop(v0)));
        b.add_edge(v0, v1, 1.0, 1.0).unwrap();
        assert_eq!(
            b.add_edge(v0, v1, 2.0, 2.0),
            Err(GraphError::DuplicateEdge { from: v0, to: v1 })
        );
        assert!(b.has_edge(v0, v1));
        assert!(!b.has_edge(v1, v0));
    }

    #[test]
    fn rejects_bad_weights() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        let v1 = b.add_node(["b"]);
        for (o, bu) in [
            (0.0, 1.0),
            (-1.0, 1.0),
            (f64::NAN, 1.0),
            (1.0, 0.0),
            (1.0, f64::INFINITY),
        ] {
            assert!(b.add_edge(v0, v1, o, bu).is_err(), "o={o} b={bu}");
        }
    }

    #[test]
    fn builds_csr_in_both_directions() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        let v1 = b.add_node(["b"]);
        let v2 = b.add_node(["c"]);
        b.add_edge(v0, v1, 1.0, 2.0).unwrap();
        b.add_edge(v0, v2, 3.0, 4.0).unwrap();
        b.add_edge(v2, v1, 5.0, 6.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let outs: Vec<_> = g.out_edges(v0).map(|e| (e.node, e.objective)).collect();
        assert_eq!(outs, vec![(v1, 1.0), (v2, 3.0)]);
        let ins: Vec<_> = g.in_edges(v1).map(|e| (e.node, e.budget)).collect();
        assert_eq!(ins, vec![(v0, 2.0), (v2, 6.0)]);
        assert_eq!(g.o_min(), 1.0);
        assert_eq!(g.o_max(), 5.0);
        assert_eq!(g.b_min(), 2.0);
        assert_eq!(g.b_max(), 6.0);
    }

    #[test]
    fn bidirectional_adds_two_edges() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        let v1 = b.add_node(["b"]);
        b.add_bidirectional(v0, v1, 1.0, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_edges(v0).count(), 1);
        assert_eq!(g.out_edges(v1).count(), 1);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.o_min().is_infinite());
    }

    #[test]
    fn positions_preserved_when_given() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node_at(["a"], 1.0, 2.0);
        let g = b.build().unwrap();
        assert_eq!(g.position(v0), Some((1.0, 2.0)));
    }

    #[test]
    fn positions_absent_when_never_given() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        let g = b.build().unwrap();
        assert_eq!(g.position(v0), None);
    }

    #[test]
    fn rejects_keyword_ids_outside_the_vocabulary() {
        let mut b = GraphBuilder::new();
        b.add_node(["a"]);
        b.add_node_ids(vec![KeywordId(1)]);
        assert!(matches!(b.build(), Err(GraphError::InvalidCsr(_))));
    }
}
