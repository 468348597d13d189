//! Routes (paths through the graph) and their scores.

use std::fmt;

use crate::graph::Graph;
use crate::ids::{KeywordId, NodeId};
use crate::keyword::KeywordSet;

/// Errors when evaluating a route against a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The route has no nodes.
    Empty,
    /// A node id is out of range for the graph.
    UnknownNode(NodeId),
    /// Two consecutive route nodes are not connected by a directed edge.
    MissingEdge {
        /// Step source.
        from: NodeId,
        /// Step target.
        to: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Empty => write!(f, "route has no nodes"),
            RouteError::UnknownNode(v) => write!(f, "route refers to unknown node {v}"),
            RouteError::MissingEdge { from, to } => {
                write!(f, "no edge {from}->{to} in the graph")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A route `R = ⟨v_0, v_1, …, v_n⟩` (Definition 2).
///
/// Routes need not be simple: the paper explicitly notes that restricting
/// the search to simple paths is insufficient for KOR, so nodes may repeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    nodes: Vec<NodeId>,
}

impl Route {
    /// Wraps a node sequence as a route (no validation; use
    /// [`Route::scores`] or [`Route::validate`] against a graph).
    pub fn new(nodes: Vec<NodeId>) -> Self {
        Self { nodes }
    }

    /// A route that starts and ends at `v` without moving.
    pub fn trivial(v: NodeId) -> Self {
        Self { nodes: vec![v] }
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes (edges + 1 for non-empty routes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the route has no nodes at all (invalid).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges traversed.
    pub fn edge_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// First node, if any.
    pub fn source(&self) -> Option<NodeId> {
        self.nodes.first().copied()
    }

    /// Last node, if any.
    pub fn target(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// Checks every consecutive pair is a graph edge.
    pub fn validate(&self, g: &Graph) -> Result<(), RouteError> {
        self.scores(g).map(|_| ())
    }

    /// Computes `(OS(R), BS(R))` per Definition 3: the sums of edge
    /// objective and budget values along the route.
    pub fn scores(&self, g: &Graph) -> Result<(f64, f64), RouteError> {
        if self.nodes.is_empty() {
            return Err(RouteError::Empty);
        }
        for &v in &self.nodes {
            if !g.contains(v) {
                return Err(RouteError::UnknownNode(v));
            }
        }
        let mut os = 0.0;
        let mut bs = 0.0;
        for w in self.nodes.windows(2) {
            let (from, to) = (w[0], w[1]);
            let e = g
                .edge_between(from, to)
                .ok_or(RouteError::MissingEdge { from, to })?;
            os += e.objective;
            bs += e.budget;
        }
        Ok((os, bs))
    }

    /// Objective score `OS(R)`.
    pub fn objective_score(&self, g: &Graph) -> Result<f64, RouteError> {
        self.scores(g).map(|(os, _)| os)
    }

    /// Budget score `BS(R)`.
    pub fn budget_score(&self, g: &Graph) -> Result<f64, RouteError> {
        self.scores(g).map(|(_, bs)| bs)
    }

    /// Union of keywords over all route nodes, `⋃_{v∈R} v.ψ`.
    pub fn covered_keywords(&self, g: &Graph) -> KeywordSet {
        self.nodes
            .iter()
            .flat_map(|&v| g.keywords(v).iter())
            .collect()
    }

    /// Whether the route covers every keyword in `required`.
    pub fn covers(&self, g: &Graph, required: &[KeywordId]) -> bool {
        let covered = self.covered_keywords(g);
        required.iter().all(|&t| covered.contains(t))
    }

    /// Appends another route that starts where this one ends, without
    /// duplicating the junction node.
    ///
    /// # Panics
    ///
    /// Panics if the junction nodes disagree.
    pub fn extend_with(&mut self, suffix: &Route) {
        if suffix.nodes.is_empty() {
            return;
        }
        match self.nodes.last() {
            None => self.nodes.extend_from_slice(&suffix.nodes),
            Some(&last) => {
                assert_eq!(
                    last, suffix.nodes[0],
                    "cannot join routes: {last} != {}",
                    suffix.nodes[0]
                );
                self.nodes.extend_from_slice(&suffix.nodes[1..]);
            }
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

impl From<Vec<NodeId>> for Route {
    fn from(nodes: Vec<NodeId>) -> Self {
        Route::new(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn line_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        let v1 = b.add_node(["b"]);
        let v2 = b.add_node(["c"]);
        b.add_edge(v0, v1, 1.0, 10.0).unwrap();
        b.add_edge(v1, v2, 2.0, 20.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn scores_sum_edges() {
        let g = line_graph();
        let r = Route::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(r.scores(&g).unwrap(), (3.0, 30.0));
        assert_eq!(r.objective_score(&g).unwrap(), 3.0);
        assert_eq!(r.budget_score(&g).unwrap(), 30.0);
    }

    #[test]
    fn trivial_route_scores_zero() {
        let g = line_graph();
        let r = Route::trivial(NodeId(1));
        assert_eq!(r.scores(&g).unwrap(), (0.0, 0.0));
        assert_eq!(r.edge_count(), 0);
        assert_eq!(r.source(), Some(NodeId(1)));
        assert_eq!(r.target(), Some(NodeId(1)));
    }

    #[test]
    fn missing_edge_detected() {
        let g = line_graph();
        let r = Route::new(vec![NodeId(2), NodeId(0)]);
        assert_eq!(
            r.scores(&g),
            Err(RouteError::MissingEdge {
                from: NodeId(2),
                to: NodeId(0)
            })
        );
    }

    #[test]
    fn unknown_node_detected() {
        let g = line_graph();
        let r = Route::new(vec![NodeId(0), NodeId(7)]);
        assert_eq!(r.scores(&g), Err(RouteError::UnknownNode(NodeId(7))));
    }

    #[test]
    fn empty_route_is_error() {
        let g = line_graph();
        assert_eq!(Route::new(vec![]).scores(&g), Err(RouteError::Empty));
        assert!(Route::new(vec![]).is_empty());
    }

    #[test]
    fn covered_keywords_union() {
        let g = line_graph();
        let r = Route::new(vec![NodeId(0), NodeId(1)]);
        let a = g.vocab().get("a").unwrap();
        let b = g.vocab().get("b").unwrap();
        let c = g.vocab().get("c").unwrap();
        assert!(r.covers(&g, &[a, b]));
        assert!(!r.covers(&g, &[a, c]));
        assert_eq!(r.covered_keywords(&g).len(), 2);
    }

    #[test]
    fn extend_with_joins_at_junction() {
        let mut r = Route::new(vec![NodeId(0), NodeId(1)]);
        r.extend_with(&Route::new(vec![NodeId(1), NodeId(2)]));
        assert_eq!(r.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
        // extending with empty is a no-op
        r.extend_with(&Route::new(vec![]));
        assert_eq!(r.len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot join")]
    fn extend_with_mismatched_junction_panics() {
        let mut r = Route::new(vec![NodeId(0)]);
        r.extend_with(&Route::new(vec![NodeId(1), NodeId(2)]));
    }

    #[test]
    fn display_uses_paper_notation() {
        let r = Route::new(vec![NodeId(0), NodeId(3), NodeId(5)]);
        assert_eq!(r.to_string(), "⟨v0, v3, v5⟩");
    }

    #[test]
    fn non_simple_routes_allowed() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["a"]);
        let v1 = b.add_node(["b"]);
        b.add_edge(v0, v1, 1.0, 1.0).unwrap();
        b.add_edge(v1, v0, 1.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let r = Route::new(vec![v0, v1, v0, v1]);
        assert_eq!(r.scores(&g).unwrap(), (3.0, 3.0));
    }
}
