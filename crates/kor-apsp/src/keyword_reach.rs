//! Per-query-keyword reachability trees (Optimization Strategy 1 support).
//!
//! Optimization Strategy 1 (§3.2) jumps from the node of the label being
//! processed to a node `v_j` holding an uncovered query keyword with the
//! smallest `BS(σ_{i,j})`. For each query keyword we therefore build one
//! multi-seed backward Dijkstra tree (budget metric) rooted at all nodes
//! containing that keyword: it answers "nearest keyword node by budget"
//! for *every* `v_i` at once and reconstructs the actual `σ_{i,j}` path so
//! the jump label can be extended edge-by-edge with exact scores and
//! coverage.

use std::sync::Arc;

use kor_graph::{Graph, NodeId, QueryKeywords};

use crate::tree::{backward_tree, Metric, Tree};

/// One budget-metric multi-seed tree per query keyword bit.
///
/// Trees are held behind `Arc` so a pre-processing cache can share one
/// build across every query mentioning the keyword: each tree depends
/// only on `(graph, keyword)` — never on the query's source, target, or
/// budget.
#[derive(Debug, Clone)]
pub struct KeywordReach {
    trees: Vec<Arc<Tree>>,
}

impl KeywordReach {
    /// Builds the trees. `postings[bit]` must list the nodes containing
    /// the query keyword at `bit` (as produced by an inverted index).
    pub fn new(graph: &Graph, query: &QueryKeywords, postings: &[Vec<NodeId>]) -> Self {
        assert_eq!(
            postings.len(),
            query.len(),
            "one posting list per query keyword"
        );
        let trees = postings
            .iter()
            .map(|nodes| Arc::new(Self::build_tree(graph, nodes)))
            .collect();
        Self { trees }
    }

    /// Builds the single-keyword reach tree for the given posting list —
    /// the unit a cache memoizes per keyword.
    pub fn build_tree(graph: &Graph, postings: &[NodeId]) -> Tree {
        backward_tree(graph, Metric::Budget, &Self::seeds(postings))
    }

    /// The seeds of a reach tree: every posting with zero potential.
    pub fn seeds(postings: &[NodeId]) -> Vec<(NodeId, f64, f64)> {
        postings.iter().map(|&n| (n, 0.0, 0.0)).collect()
    }

    /// Assembles a reach from already-built (possibly cached) per-keyword
    /// trees, in query-bit order. Equivalent to [`Self::new`] when each
    /// tree came from [`Self::build_tree`] on the matching postings.
    pub fn from_trees(trees: Vec<Arc<Tree>>) -> Self {
        Self { trees }
    }

    /// Number of query keywords covered.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether there are no query keywords.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// `min_j BS(σ_{i,j})` over nodes `j` containing the keyword at `bit`,
    /// together with the minimizing node. `None` if no such node is
    /// forward-reachable from `i`.
    pub fn nearest(&self, bit: u32, i: NodeId) -> Option<(f64, NodeId)> {
        let tree = &self.trees[bit as usize];
        let terminal = tree.terminal(i)?;
        Some((tree.budget(i), terminal))
    }

    /// The `σ_{i,j}` path from `i` to the nearest keyword node (inclusive).
    pub fn path_to_nearest(&self, bit: u32, i: NodeId) -> Option<Vec<NodeId>> {
        self.trees[bit as usize].walk_to_seed(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, t, v};

    fn postings_for(g: &Graph, q: &QueryKeywords) -> Vec<Vec<NodeId>> {
        q.ids()
            .iter()
            .map(|&kw| g.nodes().filter(|&n| g.node_has_keyword(n, kw)).collect())
            .collect()
    }

    #[test]
    fn nearest_keyword_node_by_budget() {
        let g = figure1();
        let q = QueryKeywords::new(vec![t(1), t(2)]).unwrap();
        let reach = KeywordReach::new(&g, &q, &postings_for(&g, &q));
        assert_eq!(reach.len(), 2);
        // t1 lives at v3 and v6. From v2: v6 via budget 1 beats v3 via 2.
        let bit_t1 = q.bit(t(1)).unwrap();
        assert_eq!(reach.nearest(bit_t1, v(2)), Some((1.0, v(6))));
        assert_eq!(
            reach.path_to_nearest(bit_t1, v(2)).unwrap(),
            vec![v(2), v(6)]
        );
        // From v0: v3 via budget 2.
        assert_eq!(reach.nearest(bit_t1, v(0)), Some((2.0, v(3))));
        // A node holding the keyword is its own nearest at distance 0.
        assert_eq!(reach.nearest(bit_t1, v(3)), Some((0.0, v(3))));
    }

    #[test]
    fn unreachable_keyword_is_none() {
        let g = figure1();
        // t5 lives only at v1, which has no outgoing edges; v4's only
        // forward continuation is v7, so no t5 node is reachable from v4.
        let q = QueryKeywords::new(vec![t(5)]).unwrap();
        let reach = KeywordReach::new(&g, &q, &postings_for(&g, &q));
        assert_eq!(reach.nearest(0, v(4)), None);
        assert_eq!(reach.path_to_nearest(0, v(4)), None);
        // v1 itself holds t5.
        assert_eq!(reach.nearest(0, v(1)), Some((0.0, v(1))));
        // From v0, the cheapest budget path to v1 is the direct edge (1).
        assert_eq!(reach.nearest(0, v(0)), Some((1.0, v(1))));
    }

    #[test]
    fn empty_postings_reach_nothing() {
        let g = figure1();
        let q = QueryKeywords::new(vec![t(4)]).unwrap();
        let reach = KeywordReach::new(&g, &q, &[vec![]]);
        for n in g.nodes() {
            assert_eq!(reach.nearest(0, n), None);
        }
    }

    #[test]
    #[should_panic(expected = "one posting list per query keyword")]
    fn posting_arity_mismatch_panics() {
        let g = figure1();
        let q = QueryKeywords::new(vec![t(1), t(2)]).unwrap();
        let _ = KeywordReach::new(&g, &q, &[vec![]]);
    }
}
