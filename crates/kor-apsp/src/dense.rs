//! Dense all-pairs pre-processing (`τ` and `σ` matrices).
//!
//! Faithful to §3.1: for every node pair the objective/budget scores of
//! the minimum-objective path `τ_{i,j}` and the minimum-budget path
//! `σ_{i,j}`, with next-hop matrices so that the paths themselves can be
//! reconstructed (needed to materialize result routes), built with the
//! paper's `O(|V|³)` Floyd–Warshall algorithm.
//!
//! Space is `O(|V|²)`; intended for small graphs. The search algorithms
//! use the lazy per-query trees instead, and this module is the oracle
//! they are checked against.

use kor_graph::{Graph, NodeId};

use crate::query::PathCost;
use crate::tree::NO_NODE;

/// Dense `τ`/`σ` matrices with next-hop path reconstruction.
#[derive(Debug, Clone)]
pub struct DenseApsp {
    n: usize,
    tau_obj: Vec<f64>,
    tau_bud: Vec<f64>,
    tau_next: Vec<u32>,
    sigma_obj: Vec<f64>,
    sigma_bud: Vec<f64>,
    sigma_next: Vec<u32>,
}

impl DenseApsp {
    /// Builds the matrices with the Floyd–Warshall algorithm, relaxing the
    /// lexicographic keys `(objective, budget)` for `τ` and
    /// `(budget, objective)` for `σ`.
    pub fn floyd_warshall(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut apsp = Self::empty(n);
        for v in graph.nodes() {
            let i = v.index();
            apsp.tau_obj[i * n + i] = 0.0;
            apsp.tau_bud[i * n + i] = 0.0;
            apsp.sigma_obj[i * n + i] = 0.0;
            apsp.sigma_bud[i * n + i] = 0.0;
            for e in graph.out_edges(v) {
                let j = e.node.index();
                // Parallel edges are rejected by the builder, so direct
                // assignment is safe; self-loops likewise.
                apsp.tau_obj[i * n + j] = e.objective;
                apsp.tau_bud[i * n + j] = e.budget;
                apsp.tau_next[i * n + j] = e.node.0;
                apsp.sigma_obj[i * n + j] = e.objective;
                apsp.sigma_bud[i * n + j] = e.budget;
                apsp.sigma_next[i * n + j] = e.node.0;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let (tik_o, tik_b) = (apsp.tau_obj[i * n + k], apsp.tau_bud[i * n + k]);
                let (sik_b, sik_o) = (apsp.sigma_bud[i * n + k], apsp.sigma_obj[i * n + k]);
                if !tik_o.is_finite() && !sik_b.is_finite() {
                    continue;
                }
                let tau_next_ik = apsp.tau_next[i * n + k];
                let sigma_next_ik = apsp.sigma_next[i * n + k];
                for j in 0..n {
                    // τ: lexicographic (objective, budget)
                    let cand_o = tik_o + apsp.tau_obj[k * n + j];
                    if cand_o.is_finite() {
                        let cand_b = tik_b + apsp.tau_bud[k * n + j];
                        let cur_o = apsp.tau_obj[i * n + j];
                        let cur_b = apsp.tau_bud[i * n + j];
                        if cand_o < cur_o || (cand_o == cur_o && cand_b < cur_b) {
                            apsp.tau_obj[i * n + j] = cand_o;
                            apsp.tau_bud[i * n + j] = cand_b;
                            apsp.tau_next[i * n + j] = tau_next_ik;
                        }
                    }
                    // σ: lexicographic (budget, objective)
                    let cand_b = sik_b + apsp.sigma_bud[k * n + j];
                    if cand_b.is_finite() {
                        let cand_o = sik_o + apsp.sigma_obj[k * n + j];
                        let cur_b = apsp.sigma_bud[i * n + j];
                        let cur_o = apsp.sigma_obj[i * n + j];
                        if cand_b < cur_b || (cand_b == cur_b && cand_o < cur_o) {
                            apsp.sigma_bud[i * n + j] = cand_b;
                            apsp.sigma_obj[i * n + j] = cand_o;
                            apsp.sigma_next[i * n + j] = sigma_next_ik;
                        }
                    }
                }
            }
        }
        apsp
    }

    fn empty(n: usize) -> Self {
        Self {
            n,
            tau_obj: vec![f64::INFINITY; n * n],
            tau_bud: vec![f64::INFINITY; n * n],
            tau_next: vec![NO_NODE; n * n],
            sigma_obj: vec![f64::INFINITY; n * n],
            sigma_bud: vec![f64::INFINITY; n * n],
            sigma_next: vec![NO_NODE; n * n],
        }
    }

    /// Number of nodes covered by the matrices.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Scores of `τ_{i,j}`, or `None` if `j` is unreachable from `i`.
    pub fn tau(&self, i: NodeId, j: NodeId) -> Option<PathCost> {
        let o = self.tau_obj[i.index() * self.n + j.index()];
        o.is_finite().then(|| PathCost {
            objective: o,
            budget: self.tau_bud[i.index() * self.n + j.index()],
        })
    }

    /// Scores of `σ_{i,j}`, or `None` if unreachable.
    pub fn sigma(&self, i: NodeId, j: NodeId) -> Option<PathCost> {
        let b = self.sigma_bud[i.index() * self.n + j.index()];
        b.is_finite().then(|| PathCost {
            objective: self.sigma_obj[i.index() * self.n + j.index()],
            budget: b,
        })
    }

    /// Node sequence of `τ_{i,j}` (inclusive), or `None` if unreachable.
    pub fn tau_path(&self, i: NodeId, j: NodeId) -> Option<Vec<NodeId>> {
        self.path_from_next(&self.tau_next, i, j)
    }

    /// Node sequence of `σ_{i,j}` (inclusive), or `None` if unreachable.
    pub fn sigma_path(&self, i: NodeId, j: NodeId) -> Option<Vec<NodeId>> {
        self.path_from_next(&self.sigma_next, i, j)
    }

    fn path_from_next(&self, next: &[u32], i: NodeId, j: NodeId) -> Option<Vec<NodeId>> {
        if i == j {
            return Some(vec![i]);
        }
        let mut path = vec![i];
        let mut cur = i;
        while cur != j {
            let hop = next[cur.index() * self.n + j.index()];
            if hop == NO_NODE {
                return None;
            }
            cur = NodeId(hop);
            path.push(cur);
            debug_assert!(path.len() <= self.n, "next-hop matrix contains a cycle");
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, v};
    use kor_graph::Route;

    #[test]
    fn floyd_matches_paper_preprocessing_example() {
        let g = figure1();
        let apsp = DenseApsp::floyd_warshall(&g);
        // τ(0,7) = ⟨v0,v3,v4,v7⟩ with OS 4, BS 7
        let tau = apsp.tau(v(0), v(7)).unwrap();
        assert_eq!((tau.objective, tau.budget), (4.0, 7.0));
        assert_eq!(
            apsp.tau_path(v(0), v(7)).unwrap(),
            vec![v(0), v(3), v(4), v(7)]
        );
        // σ(0,7) = ⟨v0,v3,v5,v7⟩ with OS 9, BS 5
        let sigma = apsp.sigma(v(0), v(7)).unwrap();
        assert_eq!((sigma.objective, sigma.budget), (9.0, 5.0));
        assert_eq!(
            apsp.sigma_path(v(0), v(7)).unwrap(),
            vec![v(0), v(3), v(5), v(7)]
        );
    }

    #[test]
    fn self_pairs_are_zero() {
        let g = figure1();
        let apsp = DenseApsp::floyd_warshall(&g);
        let c = apsp.tau(v(4), v(4)).unwrap();
        assert_eq!((c.objective, c.budget), (0.0, 0.0));
        assert_eq!(apsp.tau_path(v(4), v(4)).unwrap(), vec![v(4)]);
    }

    #[test]
    fn unreachable_pairs_are_none() {
        let g = figure1();
        let apsp = DenseApsp::floyd_warshall(&g);
        // v1 has no outgoing edges
        assert!(apsp.tau(v(1), v(7)).is_none());
        assert!(apsp.sigma(v(1), v(0)).is_none());
        assert!(apsp.tau_path(v(1), v(7)).is_none());
    }

    #[test]
    fn forward_trees_agree_with_floyd() {
        // The lazy forward trees greedy reads must give the oracle's
        // scores bit for bit, and paths that re-walk to those scores.
        use crate::tree::{forward_tree, Metric};
        let g = figure1();
        let apsp = DenseApsp::floyd_warshall(&g);
        for i in g.nodes() {
            let tau = forward_tree(&g, Metric::Objective, i);
            let sigma = forward_tree(&g, Metric::Budget, i);
            for j in g.nodes() {
                for (tree, dense, path) in [
                    (&tau, apsp.tau(i, j), apsp.tau_path(i, j)),
                    (&sigma, apsp.sigma(i, j), apsp.sigma_path(i, j)),
                ] {
                    let lazy = tree.is_reachable(j).then(|| PathCost {
                        objective: tree.objective(j),
                        budget: tree.budget(j),
                    });
                    assert_eq!(lazy, dense, "{:?} {i}->{j}", tree.metric());
                    assert_eq!(tree.walk_from_source(j).is_some(), path.is_some());
                    if let (Some(cost), Some(path)) = (dense, path) {
                        let (os, bs) = Route::new(path).scores(&g).expect("valid path");
                        assert!((os - cost.objective).abs() < 1e-9, "OS {i}->{j}");
                        assert!((bs - cost.budget).abs() < 1e-9, "BS {i}->{j}");
                    }
                }
            }
        }
    }

    #[test]
    fn tau_minimizes_objective_sigma_minimizes_budget() {
        let g = figure1();
        let apsp = DenseApsp::floyd_warshall(&g);
        for i in g.nodes() {
            for j in g.nodes() {
                if let (Some(t), Some(s)) = (apsp.tau(i, j), apsp.sigma(i, j)) {
                    assert!(t.objective <= s.objective + 1e-12);
                    assert!(s.budget <= t.budget + 1e-12);
                }
            }
        }
    }
}
