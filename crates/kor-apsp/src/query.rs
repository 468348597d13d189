//! Per-query to-target cost context.

use kor_graph::{Graph, NodeId, Route};

use crate::tree::{backward_tree, Metric, Tree};

/// The two scores of a pre-processed path (`OS`, `BS`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCost {
    /// Objective score of the path.
    pub objective: f64,
    /// Budget score of the path.
    pub budget: f64,
}

/// The to-target pre-processing values consumed by Algorithms 1 and 2.
///
/// For a query targeting `v_t`, the label algorithms read four quantities
/// per node `v_i`:
///
/// * `OS(τ_{i,t})`, `BS(τ_{i,t})` — scores of the minimum-objective path
///   to the target (upper-bound updates and pruning, Alg. 1 lines 7/10/17);
/// * `BS(σ_{i,t})`, `OS(σ_{i,t})` — scores of the minimum-budget path to
///   the target (budget feasibility, Alg. 1 line 10).
///
/// Computed with two backward Dijkstra trees, which also reconstruct the
/// completion paths needed to materialize result routes — values identical
/// to a [`crate::DenseApsp`] row.
///
/// The context owns its trees outright (no borrow of the graph), so
/// long-lived services can keep contexts for popular targets in a shared
/// cache behind `Arc` and skip the two Dijkstras on repeat queries — see
/// `kor_core`'s pre-processing cache.
#[derive(Debug, Clone)]
pub struct QueryContext {
    target: NodeId,
    tau: Tree,
    sigma: Tree,
}

impl QueryContext {
    /// Builds the two to-target trees for `target`.
    pub fn new(graph: &Graph, target: NodeId) -> Self {
        let seeds = [(target, 0.0, 0.0)];
        Self {
            target,
            tau: backward_tree(graph, Metric::Objective, &seeds),
            sigma: backward_tree(graph, Metric::Budget, &seeds),
        }
    }

    /// Assembles a context from already-built `τ` and `σ` trees for
    /// `target` (say, trees brought up to date by [`Tree::repair`]).
    /// Equivalent to [`Self::new`] when both trees equal its builds.
    pub fn from_trees(target: NodeId, tau: Tree, sigma: Tree) -> Self {
        Self { target, tau, sigma }
    }

    /// The minimum-objective (`τ`) tree to the target.
    pub fn tau_tree(&self) -> &Tree {
        &self.tau
    }

    /// The minimum-budget (`σ`) tree to the target.
    pub fn sigma_tree(&self) -> &Tree {
        &self.sigma
    }

    /// The target node `v_t`.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// Whether `i` can reach the target at all.
    #[inline]
    pub fn reaches_target(&self, i: NodeId) -> bool {
        self.tau.is_reachable(i)
    }

    /// Scores of `τ_{i,t}`, or `None` if the target is unreachable.
    #[inline]
    pub fn tau_to_target(&self, i: NodeId) -> Option<PathCost> {
        self.tau.is_reachable(i).then(|| PathCost {
            objective: self.tau.objective(i),
            budget: self.tau.budget(i),
        })
    }

    /// Scores of `σ_{i,t}`, or `None` if the target is unreachable.
    #[inline]
    pub fn sigma_to_target(&self, i: NodeId) -> Option<PathCost> {
        self.sigma.is_reachable(i).then(|| PathCost {
            objective: self.sigma.objective(i),
            budget: self.sigma.budget(i),
        })
    }

    /// `OS(τ_{i,t})` with `+inf` for unreachable nodes (pruning-friendly).
    #[inline]
    pub fn os_tau(&self, i: NodeId) -> f64 {
        self.tau.objective(i)
    }

    /// `BS(τ_{i,t})` with `+inf` for unreachable nodes.
    #[inline]
    pub fn bs_tau(&self, i: NodeId) -> f64 {
        self.tau.budget(i)
    }

    /// `BS(σ_{i,t})` with `+inf` for unreachable nodes.
    #[inline]
    pub fn bs_sigma(&self, i: NodeId) -> f64 {
        self.sigma.budget(i)
    }

    /// `OS(σ_{i,t})` with `+inf` for unreachable nodes.
    #[inline]
    pub fn os_sigma(&self, i: NodeId) -> f64 {
        self.sigma.objective(i)
    }

    /// The completion path `τ_{i,t}` as a route.
    pub fn tau_route(&self, i: NodeId) -> Option<Route> {
        self.tau.walk_to_seed(i).map(Route::new)
    }

    /// The completion path `σ_{i,t}` as a route.
    pub fn sigma_route(&self, i: NodeId) -> Option<Route> {
        self.sigma.walk_to_seed(i).map(Route::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, v};

    #[test]
    fn to_target_values_match_paper() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        assert_eq!(ctx.target(), v(7));
        let tau0 = ctx.tau_to_target(v(0)).unwrap();
        assert_eq!((tau0.objective, tau0.budget), (4.0, 7.0));
        let sigma0 = ctx.sigma_to_target(v(0)).unwrap();
        assert_eq!((sigma0.objective, sigma0.budget), (9.0, 5.0));
        assert_eq!(ctx.os_tau(v(3)), 2.0);
        assert_eq!(ctx.bs_tau(v(3)), 5.0);
        assert_eq!(ctx.bs_sigma(v(6)), 7.0);
        assert_eq!(ctx.os_tau(v(5)), 3.0);
        assert_eq!(ctx.bs_tau(v(5)), 4.0);
    }

    #[test]
    fn unreachable_nodes() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        assert!(!ctx.reaches_target(v(1)));
        assert!(ctx.os_tau(v(1)).is_infinite());
        assert!(ctx.tau_to_target(v(1)).is_none());
        assert!(ctx.sigma_to_target(v(1)).is_none());
        assert!(ctx.tau_route(v(1)).is_none());
    }

    #[test]
    fn completion_routes_materialize() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        let r = ctx.tau_route(v(3)).unwrap();
        assert_eq!(r.nodes(), &[v(3), v(4), v(7)]);
        assert_eq!(r.scores(&g).unwrap(), (2.0, 5.0));
        let s = ctx.sigma_route(v(0)).unwrap();
        assert_eq!(s.nodes(), &[v(0), v(3), v(5), v(7)]);
    }

    #[test]
    fn target_costs_zero() {
        let g = figure1();
        let ctx = QueryContext::new(&g, v(7));
        assert_eq!(ctx.os_tau(v(7)), 0.0);
        assert_eq!(ctx.bs_sigma(v(7)), 0.0);
        assert_eq!(ctx.tau_route(v(7)).unwrap().nodes(), &[v(7)]);
    }
}
