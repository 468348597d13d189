//! Landmark (ALT) lower bounds, built once per dataset.
//!
//! The τ/σ trees of [`crate::QueryContext`] give *exact* remaining
//! distances to one target — but they cost two Dijkstras per distinct
//! target. Landmarks are the classic ALT complement: pick `K` nodes once
//! per dataset, precompute every node's distance to and from each of
//! them, and the triangle inequality turns those vectors into an
//! admissible lower bound on `d(v, t)` for **any** pair:
//!
//! ```text
//! d(v, t) ≥ d(v, ℓ) − d(t, ℓ)      (both reach the landmark)
//! d(v, t) ≥ d(ℓ, t) − d(ℓ, v)      (the landmark reaches both)
//! ```
//!
//! Landmarks are seeded from partition boundaries (via
//! [`crate::partition`]): boundary nodes sit on the cuts most shortest
//! paths must cross, which is where triangle bounds are tightest. The
//! distance vectors are node-major (`vec[v * k + i]`) so one node's `K`
//! distances share a cache line at query time.
//!
//! No search reads these bounds. The label searches already hold the
//! exact to-target distances, so `max(exact, ALT)` equalled the exact
//! bound on every node and never changed a pruning decision; the
//! searches now prune with the exact distances alone. Benchmark replay
//! only; deleted with ROADMAP item 2. The admissibility property
//! (`bound ≤ exact`) is pinned by the property tests in
//! `tests/property.rs`.

use kor_graph::{Graph, NodeId};

use crate::partition;
use crate::tree::{backward_tree, forward_tree, Metric, Tree};

/// Default number of landmarks per dataset.
pub const DEFAULT_LANDMARKS: usize = 4;

/// Per-dataset landmark distance vectors (both metrics, both directions).
/// Benchmark replay only; deleted with ROADMAP item 2.
#[derive(Debug, Clone)]
pub struct Landmarks {
    k: usize,
    nodes: Vec<NodeId>,
    /// `d(ℓ_i → v)` objective metric, node-major: `[v * k + i]`.
    from_lm_obj: Vec<f64>,
    /// `d(ℓ_i → v)` budget metric.
    from_lm_bud: Vec<f64>,
    /// `d(v → ℓ_i)` objective metric.
    to_lm_obj: Vec<f64>,
    /// `d(v → ℓ_i)` budget metric.
    to_lm_bud: Vec<f64>,
}

impl Landmarks {
    /// Builds landmark vectors for `graph` with at most `k` landmarks
    /// (4 Dijkstras each). Deterministic for a given graph.
    pub fn build(graph: &Graph, k: usize) -> Self {
        let nodes = select_landmarks(graph, k);
        let k = nodes.len();
        let n = graph.node_count();
        let mut lm = Self {
            k,
            nodes: nodes.clone(),
            from_lm_obj: vec![f64::INFINITY; n * k],
            from_lm_bud: vec![f64::INFINITY; n * k],
            to_lm_obj: vec![f64::INFINITY; n * k],
            to_lm_bud: vec![f64::INFINITY; n * k],
        };
        for (i, &l) in nodes.iter().enumerate() {
            let seeds = [(l, 0.0, 0.0)];
            lm.fill(i, &forward_tree(graph, Metric::Objective, l), |s| {
                &mut s.from_lm_obj
            });
            lm.fill(i, &forward_tree(graph, Metric::Budget, l), |s| {
                &mut s.from_lm_bud
            });
            lm.fill(i, &backward_tree(graph, Metric::Objective, &seeds), |s| {
                &mut s.to_lm_obj
            });
            lm.fill(i, &backward_tree(graph, Metric::Budget, &seeds), |s| {
                &mut s.to_lm_bud
            });
        }
        lm
    }

    fn fill(&mut self, i: usize, tree: &Tree, select: impl Fn(&mut Self) -> &mut Vec<f64>) {
        let k = self.k;
        let n = select(self).len() / k;
        for v in 0..n {
            let d = match tree.metric() {
                Metric::Objective => tree.objective(NodeId(v as u32)),
                Metric::Budget => tree.budget(NodeId(v as u32)),
            };
            select(self)[v * k + i] = d;
        }
    }

    /// Number of landmarks actually selected.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether no landmark could be selected (empty graph).
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// The selected landmark nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The per-target slice of the vectors, fixed once per query.
    pub fn for_target(&self, target: NodeId) -> TargetBounds {
        let base = target.index() * self.k;
        TargetBounds {
            k: self.k,
            to_lm_obj_t: self.to_lm_obj[base..base + self.k].to_vec(),
            to_lm_bud_t: self.to_lm_bud[base..base + self.k].to_vec(),
            from_lm_obj_t: self.from_lm_obj[base..base + self.k].to_vec(),
            from_lm_bud_t: self.from_lm_bud[base..base + self.k].to_vec(),
        }
    }

    #[inline]
    fn slice(&self, vecs: &[f64], v: NodeId) -> std::ops::Range<usize> {
        debug_assert_eq!(vecs.len() % self.k.max(1), 0);
        let base = v.index() * self.k;
        base..base + self.k
    }

    /// `max_i` triangle lower bound on the **objective** distance
    /// `d(v → t)`, given `t`'s cached vector slice. Always admissible;
    /// `0` when no landmark constrains the pair (including unreachable /
    /// infinite cases: `f64::max` ignores the NaN from `inf − inf`).
    #[inline]
    pub fn objective_bound(&self, v: NodeId, t: &TargetBounds) -> f64 {
        let r = self.slice(&self.to_lm_obj, v);
        bound_from(
            &self.to_lm_obj[r.clone()],
            &t.to_lm_obj_t,
            &self.from_lm_obj[r],
            &t.from_lm_obj_t,
        )
    }

    /// `max_i` triangle lower bound on the **budget** distance
    /// `d(v → t)`. Same admissibility guarantees as
    /// [`Self::objective_bound`].
    #[inline]
    pub fn budget_bound(&self, v: NodeId, t: &TargetBounds) -> f64 {
        let r = self.slice(&self.to_lm_bud, v);
        bound_from(
            &self.to_lm_bud[r.clone()],
            &t.to_lm_bud_t,
            &self.from_lm_bud[r],
            &t.from_lm_bud_t,
        )
    }
}

/// The target-side landmark distances of one query, copied out once so
/// the per-label bound needs no second strided load.
#[derive(Debug, Clone)]
pub struct TargetBounds {
    k: usize,
    to_lm_obj_t: Vec<f64>,
    to_lm_bud_t: Vec<f64>,
    from_lm_obj_t: Vec<f64>,
    from_lm_bud_t: Vec<f64>,
}

impl TargetBounds {
    /// Number of landmarks backing these bounds.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the bound is vacuous (no landmarks).
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }
}

/// Relative safety margin shaved off every finite triangle bound.
///
/// `d(v→ℓ)` and `d(t→ℓ)` come from *different* Dijkstra runs summing
/// edge weights in different orders, so their difference can exceed the
/// true `d(v→t)` by a few ulps — enough to break bit-level admissibility
/// against the exact τ/σ trees. Summation error over a path of `L`
/// edges is below `L · 2⁻⁵² · d`, so for any real path length a margin
/// of `10⁻⁹ · d` dominates it by orders of magnitude while costing a
/// negligible sliver of bound quality. Infinite bounds carry no
/// rounding error (they are reachability facts) and pass through
/// unscaled (`∞ × (1 − 10⁻⁹) = ∞`).
const FP_MARGIN: f64 = 1e-9;

/// `(1 − FP_MARGIN) · max_i max(to_v[i] − to_t[i], from_t[i] − from_v[i], 0)`.
///
/// `inf − inf = NaN` and `inf − finite = inf` can both occur; the first
/// is skipped (`f64::max` returns the non-NaN argument), and the second
/// is genuinely admissible — `d(v→ℓ)` infinite with `d(t→ℓ)` finite
/// means `v` cannot reach `ℓ` while `t` can, so `v` cannot reach `t`
/// either and `d(v→t) = ∞`.
#[inline]
fn bound_from(to_v: &[f64], to_t: &[f64], from_v: &[f64], from_t: &[f64]) -> f64 {
    let mut best = 0.0f64;
    for i in 0..to_v.len() {
        best = best.max(to_v[i] - to_t[i]).max(from_t[i] - from_v[i]);
    }
    best * (1.0 - FP_MARGIN)
}

/// Picks up to `k` landmark nodes, one per partition cluster, preferring
/// boundary nodes (an out-edge crossing into another cluster) and
/// falling back to the lowest-id node of the cluster. Deterministic.
fn select_landmarks(graph: &Graph, k: usize) -> Vec<NodeId> {
    let n = graph.node_count();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let assignment = partition(graph, k.min(n));
    let clusters = assignment
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    // Per cluster: (boundary pick, any pick) — both lowest-id.
    let mut boundary: Vec<Option<NodeId>> = vec![None; clusters];
    let mut any: Vec<Option<NodeId>> = vec![None; clusters];
    for v in graph.nodes() {
        let c = assignment[v.index()] as usize;
        if any[c].is_none() {
            any[c] = Some(v);
        }
        if boundary[c].is_none()
            && graph
                .out_edges(v)
                .any(|e| assignment[e.node.index()] != assignment[v.index()])
        {
            boundary[c] = Some(v);
        }
    }
    (0..clusters)
        .filter_map(|c| boundary[c].or(any[c]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryContext;
    use kor_graph::fixtures::figure1;

    #[test]
    fn bounds_are_admissible_on_figure1() {
        let g = figure1();
        let lm = Landmarks::build(&g, DEFAULT_LANDMARKS);
        assert!(!lm.is_empty());
        for target in g.nodes() {
            let ctx = QueryContext::new(&g, target);
            let tb = lm.for_target(target);
            for node in g.nodes() {
                let ob = lm.objective_bound(node, &tb);
                let bb = lm.budget_bound(node, &tb);
                assert!(ob >= 0.0 && bb >= 0.0, "bounds are non-negative");
                // os_tau is the exact min-objective distance v → t;
                // bs_sigma the exact min-budget distance. ALT ≤ exact.
                assert!(
                    ob <= ctx.os_tau(node),
                    "objective bound {ob} > exact {} for {node:?} → {target:?}",
                    ctx.os_tau(node)
                );
                assert!(
                    bb <= ctx.bs_sigma(node),
                    "budget bound {bb} > exact {} for {node:?} → {target:?}",
                    ctx.bs_sigma(node)
                );
            }
        }
    }

    #[test]
    fn bound_is_tight_at_a_landmark() {
        let g = figure1();
        let lm = Landmarks::build(&g, 8);
        // For t = ℓ the backward-distance term is d(v→ℓ) − 0 = d(v→ℓ):
        // the bound reaches the exact distance up to the FP_MARGIN
        // shave (and, per admissibility, never beyond it).
        let ctx_target = lm.nodes()[0];
        let ctx = QueryContext::new(&g, ctx_target);
        let tb = lm.for_target(ctx_target);
        for node in g.nodes() {
            let exact = ctx.os_tau(node);
            if exact.is_finite() {
                let bound = lm.objective_bound(node, &tb);
                assert!(bound <= exact);
                assert!(bound >= exact * (1.0 - 2.0 * FP_MARGIN));
            }
        }
    }

    #[test]
    fn unreachable_pairs_get_infinite_bound() {
        let g = figure1();
        let lm = Landmarks::build(&g, 8);
        // v1 has no outgoing edges: d(v1 → anything) = ∞. If some
        // landmark is reachable from the target but not from v1, the
        // bound correctly explodes; it must never be NaN.
        for target in g.nodes() {
            let tb = lm.for_target(target);
            for node in g.nodes() {
                assert!(!lm.objective_bound(node, &tb).is_nan());
                assert!(!lm.budget_bound(node, &tb).is_nan());
            }
        }
    }

    #[test]
    fn empty_graph_yields_no_landmarks() {
        use kor_graph::GraphBuilder;
        let g = GraphBuilder::new().build().unwrap();
        let lm = Landmarks::build(&g, 4);
        assert!(lm.is_empty());
        assert_eq!(lm.len(), 0);
    }

    #[test]
    fn deterministic_selection() {
        let g = figure1();
        let a = Landmarks::build(&g, 4);
        let b = Landmarks::build(&g, 4);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.to_lm_obj.len(), b.to_lm_obj.len());
        for (x, y) in a.to_lm_obj.iter().zip(&b.to_lm_obj) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
