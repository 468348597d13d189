//! Dataset sharding: node assignment, cut-edge boundary summaries, and
//! per-shard subgraphs. Benchmark shard probe only; deleted with ROADMAP
//! item 1. No product path serves shards, and the snapshot format no
//! longer stores a layout.
//!
//! A *sharded* world is the same graph split into `N` node groups
//! (shards) plus a boundary summary describing every edge that crosses
//! a shard border. The summary carries, per node, the cheapest budget
//! to *leave* its shard ([`ShardingInfo::escape`]) and to be *reached
//! from outside* it ([`ShardingInfo::enter`]). Together they prove the
//! confinement condition a scatter-gather router needs: for a query
//! `⟨s, t, ψ, Δ⟩` with `s` and `t` in the same shard, any route that
//! leaves the shard spends at least `escape[s] + enter[t]` budget on
//! the excursion, so when that sum exceeds `Δ` every feasible route is
//! confined to the shard and a shard-local search is exhaustive
//! (see [`ShardingInfo::confined`]).
//!
//! The assignment comes from [`kor_apsp::partition`] — a geometric grid
//! cut when the world has positions (the generator's grid/ring
//! topologies), BFS chunks otherwise — folded down to exactly the
//! requested shard count. Everything here is deterministic: the same
//! graph and shard count always produce the same assignment, cut-edge
//! list (node order, then CSR edge order), and boundary distances, which
//! is what lets the benchmark's shard probe repeat.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use kor_graph::{Graph, NodeId};

/// One directed edge whose endpoints live in different shards.
/// Benchmark shard probe only; deleted with ROADMAP item 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEdge {
    /// Source node (owned by `assignment[source]`).
    pub source: NodeId,
    /// Target node (owned by a different shard).
    pub target: NodeId,
    /// The edge's objective weight, copied from the graph.
    pub objective: f64,
    /// The edge's budget weight, copied from the graph.
    pub budget: f64,
}

/// The shard layout of a world: who owns each node, which edges cross
/// shard borders, and how expensive border crossings are from each node.
/// Benchmark shard probe only; deleted with ROADMAP item 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingInfo {
    /// Number of shards; ids are dense in `0..shard_count` and every
    /// shard owns at least one node.
    pub shard_count: u32,
    /// `assignment[v] = shard id of node v` (length = node count).
    pub assignment: Vec<u32>,
    /// Every directed edge crossing a shard border, in canonical order
    /// (by source node id, then CSR out-edge order).
    pub cut_edges: Vec<CutEdge>,
    /// `escape[v]`: the smallest budget of any path that starts at `v`,
    /// stays inside `v`'s shard, and then takes one outgoing cut edge —
    /// i.e. the cheapest way for a route at `v` to leave the shard.
    /// `+inf` when the shard has no outgoing cut edge reachable from `v`.
    pub escape: Vec<f64>,
    /// `enter[v]`: the smallest budget from any incoming cut edge of
    /// `v`'s shard to `v`, staying inside the shard after crossing —
    /// i.e. the cheapest way for a route from outside to reach `v`.
    /// `+inf` when unreachable from any incoming cut edge.
    pub enter: Vec<f64>,
}

impl ShardingInfo {
    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.assignment[node.index()]
    }

    /// The confinement condition: `source` and `target` share a shard
    /// and `escape[source] + enter[target] > budget`, which proves that
    /// every route within the budget stays inside that shard (any
    /// excursion costs at least the cheapest exit from `source`'s
    /// position plus the cheapest re-entry to `target`). When this
    /// holds, a search over the shard subgraph alone is exhaustive.
    pub fn confined(&self, source: NodeId, target: NodeId, budget: f64) -> bool {
        self.assignment[source.index()] == self.assignment[target.index()]
            && self.escape[source.index()] + self.enter[target.index()] > budget
    }
}

/// Computes the full shard layout of `graph` at `shards` shards:
/// assignment via [`kor_apsp::partition`] folded to the requested count,
/// then the canonical cut-edge list and the escape/enter boundary
/// distances. Deterministic for a given graph and count. Benchmark shard
/// probe only; deleted with ROADMAP item 1.
pub fn compute_sharding(graph: &Graph, shards: usize) -> ShardingInfo {
    let assignment = shard_assignment(graph, shards);
    let shard_count = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let cut_edges = cut_edges(graph, &assignment);
    let (escape, enter) = boundary_budgets(graph, &assignment, &cut_edges);
    ShardingInfo {
        shard_count,
        assignment,
        cut_edges,
        escape,
        enter,
    }
}

/// The per-node shard assignment: [`kor_apsp::partition`] (geometric
/// grid over positions, BFS chunks otherwise) folded down to at most
/// `shards` dense ids. The grid cut can produce more non-empty cells
/// than requested (e.g. 2 requested, 4 quadrants non-empty); folding
/// cell `c` to `c % shards` keeps the count exact whenever the raw cut
/// yields at least `shards` groups, and keeps ids dense either way.
fn shard_assignment(graph: &Graph, shards: usize) -> Vec<u32> {
    let shards = shards.max(1) as u32;
    let mut assignment = kor_apsp::partition(graph, shards as usize);
    let raw = assignment.iter().copied().max().map_or(0, |m| m + 1);
    if raw > shards {
        for a in &mut assignment {
            *a %= shards;
        }
    }
    assignment
}

/// Every directed edge whose endpoints are in different shards, in
/// canonical order: source node id ascending, CSR out-edge order within
/// a node.
fn cut_edges(graph: &Graph, assignment: &[u32]) -> Vec<CutEdge> {
    let mut cuts = Vec::new();
    for v in graph.nodes() {
        for e in graph.out_edges(v) {
            if assignment[v.index()] != assignment[e.node.index()] {
                cuts.push(CutEdge {
                    source: v,
                    target: e.node,
                    objective: e.objective,
                    budget: e.budget,
                });
            }
        }
    }
    cuts
}

/// Budget-metric Dijkstra keyed by (`f64` bit pattern, node id) —
/// non-negative finite floats order like their bit patterns, and the id
/// tiebreak makes the relaxation order (and thus the result on equal
/// distances) deterministic.
fn heap_key(d: f64, v: NodeId) -> Reverse<(u64, u32)> {
    Reverse((d.to_bits(), v.0))
}

/// Computes the `escape` and `enter` distance tables for `assignment`.
///
/// `escape` is a multi-source Dijkstra on the *reversed* intra-shard
/// edges seeded with `escape[a] ≤ e.budget` for every cut edge
/// `a → b`; `enter` is the forward mirror seeded with
/// `enter[b] ≤ e.budget`. Relaxation never crosses a shard border, so
/// one pass over the whole graph handles every shard at once.
fn boundary_budgets(graph: &Graph, assignment: &[u32], cuts: &[CutEdge]) -> (Vec<f64>, Vec<f64>) {
    let n = graph.node_count();
    let mut escape = vec![f64::INFINITY; n];
    let mut enter = vec![f64::INFINITY; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

    for cut in cuts {
        if cut.budget < escape[cut.source.index()] {
            escape[cut.source.index()] = cut.budget;
        }
    }
    for (v, &d) in escape.iter().enumerate() {
        if d.is_finite() {
            heap.push(heap_key(d, NodeId(v as u32)));
        }
    }
    while let Some(Reverse((bits, raw))) = heap.pop() {
        let v = NodeId(raw);
        let d = f64::from_bits(bits);
        if d > escape[v.index()] {
            continue;
        }
        for e in graph.in_edges(v) {
            if assignment[e.node.index()] != assignment[v.index()] {
                continue;
            }
            let cand = d + e.budget;
            if cand < escape[e.node.index()] {
                escape[e.node.index()] = cand;
                heap.push(heap_key(cand, e.node));
            }
        }
    }

    for cut in cuts {
        if cut.budget < enter[cut.target.index()] {
            enter[cut.target.index()] = cut.budget;
        }
    }
    for (v, &d) in enter.iter().enumerate() {
        if d.is_finite() {
            heap.push(heap_key(d, NodeId(v as u32)));
        }
    }
    while let Some(Reverse((bits, raw))) = heap.pop() {
        let v = NodeId(raw);
        let d = f64::from_bits(bits);
        if d > enter[v.index()] {
            continue;
        }
        for e in graph.out_edges(v) {
            if assignment[e.node.index()] != assignment[v.index()] {
                continue;
            }
            let cand = d + e.budget;
            if cand < enter[e.node.index()] {
                enter[e.node.index()] = cand;
                heap.push(heap_key(cand, e.node));
            }
        }
    }

    (escape, enter)
}

/// The subgraph a shard's engine searches: the **full node space** of
/// the original graph (node ids, keyword sets, positions, and the
/// vocabulary are unchanged) with only the edges whose endpoints both
/// belong to `shard`. Keeping every node — non-owned ones simply have
/// no edges — means node ids, query keyword masks, and the Opt-2
/// document-frequency gate are identical to the fused graph's, so a
/// shard-local search differs from the fused search only in the edges
/// it can traverse. Benchmark shard probe only; deleted with ROADMAP
/// item 1.
pub fn shard_subgraph(graph: &Graph, assignment: &[u32], shard: u32) -> Graph {
    let n = graph.node_count();
    let mut out_offsets = Vec::with_capacity(n + 1);
    let mut out_targets = Vec::new();
    let mut out_objective = Vec::new();
    let mut out_budget = Vec::new();
    out_offsets.push(0u32);
    for v in graph.nodes() {
        if assignment[v.index()] == shard {
            for e in graph.out_edges(v) {
                if assignment[e.node.index()] == shard {
                    out_targets.push(e.node);
                    out_objective.push(e.objective);
                    out_budget.push(e.budget);
                }
            }
        }
        out_offsets.push(out_targets.len() as u32);
    }
    let keywords = graph.nodes().map(|v| graph.keywords(v).clone()).collect();
    let positions = graph.positions().map(|p| p.to_vec());
    Graph::from_csr_parts(
        out_offsets,
        out_targets,
        out_objective,
        out_budget,
        keywords,
        positions,
        graph.vocab().clone(),
    )
    .expect("a shard subgraph only removes edges from a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_world, GenConfig};

    fn world() -> Graph {
        generate_world(&GenConfig::grid(6, 5, 7)).graph
    }

    #[test]
    fn assignment_covers_every_node_exactly_once() {
        let g = world();
        for shards in [1, 2, 3, 4, 8] {
            let info = compute_sharding(&g, shards);
            assert_eq!(info.assignment.len(), g.node_count());
            assert!(info.shard_count >= 1 && info.shard_count as usize <= shards.max(1));
            let mut sizes = vec![0usize; info.shard_count as usize];
            for &s in &info.assignment {
                sizes[s as usize] += 1;
            }
            assert_eq!(sizes.iter().sum::<usize>(), g.node_count());
            assert!(sizes.iter().all(|&s| s > 0), "no shard may be empty");
        }
    }

    #[test]
    fn grid_cut_folds_to_requested_count() {
        // A 2-way split of a positioned world must not silently return
        // the 4 grid quadrants.
        let g = world();
        let info = compute_sharding(&g, 2);
        assert_eq!(info.shard_count, 2);
        let info4 = compute_sharding(&g, 4);
        assert_eq!(info4.shard_count, 4);
    }

    #[test]
    fn cut_edges_are_exactly_the_crossing_edges() {
        let g = world();
        let info = compute_sharding(&g, 4);
        let mut expected = 0;
        for v in g.nodes() {
            for e in g.out_edges(v) {
                let crosses = info.shard_of(v) != info.shard_of(e.node);
                if crosses {
                    expected += 1;
                }
                assert_eq!(
                    info.cut_edges
                        .iter()
                        .any(|c| c.source == v && c.target == e.node),
                    crosses
                );
            }
        }
        assert_eq!(info.cut_edges.len(), expected);
        assert!(expected > 0, "a 4-way split of a grid world cuts edges");
    }

    #[test]
    fn escape_and_enter_are_valid_crossing_bounds() {
        let g = world();
        let info = compute_sharding(&g, 4);
        // Every cut edge's endpoints bound their own tables.
        for cut in &info.cut_edges {
            assert!(info.escape[cut.source.index()] <= cut.budget);
            assert!(info.enter[cut.target.index()] <= cut.budget);
        }
        // Escape relaxes along intra-shard edges: an in-shard edge u → v
        // implies escape[u] ≤ budget(u→v) + escape[v].
        for u in g.nodes() {
            for e in g.out_edges(u) {
                if info.shard_of(u) == info.shard_of(e.node) {
                    assert!(
                        info.escape[u.index()] <= e.budget + info.escape[e.node.index()] + 1e-9
                    );
                    assert!(info.enter[e.node.index()] <= info.enter[u.index()] + e.budget + 1e-9);
                }
            }
        }
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let g = world();
        let info = compute_sharding(&g, 1);
        assert_eq!(info.shard_count, 1);
        assert!(info.cut_edges.is_empty());
        assert!(info.escape.iter().all(|d| d.is_infinite()));
        assert!(info.enter.iter().all(|d| d.is_infinite()));
        // With no way to leave, every (finite-budget) query is confined.
        let v0 = NodeId(0);
        let v1 = NodeId(1);
        assert!(info.confined(v0, v1, 1e18));
    }

    #[test]
    fn subgraph_keeps_node_space_and_drops_cross_edges() {
        let g = world();
        let info = compute_sharding(&g, 4);
        let mut edges = 0;
        for shard in 0..info.shard_count {
            let sub = shard_subgraph(&g, &info.assignment, shard);
            assert_eq!(sub.node_count(), g.node_count());
            assert_eq!(sub.vocab().len(), g.vocab().len());
            for v in g.nodes() {
                assert_eq!(sub.keywords(v), g.keywords(v));
                if info.shard_of(v) != shard {
                    assert_eq!(sub.out_degree(v), 0, "non-owned nodes are edgeless");
                }
            }
            edges += sub.edge_count();
        }
        assert_eq!(
            edges + info.cut_edges.len(),
            g.edge_count(),
            "shard subgraphs + cut edges partition the edge set"
        );
    }

    #[test]
    fn sharding_is_deterministic() {
        let g = world();
        let a = compute_sharding(&g, 4);
        let b = compute_sharding(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn confinement_requires_same_shard_and_budget_margin() {
        let g = world();
        let info = compute_sharding(&g, 2);
        let (mut local_pair, mut cross_pair) = (None, None);
        for a in g.nodes() {
            for b in g.nodes() {
                if a == b {
                    continue;
                }
                if info.shard_of(a) == info.shard_of(b) {
                    local_pair.get_or_insert((a, b));
                } else {
                    cross_pair.get_or_insert((a, b));
                }
            }
        }
        let (s, t) = local_pair.expect("same-shard pair exists");
        // Tiny budget: cheaper than any excursion, so confined.
        assert!(info.confined(s, t, 0.0));
        // A budget beyond any possible excursion is never confined
        // (unless the shard is escape-proof, which a 2-cut grid isn't).
        let huge = info.escape[s.index()] + info.enter[t.index()];
        if huge.is_finite() {
            assert!(!info.confined(s, t, huge));
        }
        let (cs, ct) = cross_pair.expect("cross-shard pair exists");
        assert!(!info.confined(cs, ct, 0.0));
    }
}
