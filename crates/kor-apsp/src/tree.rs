//! Lexicographic single-source / multi-seed Dijkstra trees.
//!
//! Every pre-processing value the KOR algorithms consume is a shortest
//! path under one of two lexicographic orders:
//!
//! * [`Metric::Objective`] — minimize objective score, tie-break on budget
//!   (yields `τ` paths: `OS(τ)` primary, `BS(τ)` secondary);
//! * [`Metric::Budget`] — minimize budget score, tie-break on objective
//!   (yields `σ` paths).
//!
//! Trees run either *backward* (costs **to** a seed set, following
//! forward edges — used for to-target bounds and keyword reachability) or
//! *forward* (costs **from** a single source — used by the greedy
//! algorithm). Seeds may carry initial potentials, which turns the tree
//! into a "min over seeds of (path cost + potential)" oracle as needed by
//! Optimization Strategy 2.
//!
//! A tree is a function of the graph and its seeds alone. Dijkstra pops
//! nodes in `(key, node id)` order and a node keeps the first strictly
//! better relaxation, so with positive weights every node `u` of a
//! backward tree ends with
//!
//! * `key(u) = min(seed potential of u, min over edges u → v of key(v) + w)`;
//! * `link(u)` = the achieving `v` with the smallest `(key(v), v)`, or
//!   [`NO_NODE`] when the seed potential achieves the key
//!
//! (forward trees mirror this over in-edges). [`Tree::repair`] relies on
//! that canonical form to bring a tree up to date after an edge mutation
//! by re-settling only the nodes the mutation can affect, and produces
//! exactly the tree a cold build on the mutated graph would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use kor_graph::{EdgeMutation, Graph, NodeId};

/// Sentinel for "no next hop" (seed nodes / unreachable nodes).
pub const NO_NODE: u32 = u32::MAX;

/// A seed: `(node, objective potential, budget potential)`.
type Seed = (NodeId, f64, f64);

/// Which edge attribute the tree minimizes (the other tie-breaks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Minimize objective, tie-break budget (`τ` paths).
    Objective,
    /// Minimize budget, tie-break objective (`σ` paths).
    Budget,
}

impl Metric {
    #[inline]
    fn key(self, objective: f64, budget: f64) -> (f64, f64) {
        match self {
            Metric::Objective => (objective, budget),
            Metric::Budget => (budget, objective),
        }
    }

    #[inline]
    fn key_of(self, node: &SptNode) -> (f64, f64) {
        self.key(node.objective, node.budget)
    }
}

/// Which way a tree's paths run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Costs to the seed set: Dijkstra relaxes in-edges.
    Backward,
    /// Costs from the seed set: Dijkstra relaxes out-edges.
    Forward,
}

/// Per-node result of a tree computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SptNode {
    /// Accumulated objective score of the chosen path (`+inf` if
    /// unreachable).
    pub objective: f64,
    /// Accumulated budget score of the chosen path (`+inf` if
    /// unreachable).
    pub budget: f64,
    /// Next hop toward the seed set (backward trees) or predecessor on the
    /// path from the source (forward trees); [`NO_NODE`] at seeds, the
    /// source, and unreachable nodes.
    pub link: u32,
}

impl SptNode {
    const UNREACHED: SptNode = SptNode {
        objective: f64::INFINITY,
        budget: f64::INFINITY,
        link: NO_NODE,
    };

    /// Whether the node can reach (or be reached from) the seed set.
    #[inline]
    pub fn is_reachable(&self) -> bool {
        self.objective.is_finite()
    }

    /// Bit-for-bit equality (costs compared by bit pattern).
    fn same_bits(&self, other: &SptNode) -> bool {
        self.objective.to_bits() == other.objective.to_bits()
            && self.budget.to_bits() == other.budget.to_bits()
            && self.link == other.link
    }
}

/// A computed shortest-path tree (forward or backward).
#[derive(Debug, Clone)]
pub struct Tree {
    metric: Metric,
    direction: Direction,
    nodes: Vec<SptNode>,
}

/// What [`Tree::repair`] did to bring a tree up to date with a mutated
/// graph.
#[derive(Debug, Clone)]
pub enum Repair {
    /// The mutation changed no node of the tree; the old tree stands.
    Unchanged,
    /// The repaired tree.
    Repaired(Tree),
    /// A relaxation absorbed an edge weight (`key + w == key` in the
    /// primary component), where the canonical form does not hold, so
    /// the tree was rebuilt cold instead.
    Rebuilt(Tree),
}

impl Tree {
    /// The minimized metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Per-node costs and link.
    #[inline]
    pub fn node(&self, v: NodeId) -> SptNode {
        self.nodes[v.index()]
    }

    /// Objective score of the chosen path for `v` (`+inf` if unreachable).
    #[inline]
    pub fn objective(&self, v: NodeId) -> f64 {
        self.nodes[v.index()].objective
    }

    /// Budget score of the chosen path for `v` (`+inf` if unreachable).
    #[inline]
    pub fn budget(&self, v: NodeId) -> f64 {
        self.nodes[v.index()].budget
    }

    /// Whether `v` is connected to the seed set / source.
    #[inline]
    pub fn is_reachable(&self, v: NodeId) -> bool {
        self.nodes[v.index()].is_reachable()
    }

    /// For a **backward** tree: the node sequence `v, …, seed` following
    /// forward edges. `None` if unreachable.
    pub fn walk_to_seed(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.is_reachable(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while self.nodes[cur.index()].link != NO_NODE {
            cur = NodeId(self.nodes[cur.index()].link);
            path.push(cur);
        }
        Some(path)
    }

    /// For a **forward** tree: the node sequence `source, …, v`. `None` if
    /// unreachable.
    pub fn walk_from_source(&self, v: NodeId) -> Option<Vec<NodeId>> {
        let mut path = self.walk_to_seed(v)?;
        path.reverse();
        Some(path)
    }

    /// The seed (terminal) node of `v`'s backward path — for multi-seed
    /// trees this identifies the nearest seed. `None` if unreachable.
    pub fn terminal(&self, v: NodeId) -> Option<NodeId> {
        if !self.is_reachable(v) {
            return None;
        }
        let mut cur = v;
        while self.nodes[cur.index()].link != NO_NODE {
            cur = NodeId(self.nodes[cur.index()].link);
        }
        Some(cur)
    }

    /// Brings this tree, built on some graph with `old_seeds`, up to date
    /// with `graph`, the graph the `changed` batch produced, and with
    /// `new_seeds` (the same seeds unless their potentials moved, as
    /// Opt-2's do when the to-target context changes). The result equals
    /// a cold build of the same kind on `graph` with `new_seeds`, bit for
    /// bit, every `link` included.
    ///
    /// The repair re-settles only what the batch can affect:
    ///
    /// 1. the roots are the nodes whose tree edge (`link`) changed or
    ///    closed, and the seeds whose potential got worse;
    /// 2. their subtrees are reset, found by walking the edges whose
    ///    `link` points back (no pass over all nodes);
    /// 3. the heap is seeded with each reset node's best neighbour
    ///    outside the reset region, with every mutated edge that now
    ///    offers a better key, and with every improved seed;
    /// 4. the usual Dijkstra pop loop runs from there;
    /// 5. `link` is recomputed by the canonical rule (module docs) for the
    ///    reset region, every popped node, every neighbour a popped node
    ///    now ties with, and the nodes whose mutated edges or seed
    ///    potentials changed.
    ///
    /// When a relaxation absorbs an edge weight, or float rounding makes
    /// a smaller key produce a larger one across an edge, the canonical
    /// form no longer pins the tree down and the tree is rebuilt cold
    /// ([`Repair::Rebuilt`]). `graph` must have the node count of the
    /// graph this tree was built on.
    pub fn repair(
        &self,
        graph: &Graph,
        new_seeds: &[(NodeId, f64, f64)],
        old_seeds: &[(NodeId, f64, f64)],
        changed: &[EdgeMutation],
    ) -> Repair {
        let edge = |e: kor_graph::EdgeRef| (e.node, e.objective, e.budget);
        let patched = match self.direction {
            Direction::Backward => {
                // Edge u → v: u's key is computed through v.
                let changed: Vec<(NodeId, NodeId)> =
                    changed.iter().map(|m| (m.from, m.to)).collect();
                patch(
                    &self.nodes,
                    self.metric,
                    new_seeds,
                    old_seeds,
                    &changed,
                    |v| graph.in_edges(v).map(edge),
                    |u| graph.out_edges(u).map(edge),
                )
            }
            Direction::Forward => {
                // Edge u → v: v's key is computed through u.
                let changed: Vec<(NodeId, NodeId)> =
                    changed.iter().map(|m| (m.to, m.from)).collect();
                patch(
                    &self.nodes,
                    self.metric,
                    new_seeds,
                    old_seeds,
                    &changed,
                    |u| graph.out_edges(u).map(edge),
                    |v| graph.in_edges(v).map(edge),
                )
            }
        };
        match patched {
            Some(None) => Repair::Unchanged,
            Some(Some(nodes)) => Repair::Repaired(Tree {
                metric: self.metric,
                direction: self.direction,
                nodes,
            }),
            None => Repair::Rebuilt(build(graph, self.metric, self.direction, new_seeds)),
        }
    }
}

#[derive(PartialEq)]
struct HeapItem {
    key: (f64, f64),
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need smallest key first.
        // Keys are finite (infinities never enter the heap), but total_cmp
        // keeps this robust anyway. Node id breaks ties deterministically.
        other
            .key
            .0
            .total_cmp(&self.key.0)
            .then_with(|| other.key.1.total_cmp(&self.key.1))
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn run_dijkstra<E>(
    n: usize,
    metric: Metric,
    seeds: &[(NodeId, f64, f64)],
    mut edges_into: impl FnMut(NodeId) -> E,
) -> Vec<SptNode>
where
    E: Iterator<Item = (NodeId, f64, f64)>,
{
    let mut nodes = vec![SptNode::UNREACHED; n];
    let mut heap = BinaryHeap::new();
    for &(seed, pot_obj, pot_bud) in seeds {
        let cand = SptNode {
            objective: pot_obj,
            budget: pot_bud,
            link: NO_NODE,
        };
        let entry = &mut nodes[seed.index()];
        if metric.key(cand.objective, cand.budget) < metric.key(entry.objective, entry.budget) {
            *entry = cand;
            heap.push(HeapItem {
                key: metric.key(cand.objective, cand.budget),
                node: seed,
            });
        }
    }
    while let Some(HeapItem { key, node }) = heap.pop() {
        let cur = nodes[node.index()];
        if key > metric.key(cur.objective, cur.budget) {
            continue; // stale entry
        }
        for (other, eo, eb) in edges_into(node) {
            let cand_obj = cur.objective + eo;
            let cand_bud = cur.budget + eb;
            let entry = &mut nodes[other.index()];
            if metric.key(cand_obj, cand_bud) < metric.key(entry.objective, entry.budget) {
                *entry = SptNode {
                    objective: cand_obj,
                    budget: cand_bud,
                    link: node.0,
                };
                heap.push(HeapItem {
                    key: metric.key(cand_obj, cand_bud),
                    node: other,
                });
            }
        }
    }
    nodes
}

/// A cold build of a tree of `direction`.
fn build(
    graph: &Graph,
    metric: Metric,
    direction: Direction,
    seeds: &[(NodeId, f64, f64)],
) -> Tree {
    let n = graph.node_count();
    let nodes = match direction {
        Direction::Backward => run_dijkstra(n, metric, seeds, |v| {
            graph.in_edges(v).map(|e| (e.node, e.objective, e.budget))
        }),
        Direction::Forward => run_dijkstra(n, metric, seeds, |v| {
            graph.out_edges(v).map(|e| (e.node, e.objective, e.budget))
        }),
    };
    Tree {
        metric,
        direction,
        nodes,
    }
}

/// The effective potential of every seed node: the first of its
/// smallest potentials, as the cold build's seeding loop keeps it.
fn potentials(metric: Metric, seeds: &[Seed]) -> HashMap<NodeId, SptNode> {
    let mut out: HashMap<NodeId, SptNode> = HashMap::with_capacity(seeds.len());
    for &(v, objective, budget) in seeds {
        let cand = SptNode {
            objective,
            budget,
            link: NO_NODE,
        };
        let entry = out.entry(v).or_insert(SptNode::UNREACHED);
        if metric.key_of(&cand) < metric.key_of(entry) {
            *entry = cand;
        }
    }
    out.retain(|_, p| metric.key_of(p) < metric.key_of(&SptNode::UNREACHED));
    out
}

/// The nodes [`patch`] reset, and every node whose `link` it must
/// recompute.
struct Marks {
    reset: Vec<bool>,
    seen: Vec<bool>,
    touched: Vec<NodeId>,
}

impl Marks {
    fn touch(&mut self, v: NodeId) {
        if !std::mem::replace(&mut self.seen[v.index()], true) {
            self.touched.push(v);
        }
    }

    /// Marks `v` reset; false if it already was.
    fn reset(&mut self, v: NodeId) -> bool {
        self.touch(v);
        !std::mem::replace(&mut self.reset[v.index()], true)
    }

    fn is_reset(&self, v: NodeId) -> bool {
        self.reset[v.index()]
    }
}

/// The repair behind [`Tree::repair`], in one orientation. `changed`
/// lists mutated edges as `(dependent, source)`: the dependent's key is
/// computed through the source. `dependents(v)` yields the nodes whose
/// key is computed through `v` (the edges Dijkstra relaxes from `v`) and
/// `sources(u)` the nodes `u`'s key is computed through, each with the
/// edge's weights in the new graph.
///
/// Returns `None` when the canonical form does not hold (the caller
/// rebuilds cold), `Some(None)` when no node changed, and otherwise the
/// repaired nodes.
fn patch<D, S>(
    old: &[SptNode],
    metric: Metric,
    new_seeds: &[Seed],
    old_seeds: &[Seed],
    changed: &[(NodeId, NodeId)],
    dependents: impl Fn(NodeId) -> D,
    sources: impl Fn(NodeId) -> S,
) -> Option<Option<Vec<SptNode>>>
where
    D: Iterator<Item = (NodeId, f64, f64)>,
    S: Iterator<Item = (NodeId, f64, f64)>,
{
    let key = |n: &SptNode| metric.key_of(n);
    // Extending `from` by an edge must raise its primary key component;
    // when it does not, equal keys can pop out of node-id order.
    let absorbs = |from: &SptNode, cand: &SptNode| key(cand).0 == key(from).0;
    let extend = |from: &SptNode, via: NodeId, eo: f64, eb: f64| SptNode {
        objective: from.objective + eo,
        budget: from.budget + eb,
        link: via.0,
    };
    let new_pot = potentials(metric, new_seeds);
    let old_pot = potentials(metric, old_seeds);
    let mut nodes = old.to_vec();
    let mut marks = Marks {
        reset: vec![false; old.len()],
        seen: vec![false; old.len()],
        touched: Vec::new(),
    };

    // 1. Roots: tails of changed tree edges, seeds that got worse.
    let mut stack: Vec<NodeId> = Vec::new();
    let mut improved: Vec<NodeId> = Vec::new();
    for &(dep, src) in changed {
        marks.touch(dep);
        if old[dep.index()].link == src.0 {
            stack.push(dep);
        }
    }
    for (&v, p) in &old_pot {
        match new_pot.get(&v) {
            Some(q) if q.same_bits(p) => continue,
            Some(q) if key(q) < key(p) => improved.push(v),
            _ => stack.push(v),
        }
        marks.touch(v);
    }
    for &v in new_pot.keys() {
        if !old_pot.contains_key(&v) {
            improved.push(v);
            marks.touch(v);
        }
    }

    // 2. Reset the roots' subtrees.
    let mut region: Vec<NodeId> = Vec::new();
    while let Some(x) = stack.pop() {
        if !marks.reset(x) {
            continue;
        }
        region.push(x);
        for (u, _, _) in dependents(x) {
            if old[u.index()].link == x.0 {
                stack.push(u);
            }
        }
    }
    for &x in &region {
        nodes[x.index()] = SptNode::UNREACHED;
    }

    // 3. Seed the heap.
    let mut heap = BinaryHeap::new();
    for &x in &region {
        let mut best = new_pot.get(&x).copied().unwrap_or(SptNode::UNREACHED);
        for (v, eo, eb) in sources(x) {
            let from = nodes[v.index()];
            if marks.is_reset(v) || !from.is_reachable() {
                continue;
            }
            let cand = extend(&from, v, eo, eb);
            if key(&cand) < key(&best) {
                if absorbs(&from, &cand) {
                    return None;
                }
                best = cand;
            }
        }
        nodes[x.index()] = best;
        if best.is_reachable() {
            heap.push(HeapItem {
                key: key(&best),
                node: x,
            });
        }
    }
    for &(dep, src) in changed {
        let from = nodes[src.index()];
        if marks.is_reset(dep) || marks.is_reset(src) || !from.is_reachable() {
            continue;
        }
        // A closed edge is gone from `sources`; a reopened or rescaled
        // one offers its new weight.
        let Some((_, eo, eb)) = sources(dep).find(|&(v, _, _)| v == src) else {
            continue;
        };
        let cand = extend(&from, src, eo, eb);
        if key(&cand) < key(&nodes[dep.index()]) {
            if absorbs(&from, &cand) {
                return None;
            }
            nodes[dep.index()] = cand;
            heap.push(HeapItem {
                key: key(&cand),
                node: dep,
            });
        }
    }
    for &s in &improved {
        let pot = new_pot[&s];
        if !marks.is_reset(s) && key(&pot) < key(&nodes[s.index()]) {
            nodes[s.index()] = pot;
            heap.push(HeapItem {
                key: key(&pot),
                node: s,
            });
        }
    }

    // 4. The pop loop.
    while let Some(HeapItem { key: popped, node }) = heap.pop() {
        let cur = nodes[node.index()];
        if popped > key(&cur) {
            continue; // stale entry
        }
        marks.touch(node);
        for (u, eo, eb) in dependents(node) {
            let cand = extend(&cur, node, eo, eb);
            let entry = nodes[u.index()];
            match key(&cand).partial_cmp(&key(&entry)) {
                Some(Ordering::Less) => {
                    if absorbs(&cur, &cand) {
                        return None;
                    }
                    nodes[u.index()] = cand;
                    heap.push(HeapItem {
                        key: key(&cand),
                        node: u,
                    });
                }
                // A new tie: `u`'s canonical link may change.
                Some(Ordering::Equal) => marks.touch(u),
                // `u` took its key from an older, larger key of `node`,
                // yet the smaller key extends to a larger one: rounding
                // broke monotonicity, and `u` could need a worse key.
                _ if entry.link == node.0 => return None,
                _ => {}
            }
        }
    }

    // 5. Canonical links.
    for &x in &marks.touched {
        let cur = nodes[x.index()];
        if !cur.is_reachable() {
            continue;
        }
        if new_pot.get(&x).is_some_and(|p| key(p) == key(&cur)) {
            nodes[x.index()] = new_pot[&x];
            continue;
        }
        let mut best: Option<((f64, f64), NodeId)> = None;
        for (v, eo, eb) in sources(x) {
            let from = nodes[v.index()];
            let cand = extend(&from, v, eo, eb);
            if !from.is_reachable() || key(&cand) != key(&cur) {
                continue;
            }
            if absorbs(&from, &cand) {
                return None;
            }
            if best.is_none_or(|b| (key(&from), v) < b) {
                best = Some((key(&from), v));
            }
        }
        // Every reached non-seed key is achieved through some neighbour.
        nodes[x.index()].link = best?.1 .0;
    }

    let unchanged = marks
        .touched
        .iter()
        .all(|&x| nodes[x.index()].same_bits(&old[x.index()]));
    Some((!unchanged).then_some(nodes))
}

/// Computes a backward tree: for every node `v`, the lexicographically
/// minimal cost of a forward path from `v` into the seed set, where each
/// seed contributes an initial potential `(objective, budget)`.
///
/// With a single seed `(t, 0, 0)` and [`Metric::Objective`] this yields
/// `OS(τ_{v,t})` / `BS(τ_{v,t})` for all `v` — the to-target bounds used
/// throughout Algorithms 1 and 2.
pub fn backward_tree(graph: &Graph, metric: Metric, seeds: &[(NodeId, f64, f64)]) -> Tree {
    build(graph, metric, Direction::Backward, seeds)
}

/// Computes a forward tree: costs of paths **from** `source` to every
/// node. Used by the greedy algorithm's pairwise lookups.
pub fn forward_tree(graph: &Graph, metric: Metric, source: NodeId) -> Tree {
    build(graph, metric, Direction::Forward, &[(source, 0.0, 0.0)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, v};
    use kor_graph::GraphBuilder;

    #[test]
    fn tau_to_target_matches_paper() {
        // §3.1: τ(0,7) has OS 4, BS 7; Example 2: OS(τ3,7)=2 with BS 5,
        // OS(τ5,7)=3 with BS 4.
        let g = figure1();
        let tau = backward_tree(&g, Metric::Objective, &[(v(7), 0.0, 0.0)]);
        assert_eq!(tau.objective(v(0)), 4.0);
        assert_eq!(tau.budget(v(0)), 7.0);
        assert_eq!(tau.objective(v(3)), 2.0);
        assert_eq!(tau.budget(v(3)), 5.0);
        assert_eq!(tau.objective(v(5)), 3.0);
        assert_eq!(tau.budget(v(5)), 4.0);
        assert_eq!(
            tau.walk_to_seed(v(0)).unwrap(),
            vec![v(0), v(3), v(4), v(7)]
        );
    }

    #[test]
    fn sigma_to_target_matches_paper() {
        // §3.1: σ(0,7) has OS 9, BS 5; Example 2: BS(σ6,7) = 7.
        let g = figure1();
        let sigma = backward_tree(&g, Metric::Budget, &[(v(7), 0.0, 0.0)]);
        assert_eq!(sigma.budget(v(0)), 5.0);
        assert_eq!(sigma.objective(v(0)), 9.0);
        assert_eq!(sigma.budget(v(6)), 7.0);
        assert_eq!(
            sigma.walk_to_seed(v(0)).unwrap(),
            vec![v(0), v(3), v(5), v(7)]
        );
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let g = figure1();
        // v1 (keyword t5) has no outgoing edges, so it cannot reach v7.
        let tau = backward_tree(&g, Metric::Objective, &[(v(7), 0.0, 0.0)]);
        assert!(!tau.is_reachable(v(1)));
        assert!(tau.objective(v(1)).is_infinite());
        assert_eq!(tau.walk_to_seed(v(1)), None);
        assert_eq!(tau.terminal(v(1)), None);
    }

    #[test]
    fn seed_has_zero_cost_and_is_own_terminal() {
        let g = figure1();
        let tau = backward_tree(&g, Metric::Objective, &[(v(7), 0.0, 0.0)]);
        assert_eq!(tau.objective(v(7)), 0.0);
        assert_eq!(tau.budget(v(7)), 0.0);
        assert_eq!(tau.terminal(v(7)), Some(v(7)));
        assert_eq!(tau.walk_to_seed(v(7)).unwrap(), vec![v(7)]);
    }

    #[test]
    fn multi_seed_picks_nearest() {
        let g = figure1();
        // Seeds at the two t1 nodes, v3 and v6, minimizing budget: from v2
        // the nearest t1 node by budget is v6 (edge budget 1) not v3 (2).
        let t1_tree = backward_tree(&g, Metric::Budget, &[(v(3), 0.0, 0.0), (v(6), 0.0, 0.0)]);
        assert_eq!(t1_tree.budget(v(2)), 1.0);
        assert_eq!(t1_tree.terminal(v(2)), Some(v(6)));
        assert_eq!(t1_tree.budget(v(0)), 2.0);
        assert_eq!(t1_tree.terminal(v(0)), Some(v(3)));
    }

    #[test]
    fn potentials_shift_the_optimum() {
        let g = figure1();
        // Same seeds, but v6 starts with a potential of 5 budget: now v3
        // wins from v2 (2 < 1+5).
        let tree = backward_tree(&g, Metric::Budget, &[(v(3), 0.0, 0.0), (v(6), 0.0, 5.0)]);
        assert_eq!(tree.budget(v(2)), 2.0);
        assert_eq!(tree.terminal(v(2)), Some(v(3)));
    }

    #[test]
    fn forward_tree_from_source() {
        let g = figure1();
        let from0 = forward_tree(&g, Metric::Objective, v(0));
        assert_eq!(from0.objective(v(7)), 4.0);
        assert_eq!(from0.budget(v(7)), 7.0);
        assert_eq!(
            from0.walk_from_source(v(7)).unwrap(),
            vec![v(0), v(3), v(4), v(7)]
        );
        assert_eq!(from0.objective(v(0)), 0.0);
    }

    #[test]
    fn lexicographic_tie_break_prefers_smaller_secondary() {
        // Two parallel routes with equal objective but different budget:
        // the tree must pick the cheaper-budget one.
        let mut b = GraphBuilder::new();
        let s = b.add_node(["s"]);
        let a = b.add_node(["a"]);
        let c = b.add_node(["c"]);
        let t = b.add_node(["t"]);
        b.add_edge(s, a, 1.0, 10.0).unwrap();
        b.add_edge(a, t, 1.0, 10.0).unwrap();
        b.add_edge(s, c, 1.0, 1.0).unwrap();
        b.add_edge(c, t, 1.0, 1.0).unwrap();
        let g = b.build().unwrap();
        let tau = backward_tree(&g, Metric::Objective, &[(t, 0.0, 0.0)]);
        assert_eq!(tau.objective(s), 2.0);
        assert_eq!(tau.budget(s), 2.0);
        assert_eq!(tau.walk_to_seed(s).unwrap(), vec![s, c, t]);
    }

    #[test]
    fn empty_seed_set_reaches_nothing() {
        let g = figure1();
        let tree = backward_tree(&g, Metric::Budget, &[]);
        for n in g.nodes() {
            assert!(!tree.is_reachable(n));
        }
    }

    /// A `side × side` grid with an edge each way between neighbours:
    /// every weight `1.0` when `unit` (ties everywhere), else seeded
    /// random weights.
    fn grid(side: u32, unit: bool, seed: u64) -> Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new();
        for i in 0..side * side {
            b.add_node([format!("k{}", i % 7).as_str()]);
        }
        for r in 0..side {
            for c in 0..side {
                let here = NodeId(r * side + c);
                let mut near = Vec::new();
                if c + 1 < side {
                    near.push(NodeId(r * side + c + 1));
                }
                if r + 1 < side {
                    near.push(NodeId((r + 1) * side + c));
                }
                for there in near {
                    for (from, to) in [(here, there), (there, here)] {
                        let (o, w) = if unit {
                            (1.0, 1.0)
                        } else {
                            (rng.gen_range(0.1..2.0), rng.gen_range(0.1..2.0))
                        };
                        b.add_edge(from, to, o, w).unwrap();
                    }
                }
            }
        }
        b.build().unwrap()
    }

    /// One random batch: closures, scalings up and down, and reopenings
    /// of edges closed earlier (recorded in `closed`).
    fn random_batch(
        g: &Graph,
        rng: &mut rand::rngs::StdRng,
        closed: &mut Vec<(NodeId, NodeId, f64, f64)>,
    ) -> Vec<EdgeMutation> {
        use rand::Rng;
        let pairs: Vec<(NodeId, NodeId, f64, f64)> = g
            .nodes()
            .flat_map(|u| {
                g.out_edges(u)
                    .map(move |e| (u, e.node, e.objective, e.budget))
            })
            .collect();
        let mut batch: Vec<EdgeMutation> = Vec::new();
        let fresh = |batch: &[EdgeMutation], from: NodeId, to: NodeId| {
            batch.iter().all(|m| (m.from, m.to) != (from, to))
        };
        for _ in 0..rng.gen_range(0..3usize) {
            if let Some(i) = (!closed.is_empty()).then(|| rng.gen_range(0..closed.len())) {
                let (from, to, o, b) = closed.swap_remove(i);
                batch.push(EdgeMutation::reopen(from, to, o, b));
            }
        }
        for _ in 0..rng.gen_range(1..4usize) {
            let (from, to, o, b) = pairs[rng.gen_range(0..pairs.len())];
            if fresh(&batch, from, to) {
                closed.push((from, to, o, b));
                batch.push(EdgeMutation::close(from, to));
            }
        }
        for _ in 0..rng.gen_range(1..5usize) {
            let (from, to, _, _) = pairs[rng.gen_range(0..pairs.len())];
            let factor = [0.5, 2.0, 1.0, 3.0][rng.gen_range(0..4usize)];
            if fresh(&batch, from, to) {
                batch.push(EdgeMutation::scale(from, to, factor, 1.0 / factor.max(1.0)));
            }
        }
        batch
    }

    fn assert_bit_equal(got: &Tree, want: &Tree, what: &str) {
        assert_eq!(got.nodes.len(), want.nodes.len());
        for (i, (a, b)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            assert!(
                a.same_bits(b),
                "{what}: node {i}: repaired {a:?}, cold {b:?}"
            );
        }
    }

    /// Opt-2-style seeds: every node holding `kw` with `ctx`'s cost as
    /// potential.
    fn seeded_by(g: &Graph, ctx: &Tree, kw: &str) -> Vec<(NodeId, f64, f64)> {
        let kw = g.vocab().get(kw).unwrap();
        g.nodes()
            .filter(|&n| g.node_has_keyword(n, kw) && ctx.is_reachable(n))
            .map(|n| (n, ctx.objective(n), ctx.budget(n)))
            .collect()
    }

    #[test]
    fn repair_equals_cold_builds_bit_for_bit_under_random_batches() {
        use rand::SeedableRng;
        let (mut repaired, mut unchanged) = (0, 0);
        for (unit, seed) in [(true, 1u64), (false, 2), (true, 3), (false, 4)] {
            let mut g = grid(7, unit, seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut closed = Vec::new();
            let target = NodeId(24);
            let ctx_seeds = vec![(target, 0.0, 0.0)];
            let mut tau = backward_tree(&g, Metric::Objective, &ctx_seeds);
            let mut sigma = backward_tree(&g, Metric::Budget, &ctx_seeds);
            let mut opt2 = backward_tree(&g, Metric::Objective, &seeded_by(&g, &tau, "k3"));
            let k5 = g.vocab().get("k5").unwrap();
            let reach_seeds: Vec<_> = g
                .nodes()
                .filter(|&n| g.node_has_keyword(n, k5))
                .map(|n| (n, 0.0, 0.0))
                .collect();
            let mut reach = backward_tree(&g, Metric::Budget, &reach_seeds);
            let mut forward: Vec<Tree> = [0, 17, 48]
                .map(|s| forward_tree(&g, Metric::Objective, NodeId(s)))
                .into();
            for step in 0..30 {
                let batch = random_batch(&g, &mut rng, &mut closed);
                let next = g.apply_mutations(&batch).unwrap();
                let mut check = |tree: &mut Tree,
                                 new: &[(NodeId, f64, f64)],
                                 old: &[(NodeId, f64, f64)]| {
                    let what = format!("unit {unit} seed {seed} step {step} {:?}", tree.direction);
                    let cold = build(&next, tree.metric, tree.direction, new);
                    match tree.repair(&next, new, old, &batch) {
                        Repair::Unchanged => unchanged += 1,
                        Repair::Repaired(t) => {
                            repaired += 1;
                            *tree = t;
                        }
                        Repair::Rebuilt(_) => panic!("{what}: unexpected cold fallback"),
                    }
                    assert_bit_equal(tree, &cold, &what);
                };
                let old_opt2_seeds = seeded_by(&g, &tau, "k3");
                check(&mut tau, &ctx_seeds, &ctx_seeds);
                check(&mut sigma, &ctx_seeds, &ctx_seeds);
                check(&mut opt2, &seeded_by(&next, &tau, "k3"), &old_opt2_seeds);
                check(&mut reach, &reach_seeds, &reach_seeds);
                for (i, tree) in forward.iter_mut().enumerate() {
                    let source = [(NodeId([0, 17, 48][i]), 0.0, 0.0)];
                    check(tree, &source, &source);
                }
                g = next;
            }
        }
        assert!(
            repaired > 100 && unchanged > 10,
            "{repaired} repaired, {unchanged} unchanged"
        );
    }

    #[test]
    fn untouched_tree_is_reported_unchanged() {
        // Only v0..v3 reach v1; a change behind v7 cannot touch v1's tree.
        let g = figure1();
        let seeds = [(v(1), 0.0, 0.0)];
        let tree = backward_tree(&g, Metric::Objective, &seeds);
        let batch = [EdgeMutation::scale(v(4), v(7), 2.0, 2.0)];
        let next = g.apply_mutations(&batch).unwrap();
        assert!(matches!(
            tree.repair(&next, &seeds, &seeds, &batch),
            Repair::Unchanged
        ));
    }

    #[test]
    fn absorbed_relaxation_rebuilds_cold() {
        // key(y) = key(x) + 1e-20 == key(x) in the objective: equal keys
        // could pop out of node-id order, so the repair must not guess.
        let mut b = GraphBuilder::new();
        let t = b.add_node(["t"]);
        let x = b.add_node(["x"]);
        let y = b.add_node(["y"]);
        b.add_edge(x, t, 1.0, 1.0).unwrap();
        b.add_edge(y, x, 1e-20, 1.0).unwrap();
        let g = b.build().unwrap();
        let seeds = [(t, 0.0, 0.0)];
        let tree = backward_tree(&g, Metric::Objective, &seeds);
        let batch = [EdgeMutation::scale(x, t, 2.0, 1.0)];
        let next = g.apply_mutations(&batch).unwrap();
        match tree.repair(&next, &seeds, &seeds, &batch) {
            Repair::Rebuilt(t2) => assert_bit_equal(
                &t2,
                &backward_tree(&next, Metric::Objective, &seeds),
                "rebuilt",
            ),
            other => panic!("expected a cold rebuild, got {other:?}"),
        }
    }

    #[test]
    fn metric_accessor() {
        let g = figure1();
        let tree = backward_tree(&g, Metric::Budget, &[(v(7), 0.0, 0.0)]);
        assert_eq!(tree.metric(), Metric::Budget);
    }
}
