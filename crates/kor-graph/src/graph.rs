//! The immutable CSR graph.

use crate::ids::{EdgeId, KeywordId, NodeId};
use crate::keyword::{KeywordSet, Vocab};
use crate::stats::GraphStats;

/// A directed edge seen from one endpoint.
///
/// For [`Graph::out_edges`], `node` is the edge *target*; for
/// [`Graph::in_edges`], `node` is the edge *source*. `id` always refers to
/// the canonical forward edge id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Canonical edge id (stable across forward/backward views).
    pub id: EdgeId,
    /// The endpoint on the far side of the adjacency being iterated.
    pub node: NodeId,
    /// Objective value `o(v_i, v_j)`.
    pub objective: f64,
    /// Budget value `b(v_i, v_j)`.
    pub budget: f64,
}

/// Borrowed view of the forward CSR arrays — the serialization surface
/// used by binary dataset snapshots (`kor-data`'s `.korbin` format).
///
/// Together with [`Graph::keywords`], [`Graph::positions`], and
/// [`Graph::vocab`], these four parallel arrays fully determine a graph;
/// [`Graph::from_csr_parts`] rebuilds one (re-deriving the backward CSR
/// and weight extrema) after validating every invariant the
/// [`crate::GraphBuilder`] enforces.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a> {
    /// `node_count + 1` offsets into the edge arrays.
    pub out_offsets: &'a [u32],
    /// Edge targets, grouped by source node.
    pub out_targets: &'a [NodeId],
    /// Objective value per edge, parallel to `out_targets`.
    pub out_objective: &'a [f64],
    /// Budget value per edge, parallel to `out_targets`.
    pub out_budget: &'a [f64],
}

/// An immutable directed graph with per-node keyword sets and two positive
/// weights per edge, stored as CSR adjacency in both directions.
///
/// Construct with [`crate::GraphBuilder`].
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Graph {
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    out_objective: Vec<f64>,
    out_budget: Vec<f64>,
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    in_objective: Vec<f64>,
    in_budget: Vec<f64>,
    in_edge_ids: Vec<EdgeId>,
    keywords: Vec<KeywordSet>,
    positions: Option<Vec<(f64, f64)>>,
    vocab: Vocab,
    /// `[o_min, o_max, b_min, b_max]`; `o_min`/`b_min` are `+inf` for an
    /// edgeless graph.
    extrema: [f64; 4],
    /// Mutation generation counter — bumped by
    /// [`Graph::apply_mutations`]. Runtime-only: snapshots do not store
    /// it, so a freshly loaded or deserialized graph is always epoch 0.
    #[cfg_attr(feature = "serde", serde(skip))]
    epoch: u64,
}

// Reflexive `AsRef`, so APIs generic over "some handle to a graph"
// (`G: AsRef<Graph>`) accept `&Graph`, `Arc<Graph>`, and `&Arc<Graph>`
// alike — see `kor_core::KorEngine`.
impl AsRef<Graph> for Graph {
    fn as_ref(&self) -> &Graph {
        self
    }
}

impl Graph {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        out_objective: Vec<f64>,
        out_budget: Vec<f64>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
        in_objective: Vec<f64>,
        in_budget: Vec<f64>,
        in_edge_ids: Vec<EdgeId>,
        keywords: Vec<KeywordSet>,
        positions: Option<Vec<(f64, f64)>>,
        vocab: Vocab,
        extrema: [f64; 4],
    ) -> Self {
        Self {
            out_offsets,
            out_targets,
            out_objective,
            out_budget,
            in_offsets,
            in_sources,
            in_objective,
            in_budget,
            in_edge_ids,
            keywords,
            positions,
            vocab,
            extrema,
            epoch: 0,
        }
    }

    /// Mutation generation of this graph value: 0 for a freshly built or
    /// loaded graph, incremented once per applied mutation batch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Renumbers this graph's epoch without touching its structure.
    ///
    /// Snapshots do not store the epoch, so a graph reloaded from a
    /// checkpoint taken at epoch `E` comes back as epoch 0; journal
    /// recovery uses this to restore the pre-crash numbering before
    /// replaying the batches that follow the checkpoint. Outside
    /// recovery, the epoch should only ever move via
    /// [`Graph::apply_mutations`].
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.keywords.len()
    }

    /// Number of directed edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterates all node ids `v0..v_{n-1}`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Whether `v` is a valid node id for this graph.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        v.index() < self.node_count()
    }

    /// Outgoing edges of `v` (the `node` field is the target).
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        (lo..hi).map(move |i| EdgeRef {
            id: EdgeId(i as u32),
            node: self.out_targets[i],
            objective: self.out_objective[i],
            budget: self.out_budget[i],
        })
    }

    /// Incoming edges of `v` (the `node` field is the source).
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        (lo..hi).map(move |i| EdgeRef {
            id: self.in_edge_ids[i],
            node: self.in_sources[i],
            objective: self.in_objective[i],
            budget: self.in_budget[i],
        })
    }

    /// The out-edges of `v` as parallel slices: targets, objective
    /// weights and budget weights, in [`Self::out_edges`] order.
    #[inline]
    pub fn out_adjacency(&self, v: NodeId) -> (&[NodeId], &[f64], &[f64]) {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        (
            &self.out_targets[lo..hi],
            &self.out_objective[lo..hi],
            &self.out_budget[lo..hi],
        )
    }

    /// The in-edges of `v` as parallel slices: sources, objective
    /// weights and budget weights, in [`Self::in_edges`] order.
    #[inline]
    pub fn in_adjacency(&self, v: NodeId) -> (&[NodeId], &[f64], &[f64]) {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        (
            &self.in_sources[lo..hi],
            &self.in_objective[lo..hi],
            &self.in_budget[lo..hi],
        )
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        (self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    /// Largest out-degree in the graph (`d` in the paper's brute-force
    /// complexity `O(d^{⌊Δ/b_min⌋})`).
    pub fn max_out_degree(&self) -> usize {
        self.nodes().map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// The directed edge `from → to`, if present (linear scan of the
    /// out-adjacency of `from`, which is short in practice).
    pub fn edge_between(&self, from: NodeId, to: NodeId) -> Option<EdgeRef> {
        self.out_edges(from).find(|e| e.node == to)
    }

    /// Keyword set `v.ψ` of node `v`.
    #[inline]
    pub fn keywords(&self, v: NodeId) -> &KeywordSet {
        &self.keywords[v.index()]
    }

    /// Whether node `v` contains keyword `t`.
    #[inline]
    pub fn node_has_keyword(&self, v: NodeId, t: KeywordId) -> bool {
        self.keywords[v.index()].contains(t)
    }

    /// Planar position of `v`, if the graph was built with positions.
    pub fn position(&self, v: NodeId) -> Option<(f64, f64)> {
        self.positions.as_ref().map(|p| p[v.index()])
    }

    /// Whether positional data is available.
    pub fn has_positions(&self) -> bool {
        self.positions.is_some()
    }

    /// The keyword vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Smallest edge objective value `o_min` (`+inf` if edgeless).
    #[inline]
    pub fn o_min(&self) -> f64 {
        self.extrema[0]
    }

    /// Largest edge objective value `o_max` (`0` if edgeless).
    #[inline]
    pub fn o_max(&self) -> f64 {
        self.extrema[1]
    }

    /// Smallest edge budget value `b_min` (`+inf` if edgeless).
    #[inline]
    pub fn b_min(&self) -> f64 {
        self.extrema[2]
    }

    /// Largest edge budget value `b_max` (`0` if edgeless).
    #[inline]
    pub fn b_max(&self) -> f64 {
        self.extrema[3]
    }

    /// Summary statistics (degree distribution, weight extrema, keywords).
    pub fn stats(&self) -> GraphStats {
        GraphStats::compute(self)
    }

    /// Iterates `(node, keyword)` pairs — the raw postings used to build
    /// inverted indexes.
    pub fn keyword_postings(&self) -> impl Iterator<Item = (NodeId, KeywordId)> + '_ {
        self.nodes()
            .flat_map(move |v| self.keywords(v).iter().map(move |t| (v, t)))
    }

    /// Restores internal lookup tables after deserialization.
    #[cfg(feature = "serde")]
    pub fn rebuild_after_deserialize(&mut self) {
        self.vocab.rebuild_lookup();
    }

    /// Borrowed view of the forward CSR arrays (see [`CsrView`]).
    pub fn csr(&self) -> CsrView<'_> {
        CsrView {
            out_offsets: &self.out_offsets,
            out_targets: &self.out_targets,
            out_objective: &self.out_objective,
            out_budget: &self.out_budget,
        }
    }

    /// All planar positions, if the graph was built with them.
    pub fn positions(&self) -> Option<&[(f64, f64)]> {
        self.positions.as_deref()
    }

    /// Rebuilds a graph from forward CSR parts — the inverse of
    /// [`Self::csr`] plus the node payloads.
    ///
    /// Every invariant the [`crate::GraphBuilder`] enforces is
    /// re-validated (offset monotonicity, endpoint ranges, self-loops,
    /// duplicate edges, positive finite weights, keyword ids within the
    /// vocabulary), so a corrupt or hand-crafted snapshot can never
    /// produce a graph other code paths could not have built. The
    /// backward CSR and weight extrema are re-derived, which makes the
    /// deserialized graph structurally identical to the original without
    /// storing the redundant arrays.
    ///
    /// # Errors
    ///
    /// [`crate::GraphError::InvalidCsr`] describes the first violated
    /// invariant; [`crate::GraphError::SelfLoop`],
    /// [`crate::GraphError::DuplicateEdge`], and
    /// [`crate::GraphError::InvalidWeight`] are reused for the
    /// per-edge checks.
    pub fn from_csr_parts(
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        out_objective: Vec<f64>,
        out_budget: Vec<f64>,
        keywords: Vec<KeywordSet>,
        positions: Option<Vec<(f64, f64)>>,
        vocab: Vocab,
    ) -> Result<Graph, crate::error::GraphError> {
        use crate::error::GraphError;

        let n = keywords.len();
        let m = out_targets.len();
        if out_offsets.len() != n + 1 {
            return Err(GraphError::InvalidCsr(format!(
                "offset array has {} entries, expected {}",
                out_offsets.len(),
                n + 1
            )));
        }
        if out_offsets[0] != 0 || out_offsets[n] as usize != m {
            return Err(GraphError::InvalidCsr(format!(
                "offsets must span 0..{m}, got {}..{}",
                out_offsets[0], out_offsets[n]
            )));
        }
        if out_objective.len() != m || out_budget.len() != m {
            return Err(GraphError::InvalidCsr(format!(
                "weight arrays ({}, {}) do not match {m} edges",
                out_objective.len(),
                out_budget.len()
            )));
        }
        if let Some(p) = &positions {
            if p.len() != n {
                return Err(GraphError::InvalidCsr(format!(
                    "{} positions for {n} nodes",
                    p.len()
                )));
            }
        }
        for w in out_offsets.windows(2) {
            if w[0] > w[1] {
                return Err(GraphError::InvalidCsr(format!(
                    "offsets must be non-decreasing, got {} before {}",
                    w[0], w[1]
                )));
            }
        }
        for set in &keywords {
            for t in set.iter() {
                if t.index() >= vocab.len() {
                    return Err(GraphError::InvalidCsr(format!(
                        "keyword id {} outside the {}-term vocabulary",
                        t.0,
                        vocab.len()
                    )));
                }
            }
        }
        // Per-edge checks. `seen_from` is a stamp array giving O(V + E)
        // duplicate detection without hashing: a slot holds the id of the
        // last source that targeted it (u32::MAX = never).
        let mut seen_from = vec![u32::MAX; n];
        let mut o_min = f64::INFINITY;
        let mut o_max = 0.0f64;
        let mut b_min = f64::INFINITY;
        let mut b_max = 0.0f64;
        for v in 0..n {
            let (lo, hi) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
            let from = NodeId(v as u32);
            for slot in lo..hi {
                let to = out_targets[slot];
                if to.index() >= n {
                    return Err(GraphError::UnknownNode(to));
                }
                if to == from {
                    return Err(GraphError::SelfLoop(from));
                }
                if seen_from[to.index()] == v as u32 {
                    return Err(GraphError::DuplicateEdge { from, to });
                }
                seen_from[to.index()] = v as u32;
                for (attribute, value) in [
                    ("objective", out_objective[slot]),
                    ("budget", out_budget[slot]),
                ] {
                    if !value.is_finite() || value <= 0.0 {
                        return Err(GraphError::InvalidWeight {
                            from,
                            to,
                            attribute,
                            value,
                        });
                    }
                }
                o_min = o_min.min(out_objective[slot]);
                o_max = o_max.max(out_objective[slot]);
                b_min = b_min.min(out_budget[slot]);
                b_max = b_max.max(out_budget[slot]);
            }
        }

        // Backward CSR, remembering the forward edge id of each in-edge
        // (the same derivation as GraphBuilder::build).
        let mut in_offsets = vec![0u32; n + 1];
        for t in &out_targets {
            in_offsets[t.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![NodeId(0); m];
        let mut in_objective = vec![0.0f64; m];
        let mut in_budget = vec![0.0f64; m];
        let mut in_edge_ids = vec![EdgeId(0); m];
        for v in 0..n {
            let (lo, hi) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
            for slot in lo..hi {
                let t = out_targets[slot];
                let dst = cursor[t.index()] as usize;
                cursor[t.index()] += 1;
                in_sources[dst] = NodeId(v as u32);
                in_objective[dst] = out_objective[slot];
                in_budget[dst] = out_budget[slot];
                in_edge_ids[dst] = EdgeId(slot as u32);
            }
        }

        Ok(Graph::from_parts(
            out_offsets,
            out_targets,
            out_objective,
            out_budget,
            in_offsets,
            in_sources,
            in_objective,
            in_budget,
            in_edge_ids,
            keywords,
            positions,
            vocab,
            [o_min, o_max, b_min, b_max],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // v0 -> v1 -> v3, v0 -> v2 -> v3
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["s"]);
        let v1 = b.add_node(["a"]);
        let v2 = b.add_node(["b"]);
        let v3 = b.add_node(["t"]);
        b.add_edge(v0, v1, 1.0, 1.0).unwrap();
        b.add_edge(v0, v2, 2.0, 2.0).unwrap();
        b.add_edge(v1, v3, 3.0, 3.0).unwrap();
        b.add_edge(v2, v3, 4.0, 4.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.max_out_degree(), 2);
    }

    #[test]
    fn edge_between_finds_weights() {
        let g = diamond();
        let e = g.edge_between(NodeId(1), NodeId(3)).unwrap();
        assert_eq!(e.objective, 3.0);
        assert_eq!(e.budget, 3.0);
        assert!(g.edge_between(NodeId(3), NodeId(0)).is_none());
    }

    #[test]
    fn in_edges_report_canonical_edge_ids() {
        let g = diamond();
        for v in g.nodes() {
            for e in g.in_edges(v) {
                // The forward view of the same edge id must agree.
                let fwd = g
                    .out_edges(e.node)
                    .find(|f| f.id == e.id)
                    .expect("in-edge id must exist in source's out list");
                assert_eq!(fwd.node, v);
                assert_eq!(fwd.objective, e.objective);
                assert_eq!(fwd.budget, e.budget);
            }
        }
    }

    #[test]
    fn keyword_postings_cover_all_nodes() {
        let g = diamond();
        let postings: Vec<_> = g.keyword_postings().collect();
        assert_eq!(postings.len(), 4);
        assert!(postings.iter().any(|&(v, _)| v == NodeId(2)));
    }

    #[test]
    fn contains_checks_range() {
        let g = diamond();
        assert!(g.contains(NodeId(3)));
        assert!(!g.contains(NodeId(4)));
    }

    #[test]
    fn node_has_keyword() {
        let g = diamond();
        let s = g.vocab().get("s").unwrap();
        assert!(g.node_has_keyword(NodeId(0), s));
        assert!(!g.node_has_keyword(NodeId(1), s));
    }

    /// Decomposes a graph via the serialization accessors and rebuilds it.
    fn csr_round_trip(g: &Graph) -> Result<Graph, crate::error::GraphError> {
        let csr = g.csr();
        Graph::from_csr_parts(
            csr.out_offsets.to_vec(),
            csr.out_targets.to_vec(),
            csr.out_objective.to_vec(),
            csr.out_budget.to_vec(),
            g.nodes().map(|v| g.keywords(v).clone()).collect(),
            g.positions().map(<[_]>::to_vec),
            g.vocab().clone(),
        )
    }

    #[test]
    fn from_csr_parts_round_trips() {
        let g = diamond();
        let g2 = csr_round_trip(&g).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(
                g2.out_edges(v).collect::<Vec<_>>(),
                g.out_edges(v).collect::<Vec<_>>()
            );
            assert_eq!(
                g2.in_edges(v).collect::<Vec<_>>(),
                g.in_edges(v).collect::<Vec<_>>()
            );
            assert_eq!(g2.keywords(v), g.keywords(v));
        }
        assert_eq!(g2.o_min(), g.o_min());
        assert_eq!(g2.o_max(), g.o_max());
        assert_eq!(g2.b_min(), g.b_min());
        assert_eq!(g2.b_max(), g.b_max());
        assert_eq!(g2.vocab().get("s"), g.vocab().get("s"));
        // An empty graph survives too.
        let empty = crate::builder::GraphBuilder::new().build().unwrap();
        let empty2 = csr_round_trip(&empty).unwrap();
        assert_eq!(empty2.node_count(), 0);
        assert_eq!(empty2.edge_count(), 0);
    }

    #[test]
    fn from_csr_parts_rejects_corruption() {
        use crate::error::GraphError;
        let g = diamond();
        let csr = g.csr();
        let kw = || -> Vec<KeywordSet> { g.nodes().map(|v| g.keywords(v).clone()).collect() };

        // Wrong offset shape.
        let err = Graph::from_csr_parts(
            vec![0, 1],
            csr.out_targets.to_vec(),
            csr.out_objective.to_vec(),
            csr.out_budget.to_vec(),
            kw(),
            None,
            g.vocab().clone(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidCsr(_)), "{err}");

        // Target outside the node range.
        let mut targets = csr.out_targets.to_vec();
        targets[0] = NodeId(99);
        let err = Graph::from_csr_parts(
            csr.out_offsets.to_vec(),
            targets,
            csr.out_objective.to_vec(),
            csr.out_budget.to_vec(),
            kw(),
            None,
            g.vocab().clone(),
        )
        .unwrap_err();
        assert_eq!(err, GraphError::UnknownNode(NodeId(99)));

        // Self loop.
        let mut targets = csr.out_targets.to_vec();
        targets[0] = NodeId(0);
        assert!(matches!(
            Graph::from_csr_parts(
                csr.out_offsets.to_vec(),
                targets,
                csr.out_objective.to_vec(),
                csr.out_budget.to_vec(),
                kw(),
                None,
                g.vocab().clone(),
            ),
            Err(GraphError::SelfLoop(NodeId(0)))
        ));

        // Duplicate edge (v0 -> v1 twice).
        let mut targets = csr.out_targets.to_vec();
        targets[1] = targets[0];
        assert!(matches!(
            Graph::from_csr_parts(
                csr.out_offsets.to_vec(),
                targets,
                csr.out_objective.to_vec(),
                csr.out_budget.to_vec(),
                kw(),
                None,
                g.vocab().clone(),
            ),
            Err(GraphError::DuplicateEdge { .. })
        ));

        // Non-positive weight.
        let mut objective = csr.out_objective.to_vec();
        objective[2] = -1.0;
        assert!(matches!(
            Graph::from_csr_parts(
                csr.out_offsets.to_vec(),
                csr.out_targets.to_vec(),
                objective,
                csr.out_budget.to_vec(),
                kw(),
                None,
                g.vocab().clone(),
            ),
            Err(GraphError::InvalidWeight { .. })
        ));

        // Keyword id outside the vocabulary.
        let mut bad_kw = kw();
        bad_kw[0] = KeywordSet::new(vec![crate::ids::KeywordId(1000)]);
        assert!(matches!(
            Graph::from_csr_parts(
                csr.out_offsets.to_vec(),
                csr.out_targets.to_vec(),
                csr.out_objective.to_vec(),
                csr.out_budget.to_vec(),
                bad_kw,
                None,
                g.vocab().clone(),
            ),
            Err(GraphError::InvalidCsr(_))
        ));

        // Position count mismatch.
        assert!(matches!(
            Graph::from_csr_parts(
                csr.out_offsets.to_vec(),
                csr.out_targets.to_vec(),
                csr.out_objective.to_vec(),
                csr.out_budget.to_vec(),
                kw(),
                Some(vec![(0.0, 0.0)]),
                g.vocab().clone(),
            ),
            Err(GraphError::InvalidCsr(_))
        ));
    }

    #[cfg(feature = "serde")]
    #[test]
    fn graph_clone_preserves_structure() {
        let g = diamond();
        let g2 = g.clone();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(
            g2.out_edges(NodeId(0)).collect::<Vec<_>>(),
            g.out_edges(NodeId(0)).collect::<Vec<_>>()
        );
    }
}
