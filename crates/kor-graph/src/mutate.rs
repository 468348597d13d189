//! Live edge mutations: closures, reopenings, and weight scaling.
//!
//! A mutation batch turns one immutable [`Graph`] into another — the
//! graph itself never changes in place, so every engine holding the old
//! graph keeps answering consistently while the new graph is built and
//! swapped in. Mutations address edges by their `(from, to)` node pair,
//! **not** by [`crate::EdgeId`]: closing an edge shifts every later CSR
//! slot, so edge ids are only stable within one graph value.
//!
//! [`Graph::apply_mutations`] is deterministic, and its output edge
//! order is part of the contract: surviving edges keep their relative
//! order within each source's adjacency, and reopened edges are
//! appended at the end of their source's adjacency in ascending target
//! order. So the mutated graph is a pure function of the old graph and
//! the batch, and a replayed script yields a byte-identical snapshot.
//!
//! Each successful batch bumps the graph's [`Graph::epoch`] counter by
//! one, giving services a cheap "which world answered this query"
//! marker.

use std::collections::HashMap;
use std::fmt;

use crate::graph::Graph;
use crate::ids::NodeId;

/// What a mutation does to its `(from, to)` edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MutationKind {
    /// Remove the edge (a road closure). The edge must exist.
    Close,
    /// Re-add a previously closed edge with explicit weights (typically
    /// the original ones, recorded before the closure). The edge must
    /// not exist; both weights must be finite and positive.
    Reopen {
        /// Objective value of the reopened edge.
        objective: f64,
        /// Budget value of the reopened edge.
        budget: f64,
    },
    /// Multiply the edge's weights (a rush-hour slowdown or recovery).
    /// The edge must exist; both multipliers must be finite and
    /// positive, and the scaled weights must stay finite and positive.
    Scale {
        /// Multiplier applied to the objective value.
        objective: f64,
        /// Multiplier applied to the budget value.
        budget: f64,
    },
}

impl MutationKind {
    /// Stable name used in wire payloads and scripts.
    pub fn op_name(&self) -> &'static str {
        match self {
            MutationKind::Close => "close",
            MutationKind::Reopen { .. } => "reopen",
            MutationKind::Scale { .. } => "scale",
        }
    }
}

/// One edge change, addressed by its endpoint pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeMutation {
    /// Source node of the edge.
    pub from: NodeId,
    /// Target node of the edge.
    pub to: NodeId,
    /// What happens to the edge.
    pub kind: MutationKind,
}

impl EdgeMutation {
    /// A closure of `from → to`.
    pub fn close(from: NodeId, to: NodeId) -> Self {
        Self {
            from,
            to,
            kind: MutationKind::Close,
        }
    }

    /// A reopening of `from → to` with explicit weights.
    pub fn reopen(from: NodeId, to: NodeId, objective: f64, budget: f64) -> Self {
        Self {
            from,
            to,
            kind: MutationKind::Reopen { objective, budget },
        }
    }

    /// A weight scaling of `from → to`.
    pub fn scale(from: NodeId, to: NodeId, objective: f64, budget: f64) -> Self {
        Self {
            from,
            to,
            kind: MutationKind::Scale { objective, budget },
        }
    }
}

/// Why a serialized mutation could not be decoded (see
/// [`EdgeMutation::decode_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationCodecError {
    /// The byte stream ended inside a mutation.
    Truncated,
    /// The op tag byte was not one of the known codes.
    UnknownOp(u8),
}

impl fmt::Display for MutationCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationCodecError::Truncated => write!(f, "mutation bytes truncated"),
            MutationCodecError::UnknownOp(op) => write!(f, "unknown mutation op tag {op:#04x}"),
        }
    }
}

impl std::error::Error for MutationCodecError {}

impl EdgeMutation {
    /// Appends this mutation's canonical byte form to `out`.
    ///
    /// Layout (all little-endian): op tag `u8` (`0` close, `1` reopen,
    /// `2` scale) · `from u32` · `to u32` · for reopen/scale the two
    /// weights as IEEE-754 `f64` bit patterns. The encoding is
    /// bit-exact: [`EdgeMutation::decode_from`] returns a value equal to
    /// the original including `f64` bit patterns, which is what lets the
    /// mutation journal replay a batch byte-identically after a crash.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self.kind {
            MutationKind::Close => out.push(0),
            MutationKind::Reopen { .. } => out.push(1),
            MutationKind::Scale { .. } => out.push(2),
        }
        out.extend_from_slice(&self.from.0.to_le_bytes());
        out.extend_from_slice(&self.to.0.to_le_bytes());
        match self.kind {
            MutationKind::Close => {}
            MutationKind::Reopen { objective, budget }
            | MutationKind::Scale { objective, budget } => {
                out.extend_from_slice(&objective.to_bits().to_le_bytes());
                out.extend_from_slice(&budget.to_bits().to_le_bytes());
            }
        }
    }

    /// Decodes one mutation from `bytes` starting at `*at`, advancing
    /// `*at` past it. Inverse of [`EdgeMutation::encode_into`]; weight
    /// *values* are not validated here — [`Graph::apply_mutations`]
    /// rejects invalid weights exactly as it would on any other path.
    pub fn decode_from(bytes: &[u8], at: &mut usize) -> Result<EdgeMutation, MutationCodecError> {
        let mut take = |n: usize| -> Result<&[u8], MutationCodecError> {
            let s = bytes
                .get(*at..*at + n)
                .ok_or(MutationCodecError::Truncated)?;
            *at += n;
            Ok(s)
        };
        let op = take(1)?[0];
        let from = NodeId(u32::from_le_bytes(take(4)?.try_into().unwrap()));
        let to = NodeId(u32::from_le_bytes(take(4)?.try_into().unwrap()));
        let mut weights = || -> Result<(f64, f64), MutationCodecError> {
            let objective = f64::from_bits(u64::from_le_bytes(take(8)?.try_into().unwrap()));
            let budget = f64::from_bits(u64::from_le_bytes(take(8)?.try_into().unwrap()));
            Ok((objective, budget))
        };
        match op {
            0 => Ok(EdgeMutation::close(from, to)),
            1 => {
                let (objective, budget) = weights()?;
                Ok(EdgeMutation::reopen(from, to, objective, budget))
            }
            2 => {
                let (objective, budget) = weights()?;
                Ok(EdgeMutation::scale(from, to, objective, budget))
            }
            other => Err(MutationCodecError::UnknownOp(other)),
        }
    }
}

/// Why a mutation batch was rejected. The batch is validated as a whole
/// before any rebuild work: on error the original graph is untouched
/// and no partial batch is ever observable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MutationError {
    /// A mutation referenced a node outside the graph.
    UnknownNode(NodeId),
    /// A mutation's endpoints were equal (self-loops are never valid).
    SelfLoop(NodeId),
    /// `Close` or `Scale` addressed an edge that does not exist.
    UnknownEdge {
        /// Source node of the missing edge.
        from: NodeId,
        /// Target node of the missing edge.
        to: NodeId,
    },
    /// `Reopen` addressed an edge that already exists.
    EdgeExists {
        /// Source node of the existing edge.
        from: NodeId,
        /// Target node of the existing edge.
        to: NodeId,
    },
    /// The same `(from, to)` pair appeared twice in one batch — the
    /// combined effect would depend on application order, so the batch
    /// is ambiguous.
    DuplicateMutation {
        /// Source node of the repeated pair.
        from: NodeId,
        /// Target node of the repeated pair.
        to: NodeId,
    },
    /// A `Scale` multiplier was zero, negative, or non-finite.
    InvalidMultiplier {
        /// Source node of the scaled edge.
        from: NodeId,
        /// Target node of the scaled edge.
        to: NodeId,
        /// Which multiplier (`"objective"` or `"budget"`).
        attribute: &'static str,
        /// The offending multiplier.
        value: f64,
    },
    /// A `Reopen` weight, or a scaled weight, left the positive finite
    /// range every graph edge must stay in.
    InvalidWeight {
        /// Source node of the edge.
        from: NodeId,
        /// Target node of the edge.
        to: NodeId,
        /// Which weight (`"objective"` or `"budget"`).
        attribute: &'static str,
        /// The offending weight value.
        value: f64,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationError::UnknownNode(v) => write!(f, "unknown node {v:?}"),
            MutationError::SelfLoop(v) => write!(f, "self-loop mutation at {v:?}"),
            MutationError::UnknownEdge { from, to } => {
                write!(f, "no edge {} -> {} to mutate", from.0, to.0)
            }
            MutationError::EdgeExists { from, to } => {
                write!(
                    f,
                    "edge {} -> {} already exists; cannot reopen",
                    from.0, to.0
                )
            }
            MutationError::DuplicateMutation { from, to } => {
                write!(f, "duplicate mutation of edge {} -> {}", from.0, to.0)
            }
            MutationError::InvalidMultiplier {
                from,
                to,
                attribute,
                value,
            } => write!(
                f,
                "invalid {attribute} multiplier {value} for edge {} -> {} \
                 (must be finite and positive)",
                from.0, to.0
            ),
            MutationError::InvalidWeight {
                from,
                to,
                attribute,
                value,
            } => write!(
                f,
                "mutation leaves edge {} -> {} with invalid {attribute} {value} \
                 (must be finite and positive)",
                from.0, to.0
            ),
        }
    }
}

impl std::error::Error for MutationError {}

impl Graph {
    /// Applies a batch of edge mutations, producing a new graph; `self`
    /// is unchanged. The batch is atomic: it is fully validated first,
    /// and any error leaves nothing to undo.
    ///
    /// Determinism contract (see the module docs): surviving edges keep
    /// their relative CSR order, reopened edges are appended at the end
    /// of their source's adjacency sorted by target id, and the result
    /// depends only on `self` and `mutations` — not on batch order
    /// beyond the per-pair uniqueness this validates.
    ///
    /// The new graph's [`Graph::epoch`] is `self.epoch() + 1`.
    ///
    /// # Errors
    ///
    /// See [`MutationError`]; the checks run in the order the variants
    /// are documented, per mutation, in batch order.
    pub fn apply_mutations(&self, mutations: &[EdgeMutation]) -> Result<Graph, MutationError> {
        let n = self.node_count();
        // keyed by (from, to); value = index into `mutations`.
        let mut by_pair: HashMap<(u32, u32), usize> = HashMap::with_capacity(mutations.len());
        for (i, m) in mutations.iter().enumerate() {
            for v in [m.from, m.to] {
                if v.index() >= n {
                    return Err(MutationError::UnknownNode(v));
                }
            }
            if m.from == m.to {
                return Err(MutationError::SelfLoop(m.from));
            }
            if by_pair.insert((m.from.0, m.to.0), i).is_some() {
                return Err(MutationError::DuplicateMutation {
                    from: m.from,
                    to: m.to,
                });
            }
            let existing = self.edge_between(m.from, m.to);
            match m.kind {
                MutationKind::Close => {
                    if existing.is_none() {
                        return Err(MutationError::UnknownEdge {
                            from: m.from,
                            to: m.to,
                        });
                    }
                }
                MutationKind::Reopen { objective, budget } => {
                    if existing.is_some() {
                        return Err(MutationError::EdgeExists {
                            from: m.from,
                            to: m.to,
                        });
                    }
                    for (attribute, value) in [("objective", objective), ("budget", budget)] {
                        if !value.is_finite() || value <= 0.0 {
                            return Err(MutationError::InvalidWeight {
                                from: m.from,
                                to: m.to,
                                attribute,
                                value,
                            });
                        }
                    }
                }
                MutationKind::Scale { objective, budget } => {
                    let Some(edge) = existing else {
                        return Err(MutationError::UnknownEdge {
                            from: m.from,
                            to: m.to,
                        });
                    };
                    for (attribute, value) in [("objective", objective), ("budget", budget)] {
                        if !value.is_finite() || value <= 0.0 {
                            return Err(MutationError::InvalidMultiplier {
                                from: m.from,
                                to: m.to,
                                attribute,
                                value,
                            });
                        }
                    }
                    for (attribute, value) in [
                        ("objective", edge.objective * objective),
                        ("budget", edge.budget * budget),
                    ] {
                        if !value.is_finite() || value <= 0.0 {
                            return Err(MutationError::InvalidWeight {
                                from: m.from,
                                to: m.to,
                                attribute,
                                value,
                            });
                        }
                    }
                }
            }
        }

        // Reopened edges per source, appended after the survivors in
        // ascending target order.
        let mut reopened: HashMap<u32, Vec<(NodeId, f64, f64)>> = HashMap::new();
        for m in mutations {
            if let MutationKind::Reopen { objective, budget } = m.kind {
                reopened
                    .entry(m.from.0)
                    .or_default()
                    .push((m.to, objective, budget));
            }
        }
        for list in reopened.values_mut() {
            list.sort_by_key(|(to, _, _)| to.0);
        }

        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(self.edge_count());
        let mut out_objective = Vec::with_capacity(self.edge_count());
        let mut out_budget = Vec::with_capacity(self.edge_count());
        out_offsets.push(0u32);
        for v in self.nodes() {
            for e in self.out_edges(v) {
                match by_pair.get(&(v.0, e.node.0)).map(|&i| mutations[i].kind) {
                    Some(MutationKind::Close) => continue,
                    Some(MutationKind::Scale { objective, budget }) => {
                        out_targets.push(e.node);
                        out_objective.push(e.objective * objective);
                        out_budget.push(e.budget * budget);
                    }
                    // Reopen of an existing edge was rejected above.
                    Some(MutationKind::Reopen { .. }) => unreachable!(),
                    None => {
                        out_targets.push(e.node);
                        out_objective.push(e.objective);
                        out_budget.push(e.budget);
                    }
                }
            }
            if let Some(list) = reopened.get(&v.0) {
                for &(to, objective, budget) in list {
                    out_targets.push(to);
                    out_objective.push(objective);
                    out_budget.push(budget);
                }
            }
            out_offsets.push(out_targets.len() as u32);
        }

        let keywords = self.nodes().map(|v| self.keywords(v).clone()).collect();
        let positions = self.positions().map(<[_]>::to_vec);
        let mut graph = Graph::from_csr_parts(
            out_offsets,
            out_targets,
            out_objective,
            out_budget,
            keywords,
            positions,
            self.vocab().clone(),
        )
        .expect("a validated mutation batch rebuilds into a valid graph");
        graph.set_epoch(self.epoch() + 1);
        Ok(graph)
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
    fn close_removes_exactly_one_edge_and_bumps_epoch() {
        let g = diamond();
        assert_eq!(g.epoch(), 0);
        let g2 = g
            .apply_mutations(&[EdgeMutation::close(NodeId(0), NodeId(1))])
            .unwrap();
        assert_eq!(g2.epoch(), 1);
        assert_eq!(g2.edge_count(), 3);
        assert!(g2.edge_between(NodeId(0), NodeId(1)).is_none());
        assert!(g2.edge_between(NodeId(0), NodeId(2)).is_some());
        // The original is untouched.
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.epoch(), 0);
    }

    #[test]
    fn scale_multiplies_weights() {
        let g = diamond();
        let g2 = g
            .apply_mutations(&[EdgeMutation::scale(NodeId(2), NodeId(3), 1.0, 2.5)])
            .unwrap();
        let e = g2.edge_between(NodeId(2), NodeId(3)).unwrap();
        assert_eq!(e.objective, 4.0);
        assert_eq!(e.budget, 10.0);
        // Extrema are re-derived.
        assert_eq!(g2.b_max(), 10.0);
    }

    #[test]
    fn reopen_restores_a_closed_edge_bit_for_bit() {
        let g = diamond();
        let orig = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let closed = g
            .apply_mutations(&[EdgeMutation::close(NodeId(0), NodeId(1))])
            .unwrap();
        let reopened = closed
            .apply_mutations(&[EdgeMutation::reopen(
                NodeId(0),
                NodeId(1),
                orig.objective,
                orig.budget,
            )])
            .unwrap();
        assert_eq!(reopened.epoch(), 2);
        let e = reopened.edge_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(e.objective.to_bits(), orig.objective.to_bits());
        assert_eq!(e.budget.to_bits(), orig.budget.to_bits());
        assert_eq!(reopened.edge_count(), g.edge_count());
    }

    #[test]
    fn reopened_edges_append_in_target_order() {
        let g = diamond();
        let stripped = g
            .apply_mutations(&[
                EdgeMutation::close(NodeId(0), NodeId(1)),
                EdgeMutation::close(NodeId(0), NodeId(2)),
            ])
            .unwrap();
        // Reopen in reverse order; CSR must still list v1 before v2
        // (appended, ascending target).
        let back = stripped
            .apply_mutations(&[
                EdgeMutation::reopen(NodeId(0), NodeId(2), 2.0, 2.0),
                EdgeMutation::reopen(NodeId(0), NodeId(1), 1.0, 1.0),
            ])
            .unwrap();
        let targets: Vec<NodeId> = back.out_edges(NodeId(0)).map(|e| e.node).collect();
        assert_eq!(targets, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn surviving_edges_keep_relative_order() {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node(["s"]);
        let targets: Vec<NodeId> = (0..4).map(|i| b.add_node([format!("k{i}")])).collect();
        for (i, &t) in targets.iter().enumerate() {
            b.add_edge(v0, t, 1.0 + i as f64, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let g2 = g
            .apply_mutations(&[EdgeMutation::close(v0, targets[1])])
            .unwrap();
        let order: Vec<NodeId> = g2.out_edges(v0).map(|e| e.node).collect();
        assert_eq!(order, vec![targets[0], targets[2], targets[3]]);
    }

    #[test]
    fn batches_are_deterministic() {
        let g = diamond();
        let batch = [
            EdgeMutation::close(NodeId(1), NodeId(3)),
            EdgeMutation::scale(NodeId(0), NodeId(2), 3.0, 0.5),
        ];
        let a = g.apply_mutations(&batch).unwrap();
        let b = g.apply_mutations(&batch).unwrap();
        let (ca, cb) = (a.csr(), b.csr());
        assert_eq!(ca.out_offsets, cb.out_offsets);
        assert_eq!(ca.out_targets, cb.out_targets);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ca.out_objective), bits(cb.out_objective));
        assert_eq!(bits(ca.out_budget), bits(cb.out_budget));
    }

    #[test]
    fn typed_errors_cover_every_rejection() {
        let g = diamond();
        // Unknown node.
        assert_eq!(
            g.apply_mutations(&[EdgeMutation::close(NodeId(0), NodeId(99))])
                .unwrap_err(),
            MutationError::UnknownNode(NodeId(99))
        );
        // Self loop.
        assert_eq!(
            g.apply_mutations(&[EdgeMutation::close(NodeId(2), NodeId(2))])
                .unwrap_err(),
            MutationError::SelfLoop(NodeId(2))
        );
        // Closing / scaling a nonexistent edge.
        assert_eq!(
            g.apply_mutations(&[EdgeMutation::close(NodeId(1), NodeId(2))])
                .unwrap_err(),
            MutationError::UnknownEdge {
                from: NodeId(1),
                to: NodeId(2)
            }
        );
        assert_eq!(
            g.apply_mutations(&[EdgeMutation::scale(NodeId(3), NodeId(0), 2.0, 2.0)])
                .unwrap_err(),
            MutationError::UnknownEdge {
                from: NodeId(3),
                to: NodeId(0)
            }
        );
        // Reopening an existing edge.
        assert_eq!(
            g.apply_mutations(&[EdgeMutation::reopen(NodeId(0), NodeId(1), 1.0, 1.0)])
                .unwrap_err(),
            MutationError::EdgeExists {
                from: NodeId(0),
                to: NodeId(1)
            }
        );
        // Duplicate pair in one batch (even with different kinds).
        assert_eq!(
            g.apply_mutations(&[
                EdgeMutation::scale(NodeId(0), NodeId(1), 2.0, 2.0),
                EdgeMutation::close(NodeId(0), NodeId(1)),
            ])
            .unwrap_err(),
            MutationError::DuplicateMutation {
                from: NodeId(0),
                to: NodeId(1)
            }
        );
        // Zero / negative / non-finite multipliers.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                g.apply_mutations(&[EdgeMutation::scale(NodeId(0), NodeId(1), bad, 1.0)]),
                Err(MutationError::InvalidMultiplier {
                    attribute: "objective",
                    ..
                })
            ));
            assert!(matches!(
                g.apply_mutations(&[EdgeMutation::scale(NodeId(0), NodeId(1), 1.0, bad)]),
                Err(MutationError::InvalidMultiplier {
                    attribute: "budget",
                    ..
                })
            ));
        }
        // Reopen with invalid weights.
        assert!(matches!(
            g.apply_mutations(&[EdgeMutation::reopen(NodeId(1), NodeId(2), 0.0, 1.0)]),
            Err(MutationError::InvalidWeight {
                attribute: "objective",
                ..
            })
        ));
        // Scaling into overflow is caught before the rebuild: edge
        // 2 -> 3 has weight 4.0, and 4.0 * f64::MAX overflows to +inf.
        assert!(matches!(
            g.apply_mutations(&[EdgeMutation::scale(
                NodeId(2),
                NodeId(3),
                f64::MAX,
                f64::MAX
            )]),
            Err(MutationError::InvalidWeight { .. })
        ));
        // A rejected batch never left a partial effect.
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.epoch(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop_rebuild_with_epoch_bump() {
        let g = diamond();
        let g2 = g.apply_mutations(&[]).unwrap();
        assert_eq!(g2.epoch(), 1);
        assert_eq!(g2.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(
                g2.out_edges(v).collect::<Vec<_>>(),
                g.out_edges(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn codec_round_trips_bit_for_bit() {
        let mutations = [
            EdgeMutation::close(NodeId(0), NodeId(7)),
            EdgeMutation::reopen(NodeId(3), NodeId(1), 0.1 + 0.2, f64::MIN_POSITIVE),
            EdgeMutation::scale(NodeId(u32::MAX), NodeId(42), 1.5, 1e300),
        ];
        let mut bytes = Vec::new();
        for m in &mutations {
            m.encode_into(&mut bytes);
        }
        assert_eq!(bytes.len(), 9 + 25 + 25);
        let mut at = 0;
        for m in &mutations {
            let back = EdgeMutation::decode_from(&bytes, &mut at).unwrap();
            assert_eq!(&back, m);
            // PartialEq on f64 misses bit patterns that compare equal;
            // pin the bits explicitly.
            if let (
                MutationKind::Reopen {
                    objective: a,
                    budget: b,
                }
                | MutationKind::Scale {
                    objective: a,
                    budget: b,
                },
                MutationKind::Reopen {
                    objective: c,
                    budget: d,
                }
                | MutationKind::Scale {
                    objective: c,
                    budget: d,
                },
            ) = (back.kind, m.kind)
            {
                assert_eq!(a.to_bits(), c.to_bits());
                assert_eq!(b.to_bits(), d.to_bits());
            }
        }
        assert_eq!(at, bytes.len());
    }

    #[test]
    fn codec_rejects_truncation_and_unknown_ops() {
        let mut bytes = Vec::new();
        EdgeMutation::scale(NodeId(1), NodeId(2), 2.0, 3.0).encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            let mut at = 0;
            assert_eq!(
                EdgeMutation::decode_from(&bytes[..cut], &mut at),
                Err(MutationCodecError::Truncated),
                "cut at {cut}"
            );
        }
        let mut at = 0;
        bytes[0] = 9;
        assert_eq!(
            EdgeMutation::decode_from(&bytes, &mut at),
            Err(MutationCodecError::UnknownOp(9))
        );
    }

    #[test]
    fn display_messages_name_the_edge() {
        let e = MutationError::UnknownEdge {
            from: NodeId(3),
            to: NodeId(5),
        };
        assert!(e.to_string().contains("3 -> 5"));
        let m = MutationError::InvalidMultiplier {
            from: NodeId(0),
            to: NodeId(1),
            attribute: "budget",
            value: 0.0,
        };
        assert!(m.to_string().contains("budget"));
    }
}
