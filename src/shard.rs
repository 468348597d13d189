//! The scatter-gather shard router.
//!
//! A sharded dataset (see [`kor_data::shard`]) runs one warm
//! [`KorEngine`] per shard — each over the shard's subgraph (full node
//! space, intra-shard edges only) — plus the *fused* engine over the
//! complete graph that the registry already holds. The router in front
//! of them decides, per query, which engine answers:
//!
//! * **Local** — source and target share a shard and the boundary
//!   summary proves confinement (`escape[s] + enter[t] > Δ`: any route
//!   leaving the shard busts the budget). The owning shard's engine
//!   answers alone; for scaled algorithms its search is anchored to the
//!   fused graph's edge-weight extrema ([`ScaleAnchor`]) so the scaling
//!   factor `θ` — and with it every label key — matches what the fused
//!   engine would compute. The shard-local answer is therefore the
//!   *same* answer, found while touching one shard's edges.
//! * **Fanout** — the query may cross shards (different owners, or the
//!   budget admits an excursion). Per-shard label searches cannot see
//!   cut edges, so no merge of their top-k lists could contain a
//!   crossing route; the only gather that preserves exactness is the
//!   search that sees every shard's edges *and* the cut edges at once —
//!   the fused engine. The router accounts the fanout and hands the
//!   query there.
//!
//! Either way the response is byte-identical to the single-engine
//! answer — enforced across all generated worlds by
//! `tests/shard_oracle.rs`.
//!
//! Shards can be *poisoned* (fault injection, or a real backing store
//! going away): queries owned by a poisoned shard fail with a
//! structured `shard_unavailable` error while every other shard keeps
//! answering; `revive` undoes it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use kor_core::{KorEngine, KorError, KorQuery, ScaleAnchor, SearchOutcome, SearchRequest};
use kor_data::shard::ShardingInfo;
use kor_data::shard_subgraph;
use kor_graph::{Graph, NodeId};

/// How the router decided to answer a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan {
    /// Confined to one shard: answer with that shard's engine (scaled
    /// searches anchored to [`ShardRouter::anchor`]; see
    /// [`ShardRouter::search`]).
    Local(u32),
    /// May cross shards: answer with the fused engine.
    Fanout,
}

/// A query touched a poisoned shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardUnavailable {
    /// The poisoned shard that owns the query's source or target.
    pub shard: u32,
}

impl std::fmt::Display for ShardUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} is unavailable", self.shard)
    }
}

impl std::error::Error for ShardUnavailable {}

/// Point-in-time counters of one shard, for `stats` reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCounters {
    /// Nodes owned by the shard.
    pub nodes: u64,
    /// Queries owned by this shard (its engine ran, or it co-owned a
    /// fanout / was the rejected owner).
    pub queries: u64,
    /// Queries this shard answered alone (confined local searches).
    pub local_hits: u64,
    /// Whether the shard is currently poisoned.
    pub poisoned: bool,
}

struct Shard {
    engine: KorEngine<Arc<Graph>>,
    nodes: u64,
    poisoned: AtomicBool,
    queries: AtomicU64,
    local_hits: AtomicU64,
}

/// A search [`ShardRouter::route`] confined to one shard: that shard's
/// engine and the request anchored to the fused graph.
pub type LocalSearch<'a> = (&'a KorEngine<Arc<Graph>>, SearchRequest);

/// One warm engine per shard plus the routing/accounting state in front
/// of them. The fused engine stays with the caller (the registry or the
/// batch runner) — the router only decides and accounts.
pub struct ShardRouter {
    info: ShardingInfo,
    anchor: ScaleAnchor,
    shards: Vec<Shard>,
    fused_only: bool,
    fanouts: AtomicU64,
    rejected: AtomicU64,
}

impl ShardRouter {
    /// Builds the per-shard engines for `info` over `graph` (the fused
    /// dataset the anchor extrema are pinned from). `info` must describe
    /// `graph` — snapshot loading validates that; computed layouts are
    /// correct by construction.
    pub fn new(graph: &Graph, info: ShardingInfo) -> Self {
        Self::new_with_mode(graph, info, false)
    }

    /// [`Self::new`] with an explicit routing mode. `fused_only` is the
    /// degraded mode a mutated sharded dataset falls into when a batch
    /// changed a *cut* edge: the re-derived escape/enter boundary
    /// tables describe the new cut set, but confinement proofs built on
    /// a shifting boundary are not worth trusting mid-traffic, so the
    /// router plans every query as [`ShardPlan::Fanout`] (the fused
    /// engine — still byte-identical answers, no shard-local savings)
    /// until the dataset is re-sharded offline.
    pub fn new_with_mode(graph: &Graph, info: ShardingInfo, fused_only: bool) -> Self {
        let sizes = info.shard_sizes();
        let shards = (0..info.shard_count)
            .map(|s| Shard {
                engine: KorEngine::new(Arc::new(shard_subgraph(graph, &info.assignment, s))),
                nodes: sizes[s as usize] as u64,
                poisoned: AtomicBool::new(false),
                queries: AtomicU64::new(0),
                local_hits: AtomicU64::new(0),
            })
            .collect();
        Self {
            anchor: ScaleAnchor::of(graph),
            info,
            shards,
            fused_only,
            fanouts: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Whether the router is in the degraded fused-only mode (every
    /// query fans out; see [`Self::new_with_mode`]).
    pub fn fused_only(&self) -> bool {
        self.fused_only
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.info.shard_count
    }

    /// The shard layout the router routes by.
    pub fn info(&self) -> &ShardingInfo {
        &self.info
    }

    /// The fused graph's extrema every anchored local search pins.
    pub fn anchor(&self) -> ScaleAnchor {
        self.anchor
    }

    /// Routes one query and updates the per-shard counters.
    ///
    /// `local_capable` says whether the caller can answer this query
    /// shard-locally (all label-search algorithms can; the greedy
    /// heuristic cannot — its forward `τ` trees consult paths that may
    /// cross shards even when the final route would not, so it always
    /// fans out to the fused engine).
    ///
    /// Fails with [`ShardUnavailable`] when the shard owning the source
    /// or the target is poisoned; other shards' queries are unaffected.
    pub fn plan(
        &self,
        source: NodeId,
        target: NodeId,
        budget: f64,
        local_capable: bool,
    ) -> Result<ShardPlan, ShardUnavailable> {
        let s = self.info.shard_of(source);
        let t = self.info.shard_of(target);
        for owner in [s, t] {
            if self.shards[owner as usize].poisoned.load(Ordering::Acquire) {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ShardUnavailable { shard: owner });
            }
        }
        self.shards[s as usize]
            .queries
            .fetch_add(1, Ordering::Relaxed);
        if t != s {
            self.shards[t as usize]
                .queries
                .fetch_add(1, Ordering::Relaxed);
        }
        if local_capable && !self.fused_only && self.info.confined(source, target, budget) {
            self.shards[s as usize]
                .local_hits
                .fetch_add(1, Ordering::Relaxed);
            Ok(ShardPlan::Local(s))
        } else {
            self.fanouts.fetch_add(1, Ordering::Relaxed);
            Ok(ShardPlan::Fanout)
        }
    }

    /// The warm engine of `shard`.
    pub fn engine(&self, shard: u32) -> &KorEngine<Arc<Graph>> {
        &self.shards[shard as usize].engine
    }

    /// Plans one search (see [`Self::plan`]). A query proven confined
    /// to one shard gets that shard's engine and the request with its
    /// scaling extrema anchored to the fused graph, so its answer matches
    /// the fused engine's bit for bit. `None` means the fused engine, the
    /// only one that sees cut edges, must answer; greedy always does (see
    /// [`kor_core::Algo::runs_shard_locally`]).
    pub fn route(
        &self,
        query: &KorQuery,
        request: &SearchRequest,
    ) -> Result<Option<LocalSearch<'_>>, ShardUnavailable> {
        let local = request.algo.runs_shard_locally();
        Ok(
            match self.plan(query.source, query.target, query.budget, local)? {
                ShardPlan::Local(s) => Some((
                    self.engine(s),
                    SearchRequest {
                        algo: request.algo.anchored(self.anchor),
                        ..*request
                    },
                )),
                ShardPlan::Fanout => None,
            },
        )
    }

    /// [`Self::route`]s one search and runs it, on `fused` when it fans
    /// out. The outer error is a poisoned owning shard; the inner result
    /// is the search's own.
    pub fn search<G: AsRef<Graph>>(
        &self,
        fused: &KorEngine<G>,
        query: &KorQuery,
        request: &SearchRequest,
    ) -> Result<Result<SearchOutcome, KorError>, ShardUnavailable> {
        Ok(match self.route(query, request)? {
            Some((shard, anchored)) => shard.search(query, &anchored),
            None => fused.search(query, request),
        })
    }

    /// Marks `shard` unavailable; returns `false` if out of range.
    pub fn poison(&self, shard: u32) -> bool {
        match self.shards.get(shard as usize) {
            Some(s) => {
                s.poisoned.store(true, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Clears a poisoned mark; returns `false` if out of range.
    pub fn revive(&self, shard: u32) -> bool {
        match self.shards.get(shard as usize) {
            Some(s) => {
                s.poisoned.store(false, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Whether `shard` is currently poisoned.
    pub fn is_poisoned(&self, shard: u32) -> bool {
        self.shards
            .get(shard as usize)
            .is_some_and(|s| s.poisoned.load(Ordering::Acquire))
    }

    /// Per-shard counters, in shard-id order.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| ShardCounters {
                nodes: s.nodes,
                queries: s.queries.load(Ordering::Relaxed),
                local_hits: s.local_hits.load(Ordering::Relaxed),
                poisoned: s.poisoned.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Queries answered by the fused engine (cross-shard or non-local
    /// algorithms).
    pub fn fanouts(&self) -> u64 {
        self.fanouts.load(Ordering::Relaxed)
    }

    /// Queries rejected because an owning shard was poisoned.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_core::KorQuery;
    use kor_data::{compute_sharding, generate_world, GenConfig};

    fn setup() -> (Graph, ShardRouter) {
        let world = generate_world(&GenConfig::grid(6, 5, 3));
        let info = compute_sharding(&world.graph, 2);
        let router = ShardRouter::new(&world.graph, info);
        (world.graph, router)
    }

    fn pairs(graph: &Graph, router: &ShardRouter) -> ((NodeId, NodeId), (NodeId, NodeId)) {
        let info = router.info();
        let (mut same, mut cross) = (None, None);
        for a in graph.nodes() {
            for b in graph.nodes() {
                if a == b {
                    continue;
                }
                if info.shard_of(a) == info.shard_of(b) {
                    same.get_or_insert((a, b));
                } else {
                    cross.get_or_insert((a, b));
                }
            }
        }
        (same.unwrap(), cross.unwrap())
    }

    #[test]
    fn confined_queries_go_local_and_are_counted() {
        let (graph, router) = setup();
        let ((s, t), (cs, ct)) = pairs(&graph, &router);
        // Budget 0: cheaper than any excursion — confined.
        let plan = router.plan(s, t, 0.0, true).unwrap();
        let owner = router.info().shard_of(s);
        assert_eq!(plan, ShardPlan::Local(owner));
        // Cross-shard always fans out.
        assert_eq!(router.plan(cs, ct, 0.0, true).unwrap(), ShardPlan::Fanout);
        // Local-incapable algorithms fan out even when confined.
        assert_eq!(router.plan(s, t, 0.0, false).unwrap(), ShardPlan::Fanout);
        let counters = router.shard_counters();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[owner as usize].local_hits, 1);
        assert_eq!(router.fanouts(), 2);
        let total: u64 = counters.iter().map(|c| c.queries).sum();
        // 2 same-shard queries count once each + 1 cross-shard counts twice.
        assert_eq!(total, 4);
    }

    #[test]
    fn local_answer_matches_fused_engine() {
        let (graph, router) = setup();
        let ((s, t), _) = pairs(&graph, &router);
        let q = KorQuery::new(&graph, s, t, vec![], 0.0).unwrap();
        let ShardPlan::Local(shard) = router.plan(s, t, 0.0, true).unwrap() else {
            panic!("budget 0 must be confined");
        };
        let fused = KorEngine::new(&graph);
        let local = router
            .engine(shard)
            .exact(&q)
            .unwrap()
            .route
            .map(|r| (r.route, r.objective.to_bits(), r.budget.to_bits()));
        let global = fused
            .exact(&q)
            .unwrap()
            .route
            .map(|r| (r.route, r.objective.to_bits(), r.budget.to_bits()));
        assert_eq!(local, global);
    }

    #[test]
    fn poisoned_shard_rejects_only_its_owners() {
        let (graph, router) = setup();
        let ((s, t), (cs, ct)) = pairs(&graph, &router);
        let owner = router.info().shard_of(s);
        let other = 1 - owner;
        assert!(router.poison(owner));
        assert!(router.is_poisoned(owner));
        let err = router.plan(s, t, 0.0, true).unwrap_err();
        assert_eq!(err.shard, owner);
        // A cross-shard query touches the poisoned owner too.
        assert!(router.plan(cs, ct, 0.0, true).is_err());
        // A query wholly owned by the healthy shard keeps answering.
        let healthy: Vec<NodeId> = graph
            .nodes()
            .filter(|&v| router.info().shard_of(v) == other)
            .collect();
        assert!(router.plan(healthy[0], healthy[1], 0.0, true).is_ok());
        assert_eq!(router.rejected(), 2);
        assert!(router.revive(owner));
        assert!(router.plan(s, t, 0.0, true).is_ok());
        // Out-of-range ids are refused, not panicking.
        assert!(!router.poison(99));
        assert!(!router.revive(99));
        assert!(!router.is_poisoned(99));
    }

    #[test]
    fn fused_only_mode_always_fans_out() {
        let world = generate_world(&GenConfig::grid(6, 5, 3));
        let info = compute_sharding(&world.graph, 2);
        let router = ShardRouter::new_with_mode(&world.graph, info, true);
        assert!(router.fused_only());
        let ((s, t), _) = pairs(&world.graph, &router);
        // Confined by the boundary tables, but the degraded mode
        // refuses the local plan anyway.
        assert_eq!(router.plan(s, t, 0.0, true).unwrap(), ShardPlan::Fanout);
        assert_eq!(router.fanouts(), 1);
        let counters = router.shard_counters();
        assert_eq!(counters.iter().map(|c| c.local_hits).sum::<u64>(), 0);
        // The default constructor stays in normal mode.
        let normal = setup().1;
        assert!(!normal.fused_only());
    }

    #[test]
    fn anchored_params_pin_the_fused_extrema() {
        use kor_core::{Algo, OsScalingParams};
        let (graph, router) = setup();
        let ((s, t), _) = pairs(&graph, &router);
        let q = KorQuery::new(&graph, s, t, vec![], 0.0).unwrap();
        let fused = KorEngine::new(&graph);
        // A confined scaled search runs shard-locally, anchored, and
        // answers exactly what the fused engine does.
        let request = SearchRequest::new(Algo::OsScaling(OsScalingParams::default()));
        let routed = router.search(&fused, &q, &request).unwrap().unwrap();
        let direct = fused.search(&q, &request).unwrap();
        assert_eq!(routed.routes, direct.routes);
        assert_eq!(
            router
                .shard_counters()
                .iter()
                .map(|c| c.local_hits)
                .sum::<u64>(),
            1
        );
        // The shard subgraph's own extrema generally differ — that is
        // exactly why the anchor exists.
        assert_eq!(router.anchor(), ScaleAnchor::of(&graph));
    }
}
