//! The shard router core. Benchmark shard probe only; deleted with
//! ROADMAP item 1.
//!
//! No product path serves shards: `kor serve`, `kor batch` and the
//! snapshot format all work on one graph. What is left here is what the
//! benchmark's shard probe measures — one warm [`KorEngine`] per shard
//! of a [`kor_data::compute_sharding`] layout, each over the shard's
//! subgraph (full node space, intra-shard edges only), and the plan
//! that says which queries a shard could answer alone:
//!
//! * **Local** — source and target share a shard and the boundary
//!   summary proves confinement (`escape[s] + enter[t] > Δ`: any route
//!   leaving the shard busts the budget). The shard's engine, with the
//!   search anchored to the full graph's edge-weight extrema
//!   ([`ScaleAnchor`]), answers within the same guarantee as an engine
//!   over the whole graph. A scaled search takes θ from the shard's own
//!   `τ(s,t)`, so its answer can differ from the fused engine's when
//!   the full graph's min-objective path leaves the shard.
//! * **Fanout** — the query may cross shards, so only an engine over
//!   the whole graph can answer it.

use std::convert::Infallible;
use std::sync::Arc;

use kor_core::{KorEngine, ScaleAnchor};
use kor_data::shard::ShardingInfo;
use kor_data::shard_subgraph;
use kor_graph::{Graph, NodeId};

/// How a query could be answered. Benchmark shard probe only; deleted
/// with ROADMAP item 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlan {
    /// Confined to one shard: that shard's engine, anchored to
    /// [`ShardRouter::anchor`], answers.
    Local(u32),
    /// May cross shards: only an engine over the whole graph answers.
    Fanout,
}

/// One warm engine per shard plus the layout that plans queries onto
/// them. Benchmark shard probe only; deleted with ROADMAP item 1.
pub struct ShardRouter {
    info: ShardingInfo,
    anchor: ScaleAnchor,
    engines: Vec<KorEngine<Arc<Graph>>>,
}

impl ShardRouter {
    /// Builds the per-shard engines for `info` over `graph`, whose
    /// extrema every anchored local search pins. `info` must describe
    /// `graph`; a computed layout does by construction. Benchmark shard
    /// probe only; deleted with ROADMAP item 1.
    pub fn new(graph: &Graph, info: ShardingInfo) -> Self {
        let engines = (0..info.shard_count)
            .map(|s| KorEngine::new(Arc::new(shard_subgraph(graph, &info.assignment, s))))
            .collect();
        Self {
            anchor: ScaleAnchor::of(graph),
            info,
            engines,
        }
    }

    /// The full graph's extrema every anchored local search pins.
    /// Benchmark shard probe only; deleted with ROADMAP item 1.
    pub fn anchor(&self) -> ScaleAnchor {
        self.anchor
    }

    /// Plans one query. `local_capable` says whether the algorithm can
    /// answer on a shard subgraph: the label searches can; greedy cannot,
    /// because its forward `τ` trees consult paths that may cross shards
    /// even when the final route would not. Never fails; the `Result`
    /// keeps the probe's `let Ok(ShardPlan::Local(s)) = plan` compiling.
    /// Benchmark shard probe only; deleted with ROADMAP item 1.
    pub fn plan(
        &self,
        source: NodeId,
        target: NodeId,
        budget: f64,
        local_capable: bool,
    ) -> Result<ShardPlan, Infallible> {
        Ok(
            if local_capable && self.info.confined(source, target, budget) {
                ShardPlan::Local(self.info.shard_of(source))
            } else {
                ShardPlan::Fanout
            },
        )
    }

    /// The warm engine of `shard`. Benchmark shard probe only; deleted
    /// with ROADMAP item 1.
    pub fn engine(&self, shard: u32) -> &KorEngine<Arc<Graph>> {
        &self.engines[shard as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_core::{Algo, KorQuery, OsScalingParams, SearchRequest};
    use kor_data::{compute_sharding, generate_world, GenConfig};

    fn setup() -> (Graph, ShardRouter) {
        let world = generate_world(&GenConfig::grid(6, 5, 3));
        let info = compute_sharding(&world.graph, 2);
        let router = ShardRouter::new(&world.graph, info);
        (world.graph, router)
    }

    fn pairs(graph: &Graph, router: &ShardRouter) -> ((NodeId, NodeId), (NodeId, NodeId)) {
        let info = &router.info;
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
    fn confined_queries_go_local() {
        let (graph, router) = setup();
        let ((s, t), (cs, ct)) = pairs(&graph, &router);
        // Budget 0: cheaper than any excursion — confined.
        let plan = router.plan(s, t, 0.0, true).unwrap();
        assert_eq!(plan, ShardPlan::Local(router.info.shard_of(s)));
        // Cross-shard always fans out.
        assert_eq!(router.plan(cs, ct, 0.0, true).unwrap(), ShardPlan::Fanout);
        // Local-incapable algorithms fan out even when confined.
        assert_eq!(router.plan(s, t, 0.0, false).unwrap(), ShardPlan::Fanout);
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
    fn anchored_params_pin_the_fused_extrema() {
        let (graph, router) = setup();
        let ((s, t), _) = pairs(&graph, &router);
        let q = KorQuery::new(&graph, s, t, vec![], 0.0).unwrap();
        let fused = KorEngine::new(&graph);
        // A confined scaled search runs on its shard's engine, anchored,
        // and answers this query as the fused engine does.
        let ShardPlan::Local(shard) = router.plan(s, t, 0.0, true).unwrap() else {
            panic!("budget 0 must be confined");
        };
        let anchored = SearchRequest::new(Algo::OsScaling(OsScalingParams {
            anchor: Some(router.anchor()),
            ..OsScalingParams::default()
        }));
        let plain = SearchRequest::new(Algo::OsScaling(OsScalingParams::default()));
        let local = router.engine(shard).search(&q, &anchored).unwrap();
        let direct = fused.search(&q, &plain).unwrap();
        assert_eq!(local.routes, direct.routes);
        // The shard subgraph's own extrema generally differ — that is
        // exactly why the anchor exists.
        assert_eq!(router.anchor(), ScaleAnchor::of(&graph));
    }
}
