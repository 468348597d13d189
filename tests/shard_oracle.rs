//! Cross-shard oracle equivalence: the scatter-gather router is
//! byte-identical to the single fused engine.
//!
//! The same 18 generated worlds `tests/gen_oracle.rs` validates against
//! the brute-force oracle are sharded at N ∈ {2, 4} and every canned
//! query is answered twice — once through the shard router (confined
//! queries on their owning shard's engine with anchored scaling,
//! everything else on the fused engine) and once on a plain single
//! engine. The answers must match bit for bit: same feasibility, same
//! route node ids, same objective/budget f64 bit patterns, same top-k
//! order and length. Every router-path route is additionally re-walked
//! edge by edge against the fused graph.
//!
//! The battery also asserts it is not vacuous: across all worlds some
//! queries must route shard-locally and some must fan out, otherwise
//! the confinement condition never fired and the test proves nothing.

mod common;

use common::{canned_queries, keys, label, requests, verify_outcome, worlds};
use kor::prelude::*;
use kor::shard::ShardRouter;

#[test]
fn router_is_byte_identical_to_the_single_engine_on_all_worlds() {
    let mut local_total = 0u64;
    let mut fanout_total = 0u64;
    let mut queries_total = 0usize;

    for config in worlds() {
        let world = generate_world(&config);
        let graph = &world.graph;
        let fused = KorEngine::new(graph);
        for shards in [2usize, 4] {
            let info = compute_sharding(graph, shards);
            let router = ShardRouter::new(graph, info);
            let world_label = format!(
                "{} seed {} at {shards} shards",
                config.topology.name(),
                config.seed
            );
            for query in canned_queries(graph, &world.query_sets) {
                queries_total += 1;
                for request in &requests() {
                    let what = format!(
                        "{world_label}: {} -> {} Δ {:.3} [{}]",
                        query.source,
                        query.target,
                        query.budget,
                        label(request)
                    );
                    let routed = router
                        .search(&fused, &query, request)
                        .expect("no shard is poisoned")
                        .unwrap();
                    let single = fused.search(&query, request).unwrap();
                    assert_eq!(
                        keys(&routed),
                        keys(&single),
                        "{what}: router diverged from the single engine"
                    );
                    // A shard-local search cannot invent edges its
                    // subgraph does not have: re-walk on the fused graph.
                    verify_outcome(graph, &query, &routed, &what);
                    // Top-k answers must come back sorted.
                    for w in routed.routes.windows(2) {
                        assert!(w[0].objective <= w[1].objective, "{what}: not sorted");
                    }
                }
            }
            local_total += router
                .shard_counters()
                .iter()
                .map(|c| c.local_hits)
                .sum::<u64>();
            fanout_total += router.fanouts();
        }
    }

    // The battery must exercise both paths, or byte-identity is vacuous.
    assert!(
        local_total > 0,
        "no query was ever confined — the shard-local path went untested \
         ({queries_total} queries)"
    );
    assert!(
        fanout_total > 0,
        "no query ever fanned out — the fused path went untested"
    );
    eprintln!(
        "shard oracle: {queries_total} queries × {} searches; {local_total} confined local, \
         {fanout_total} fanouts",
        requests().len()
    );
}
