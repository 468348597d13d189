//! Shard-layout properties over a seed sweep.
//!
//! For every generated world across seeds, topologies, and shard
//! counts:
//!
//! * ownership — every node is owned by exactly one shard, shard ids
//!   are dense, and no shard is empty;
//! * edge partition — every graph edge is either inside exactly one
//!   shard subgraph or in the boundary summary's cut-edge list, never
//!   both, never neither;
//! * confinement is sound — for a same-shard pair `(s, t)` with a
//!   budget below `escape[s] + enter[t]`, the fused engine's optimal
//!   routes never leave the shard (any crossing route must spend at
//!   least `escape[s] + enter[t]`);
//! * reproducibility — sharding the same world twice yields identical
//!   layouts and byte-identical snapshots, and a written sharded
//!   snapshot reads back equal.

use kor::data::shard::{cut_edges, shard_subgraph, validate_sharding};
use kor::data::{snapshot_from_bytes, snapshot_to_bytes};
use kor::prelude::*;

const TOL: f64 = 1e-9;

fn worlds() -> Vec<GenConfig> {
    let mut configs = Vec::new();
    for seed in 0..6 {
        configs.push(GenConfig::grid(4 + (seed as usize % 3), 4, seed));
        configs.push(GenConfig::ring(12 + 2 * (seed as usize), 4, 500 + seed));
    }
    configs
}

#[test]
fn every_node_is_owned_by_exactly_one_nonempty_shard() {
    for config in worlds() {
        let world = generate_world(&config);
        for shards in [2usize, 3, 4] {
            let info = compute_sharding(&world.graph, shards);
            let label = format!("{} seed {} @{shards}", config.topology.name(), config.seed);
            assert_eq!(
                info.assignment.len(),
                world.graph.node_count(),
                "{label}: assignment covers every node"
            );
            let sizes = info.shard_sizes();
            assert_eq!(sizes.len(), info.shard_count as usize);
            assert!(
                sizes.iter().all(|&s| s > 0),
                "{label}: empty shard in {sizes:?}"
            );
            assert_eq!(
                sizes.iter().sum::<usize>(),
                world.graph.node_count(),
                "{label}: ownership double-counts or drops nodes"
            );
            assert!(
                info.assignment.iter().all(|&a| a < info.shard_count),
                "{label}: dangling shard id"
            );
            // The full validator (which also recomputes the boundary
            // tables bit for bit) accepts the computed layout.
            validate_sharding(&world.graph, &info)
                .unwrap_or_else(|e| panic!("{label}: computed layout rejected: {e}"));
        }
    }
}

#[test]
fn every_edge_is_intra_shard_or_a_recorded_cut() {
    for config in worlds() {
        let world = generate_world(&config);
        let graph = &world.graph;
        for shards in [2usize, 4] {
            let info = compute_sharding(graph, shards);
            let label = format!("{} seed {} @{shards}", config.topology.name(), config.seed);

            // Recount cuts by brute walk and compare to the summary.
            let brute: Vec<_> = cut_edges(graph, &info.assignment);
            assert_eq!(brute, info.cut_edges, "{label}: cut list diverges");
            for cut in &info.cut_edges {
                assert_ne!(
                    info.shard_of(cut.source),
                    info.shard_of(cut.target),
                    "{label}: recorded cut {} -> {} is intra-shard",
                    cut.source,
                    cut.target
                );
            }

            // Partition: shard subgraph edges + cuts == all edges.
            let intra: usize = (0..info.shard_count)
                .map(|s| shard_subgraph(graph, &info.assignment, s).edge_count())
                .sum();
            assert_eq!(
                intra + info.cut_edges.len(),
                graph.edge_count(),
                "{label}: edges dropped or double-counted"
            );
        }
    }
}

#[test]
fn confined_budgets_keep_optimal_routes_inside_the_shard() {
    let mut checked = 0usize;
    for config in worlds() {
        let world = generate_world(&config);
        let graph = &world.graph;
        let engine = KorEngine::new(graph);
        let top3 = SearchRequest {
            k: 3,
            ..SearchRequest::new(Algo::OsScaling(OsScalingParams::default()))
        };
        for shards in [2usize, 4] {
            let info = compute_sharding(graph, shards);
            let label = format!("{} seed {} @{shards}", config.topology.name(), config.seed);
            let mut budget_samples = 0usize;
            for s in graph.nodes() {
                for t in graph.nodes() {
                    if s == t || info.shard_of(s) != info.shard_of(t) {
                        continue;
                    }
                    let fence = info.escape[s.index()] + info.enter[t.index()];
                    if !fence.is_finite() || fence <= TOL {
                        continue;
                    }
                    // Just under the fence: provably confined.
                    let delta = fence - TOL;
                    assert!(
                        info.confined(s, t, delta),
                        "{label}: {s}->{t} Δ {delta} under the fence but not confined"
                    );
                    let query = KorQuery::new(graph, s, t, vec![], delta).unwrap();
                    for r in engine.search(&query, &top3).unwrap().routes {
                        for &v in r.route.nodes() {
                            assert_eq!(
                                info.shard_of(v),
                                info.shard_of(s),
                                "{label}: confined query {s}->{t} Δ {delta} \
                                 produced a route leaving the shard at {v}"
                            );
                        }
                    }
                    checked += 1;
                    budget_samples += 1;
                    if budget_samples >= 25 {
                        break;
                    }
                }
                if budget_samples >= 25 {
                    break;
                }
            }
        }
    }
    assert!(
        checked > 50,
        "confinement property exercised only {checked} pairs — sweep too thin"
    );
}

#[test]
fn sharded_snapshots_are_byte_reproducible_per_seed() {
    for config in worlds().into_iter().take(4) {
        let label = format!("{} seed {}", config.topology.name(), config.seed);
        let make = || {
            let mut world = generate_world(&config);
            world.sharding = Some(compute_sharding(&world.graph, 3));
            snapshot_to_bytes(&world)
        };
        let (a, b) = (make(), make());
        assert_eq!(a, b, "{label}: same seed, different sharded bytes");

        // Read-back equality: the parsed layout is the one written.
        let world = snapshot_from_bytes(&a).unwrap_or_else(|e| panic!("{label}: reread: {e}"));
        let reread = world.sharding.expect("sharding survives the round trip");
        let fresh = compute_sharding(&world.graph, 3);
        assert_eq!(reread, fresh, "{label}: layout drifted through the bytes");
    }
}
