//! Dynamic-world oracle battery: a warm engine that survived a
//! mutation sequence via incremental cache invalidation answers every
//! query bit-for-bit identically to a cold engine built from the
//! mutated graph.
//!
//! The same 18 generated worlds `tests/gen_oracle.rs` validates against
//! the brute-force oracle each get a seeded traffic script (closures,
//! rush-hour slowdowns, reopenings). After every phase the warm engine
//! — whose τ/σ context cache, Opt-2 bound trees, and greedy forward
//! trees were warmed before the incident and selectively evicted by it
//! — answers every canned query with every algorithm, and so does a
//! cold engine built from scratch on the mutated graph. The answers
//! must match exactly: same feasibility, same route node ids, same
//! objective/budget f64 bit patterns, same top-k order. Every feasible
//! route is re-walked edge by edge against the *mutated* graph, so a
//! stale cache entry can't smuggle a closed edge back into an answer.
//!
//! Non-vacuity comes in two halves. Eviction: the generated worlds are
//! strongly connected (bidirectional edges), so every backward tree
//! reaches every node and each phase must evict warm entries — the
//! battery counts them. Survival: strongly connected worlds can never
//! retain a stamped tree, so a separate directed-world test (the
//! paper's Figure 1) proves entries whose stamp avoids the changed
//! edges stay warm and keep answering — with their hit counters as the
//! witness. A third test replays mutations through the sharded dataset
//! path (`Dataset::with_mutations`) and checks the router — re-derived
//! boundary or degraded fused-only — stays byte-identical to the cold
//! fused engine.

use std::sync::Arc;

mod common;

use common::{canned_queries, keys, label, requests, verify_outcome, worlds};
use kor::prelude::*;
use kor::serve::registry::Dataset;

/// Runs one search.
fn run<G: AsRef<Graph>>(
    engine: &KorEngine<G>,
    query: &KorQuery,
    request: &SearchRequest,
) -> SearchOutcome {
    engine.search(query, request).unwrap()
}

/// Warms every cache family: every search on every canned query.
fn warm_all(engine: &KorEngine<Arc<Graph>>, queries: &[KorQuery]) {
    for query in queries {
        for request in &requests() {
            let _ = run(engine, query, request);
        }
    }
}

#[test]
fn warm_engine_matches_cold_rebuild_after_every_phase_on_all_worlds() {
    let mut evicted_total = 0usize;
    let mut compared = 0usize;
    for config in worlds() {
        let world = generate_world(&config);
        let world_label = format!("{} seed {}", config.topology.name(), config.seed);
        let script = generate_traffic(&world.graph, &TrafficConfig::base(0xD1CE ^ config.seed));
        let mut engine = KorEngine::new(Arc::new(world.graph.clone()));
        warm_all(&engine, &canned_queries(engine.graph(), &world.query_sets));

        for (phase, batch) in script.iter().enumerate() {
            let (next, report) = engine
                .apply_edge_mutations(batch)
                .unwrap_or_else(|e| panic!("{world_label} phase {phase}: {e}"));
            engine = next;
            evicted_total += report.total_evicted();
            assert_eq!(report.epoch, (phase + 1) as u64, "{world_label}");

            let cold = KorEngine::new(Arc::new(engine.graph().clone()));
            let queries = canned_queries(engine.graph(), &world.query_sets);
            for query in &queries {
                for request in &requests() {
                    let what = format!(
                        "{world_label} phase {phase}: {} -> {} Δ {:.3} [{}]",
                        query.source,
                        query.target,
                        query.budget,
                        label(request)
                    );
                    let warm = run(&engine, query, request);
                    let cold_routes = run(&cold, query, request);
                    assert_eq!(
                        keys(&warm),
                        keys(&cold_routes),
                        "{what}: warm engine diverged from cold rebuild"
                    );
                    compared += 1;
                    // Re-walk on the mutated graph: a stale tree citing
                    // a closed edge, or scoring an old weight, fails.
                    verify_outcome(engine.graph(), query, &warm, &what);
                }
            }
            // Re-warm so the next phase's invalidation has warm state to
            // carve up (the comparisons above already did this as a side
            // effect; this line just documents the intent).
        }
    }
    assert!(
        evicted_total > 0,
        "no mutation ever evicted a warm cache entry — the invalidation \
         path went untested"
    );
    eprintln!(
        "mutate oracle: {compared} warm-vs-cold comparisons, \
         {evicted_total} cache entries evicted"
    );
}

#[test]
fn directed_world_retains_warm_entries_that_avoid_the_changed_edges() {
    // Figure 1 of the paper is directed: {v0..v3} are exactly the nodes
    // that reach v1, so a mutation behind v7 can't touch v1's backward
    // trees. This is the survival half of non-vacuity: incremental
    // invalidation must keep those entries warm *and* they must keep
    // answering (hits, not rebuilds).
    let graph = Arc::new(kor::graph::fixtures::figure1());
    let v = |i: u32| NodeId(i);
    let engine = KorEngine::new(Arc::clone(&graph));
    let queries: Vec<KorQuery> = [
        (0, 7, vec!["t1", "t2"], 10.0),
        (0, 1, vec!["t2"], 8.0),
        (2, 7, vec!["t4"], 12.0),
        (3, 1, vec!["t1"], 6.0),
    ]
    .into_iter()
    .map(|(s, t, kw, b)| {
        KorQuery::from_terms(graph.as_ref(), v(s), v(t), kw, b).expect("valid query")
    })
    .collect();
    warm_all(&engine, &queries);

    // Slow down v5 -> v4: its head v4 reaches v7 but not v1, so the v1
    // contexts must survive while the v7 ones go.
    let (mutated, report) = engine
        .apply_edge_mutations(&[EdgeMutation::scale(v(5), v(4), 1.0, 1.5)])
        .expect("valid mutation");
    assert!(
        report.contexts_retained >= 1,
        "v1's context should survive: {report:?}"
    );
    assert!(
        report.contexts_evicted >= 1,
        "v7's context should be evicted: {report:?}"
    );
    assert!(
        report.total_retained() > 0 && report.total_evicted() > 0,
        "directed-world non-vacuity: {report:?}"
    );

    // The survivors keep answering from cache: re-running a v1 query
    // must not build new trees.
    let before = mutated.preprocess_cache().stats().trees_built;
    let q_v1 = KorQuery::from_terms(mutated.graph(), v(0), v(1), vec!["t2"], 8.0).unwrap();
    let _ = run(&mutated, &q_v1, &requests()[1]);
    assert_eq!(
        mutated.preprocess_cache().stats().trees_built,
        before,
        "retained context was rebuilt instead of reused"
    );

    // And the warm engine still matches a cold rebuild on every query.
    let cold = KorEngine::new(Arc::new(mutated.graph().clone()));
    for (i, (s, t, kw, b)) in [
        (0u32, 7u32, vec!["t1", "t2"], 10.0),
        (0, 1, vec!["t2"], 8.0),
        (2, 7, vec!["t4"], 12.0),
        (3, 1, vec!["t1"], 6.0),
    ]
    .into_iter()
    .enumerate()
    {
        let query = KorQuery::from_terms(mutated.graph(), v(s), v(t), kw, b).unwrap();
        for request in &requests() {
            assert_eq!(
                keys(&run(&mutated, &query, request)),
                keys(&run(&cold, &query, request)),
                "query {i} [{}]: warm diverged from cold",
                label(request)
            );
        }
    }
}

#[test]
fn sharded_dataset_stays_byte_identical_through_mutations() {
    let mut stayed_sharded = 0usize;
    let mut degraded = 0usize;
    for config in worlds().into_iter().take(6) {
        let mut world = generate_world(&config);
        let world_label = format!("{} seed {}", config.topology.name(), config.seed);
        world.sharding = Some(compute_sharding(&world.graph, 2));
        let assignment = world.sharding.as_ref().unwrap().assignment.clone();
        let query_sets = world.query_sets.clone();
        let dataset = Dataset::from_snapshot("w", world);
        assert!(
            dataset.router().is_some(),
            "{world_label}: dataset is sharded"
        );

        // Two deterministic batches: first an intra-shard slowdown (the
        // boundary stays valid, the router stays sharded), then a
        // cut-edge slowdown (the router must degrade to fused-only).
        let graph = dataset.engine().graph();
        let intra = graph
            .nodes()
            .flat_map(|u| graph.out_edges(u).map(move |e| (u, e.node)))
            .find(|&(u, w)| assignment[u.index()] == assignment[w.index()]);
        let cut = graph
            .nodes()
            .flat_map(|u| graph.out_edges(u).map(move |e| (u, e.node)))
            .find(|&(u, w)| assignment[u.index()] != assignment[w.index()]);
        let (Some(intra), Some(cut)) = (intra, cut) else {
            panic!("{world_label}: expected both intra-shard and cut edges");
        };

        let mut dataset = dataset;
        for (u, w) in [intra, cut] {
            let (next, _report) = dataset
                .with_mutations(&[EdgeMutation::scale(u, w, 1.0, 1.25)])
                .unwrap_or_else(|e| panic!("{world_label}: {e}"));
            dataset = next;
            let router = dataset.router().expect("router survives mutation");
            if router.fused_only() {
                degraded += 1;
            } else {
                stayed_sharded += 1;
            }

            let cold = KorEngine::new(Arc::new(dataset.engine().graph().clone()));
            for query in canned_queries(dataset.engine().graph(), &query_sets) {
                for request in &requests() {
                    let what = format!(
                        "{world_label}: {} -> {} [{}] (fused_only {})",
                        query.source,
                        query.target,
                        label(request),
                        router.fused_only()
                    );
                    let routed = router
                        .search(dataset.engine(), &query, request)
                        .expect("no shard is poisoned")
                        .unwrap();
                    let single = run(&cold, &query, request);
                    assert_eq!(
                        keys(&routed),
                        keys(&single),
                        "{what}: mutated sharded dataset diverged from cold engine"
                    );
                }
            }
        }
        // The second batch crossed the cut, so this dataset must have
        // ended degraded.
        assert!(
            dataset.router().unwrap().fused_only(),
            "{world_label}: cut-edge mutation did not degrade the router"
        );
    }
    assert!(
        stayed_sharded > 0,
        "no mutation ever left the router sharded — boundary re-derivation \
         went untested"
    );
    assert!(degraded > 0, "no mutation ever degraded the router");
    eprintln!(
        "sharded mutate oracle: {stayed_sharded} batches kept the boundary, \
         {degraded} degraded to fused-only"
    );
}
