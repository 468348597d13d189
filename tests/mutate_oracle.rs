//! Dynamic-world oracle battery: a warm engine that survived a
//! mutation sequence by repairing its cached trees answers every query
//! bit-for-bit identically to a cold engine built from the mutated
//! graph.
//!
//! The same 18 generated worlds `tests/gen_oracle.rs` validates against
//! the brute-force oracle each get a seeded traffic script (closures,
//! rush-hour slowdowns, reopenings). After every phase the warm engine
//! — whose τ/σ context cache, Opt-2 bound trees, and greedy forward
//! trees were warmed before the incident and repaired across it —
//! answers every canned query with every algorithm, and so does a
//! cold engine built from scratch on the mutated graph. The answers
//! must match exactly: same feasibility, same route node ids, same
//! objective/budget f64 bit patterns, same top-k order. Every feasible
//! route is re-walked edge by edge against the *mutated* graph, so a
//! stale cache entry can't smuggle a closed edge back into an answer.
//!
//! Non-vacuity comes in two halves. Repair: the generated worlds are
//! strongly connected (bidirectional edges), so every backward tree
//! reaches every node and the phases must repair warm trees — the
//! battery counts them, and no entry may be evicted. Survival: a
//! separate directed-world test (the paper's Figure 1) proves entries
//! the changed edges cannot reach are carried as they were, repaired
//! ones are carried too, and both keep answering from the cache — with
//! the trees-built counter as the witness.

use std::sync::Arc;

mod common;

use common::{canned_queries, keys, label, requests, verify_outcome, worlds};
use kor::prelude::*;

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
    let mut repaired_total = 0usize;
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
            repaired_total += report.trees_repaired;
            assert_eq!(report.epoch, (phase + 1) as u64, "{world_label}");
            assert_eq!(report.total_evicted(), 0, "{world_label}: {report:?}");

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
            // The comparisons above re-warmed every family, so the next
            // phase has warm state to repair.
        }
    }
    assert!(
        repaired_total > 0,
        "no mutation ever changed a warm tree — the repair path went untested"
    );
    eprintln!(
        "mutate oracle: {compared} warm-vs-cold comparisons, \
         {repaired_total} trees repaired"
    );
}

#[test]
fn directed_world_retains_warm_entries_that_avoid_the_changed_edges() {
    // Figure 1 of the paper is directed: {v0..v3} are exactly the nodes
    // that reach v1, so a mutation behind v7 can't touch v1's backward
    // trees. This is the survival half of non-vacuity: the carry-over
    // must keep those entries as they were, repair v7's, and both must
    // keep answering (hits, not rebuilds).
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
    let (v1_before, _) = engine.preprocess_cache().context(graph.as_ref(), v(1));
    let (v7_before, _) = engine.preprocess_cache().context(graph.as_ref(), v(7));

    // Slow down v5 -> v4: its head v4 reaches v7 but not v1, so the v1
    // context is carried as it was while the v7 one is repaired.
    let (mutated, report) = engine
        .apply_edge_mutations(&[EdgeMutation::scale(v(5), v(4), 1.0, 1.5)])
        .expect("valid mutation");
    assert_eq!(
        (report.contexts_retained, report.contexts_evicted),
        (2, 0),
        "both contexts are carried: {report:?}"
    );
    assert_eq!(report.total_evicted(), 0, "{report:?}");
    assert!(
        report.trees_repaired > 0,
        "v7's trees need repair: {report:?}"
    );
    assert_eq!(report.trees_rebuilt, 0, "{report:?}");
    let (v1_after, _) = mutated.preprocess_cache().context(mutated.graph(), v(1));
    let (v7_after, _) = mutated.preprocess_cache().context(mutated.graph(), v(7));
    assert!(
        Arc::ptr_eq(&v1_before, &v1_after),
        "v1's context was copied"
    );
    assert!(
        !Arc::ptr_eq(&v7_before, &v7_after),
        "v7's context was not repaired"
    );

    // Both keep answering from cache: re-running every query must not
    // build new trees.
    let before = mutated.preprocess_cache().stats().trees_built;
    for (s, t, kw, b) in [
        (0u32, 1u32, vec!["t2"], 8.0),
        (0, 7, vec!["t1", "t2"], 10.0),
    ] {
        let q = KorQuery::from_terms(mutated.graph(), v(s), v(t), kw, b).unwrap();
        let _ = run(&mutated, &q, &requests()[1]);
    }
    assert_eq!(
        mutated.preprocess_cache().stats().trees_built,
        before,
        "a carried context was rebuilt instead of reused"
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
