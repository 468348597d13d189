//! Property sweep over the cache repair that carries warm trees across
//! edge mutations.
//!
//! * **Tree-level warm ≡ cold.** After every batch of a traffic script,
//!   every key cached before the batch, in all four families (contexts,
//!   Opt-2 pairs, reach trees, greedy forward trees), is still a hit,
//!   and every node of every tree equals a cold build on the mutated
//!   graph: objective bits, budget bits and `link`. No tree may fall
//!   back to a cold rebuild. The worlds are the 18 generated worlds of
//!   `tests/common`, a 3,000-node world of the benchmark's shape, and a
//!   unit-weight grid, where ties are everywhere.
//! * **Repair contract on directed worlds.** Random *directed* layered
//!   graphs (backward reachability is genuinely partial) are warmed and
//!   mutated: every cached context is carried, a context no changed
//!   edge can reach keeps its very allocation, and a repaired one
//!   answers exactly like a cold engine.
//!
//! The sweep also pins the typed rejection contract: closing a
//! nonexistent edge, zero/negative/non-finite multipliers, duplicate
//! pairs, and reopening a live edge each map to their own
//! `MutationError` variant and leave the engine untouched.

use std::sync::Arc;

// This suite uses a subset of the shared helpers.
#[allow(dead_code)]
mod common;

use common::{canned_queries, requests, worlds};
use kor::apsp::{forward_tree, KeywordReach, Metric, Tree};
use kor::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random layered DAG: `layers × width` nodes, edges only from
/// layer i to i+1 (plus a few skips), one keyword per node from a tiny
/// vocab. Directed on purpose: reachability must be partial for
/// retention to be observable.
fn layered_dag(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = 4 + (seed as usize % 3); // 4..=6
    let width = 3 + (seed as usize % 2); // 3..=4
    let mut builder = GraphBuilder::new();
    let mut grid: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..layers {
        let mut layer = Vec::new();
        for _ in 0..width {
            let tag = format!("t{}", rng.gen_range(0u32..6));
            layer.push(builder.add_node([tag.as_str()]));
        }
        grid.push(layer);
    }
    for i in 0..layers - 1 {
        for &u in &grid[i] {
            // Every node gets 1-2 forward edges so no layer dead-ends.
            let fanout = rng.gen_range(1usize..=2);
            for _ in 0..fanout {
                let w = grid[i + 1][rng.gen_range(0..width)];
                let objective = rng.gen_range(1.0..4.0);
                let budget = rng.gen_range(1.0..4.0);
                // Duplicate picks are fine: add_edge rejects them, skip.
                let _ = builder.add_edge(u, w, objective, budget);
            }
        }
        // A couple of layer-skipping edges for path diversity.
        if i + 2 < layers {
            let u = grid[i][rng.gen_range(0..width)];
            let w = grid[i + 2][rng.gen_range(0..width)];
            let _ = builder.add_edge(u, w, rng.gen_range(1.0..4.0), rng.gen_range(2.0..6.0));
        }
    }
    builder.build().expect("layered DAG is a valid graph")
}

/// Every (from, to) edge pair of the graph.
fn edge_pairs(graph: &Graph) -> Vec<(NodeId, NodeId)> {
    graph
        .nodes()
        .flat_map(|u| graph.out_edges(u).map(move |e| (u, e.node)))
        .collect()
}

/// A `side × side` grid with an edge each way between neighbours, every
/// weight `(1.0, 1.0)`: equal-cost paths everywhere, so every link is
/// decided by the tie-break rule.
fn unit_grid(side: u32) -> Graph {
    let mut builder = GraphBuilder::new();
    for i in 0..side * side {
        let tag = format!("k{}", i % 5);
        builder.add_node([tag.as_str()]);
    }
    for r in 0..side {
        for c in 0..side {
            let here = NodeId(r * side + c);
            let right = (c + 1 < side).then(|| NodeId(r * side + c + 1));
            let down = (r + 1 < side).then(|| NodeId((r + 1) * side + c));
            for there in [right, down].into_iter().flatten() {
                builder.add_edge(here, there, 1.0, 1.0).unwrap();
                builder.add_edge(there, here, 1.0, 1.0).unwrap();
            }
        }
    }
    builder.build().expect("grid is a valid graph")
}

/// Queries over the unit grid: corner-to-corner and across, one or two
/// keywords, budgets from tight to loose.
fn unit_grid_queries(graph: &Graph, side: u32) -> Vec<KorQuery> {
    let n = side * side;
    [
        (0, n - 1, vec!["k1"], 2.0 * side as f64),
        (side - 1, n - side, vec!["k2", "k3"], 3.0 * side as f64),
        (n / 2, 0, vec!["k4"], side as f64),
        (7, n - 8, vec!["k0", "k2"], 2.5 * side as f64),
    ]
    .into_iter()
    .map(|(s, t, kw, b)| KorQuery::from_terms(graph, NodeId(s), NodeId(t), kw, b).unwrap())
    .collect()
}

/// Asserts `warm` equals `cold` node for node: objective bits, budget
/// bits and link.
fn assert_tree_eq(warm: &Tree, cold: &Tree, graph: &Graph, what: &str) {
    for v in graph.nodes() {
        let (w, c) = (warm.node(v), cold.node(v));
        assert!(
            w.objective.to_bits() == c.objective.to_bits()
                && w.budget.to_bits() == c.budget.to_bits()
                && w.link == c.link,
            "{what}: node {v}: warm {w:?} ≠ cold {c:?}"
        );
    }
}

/// Per-family count of the lookups the battery checked.
#[derive(Debug, Default)]
struct Checked {
    contexts: usize,
    opt2: usize,
    reach: usize,
    forward: usize,
    repaired: usize,
}

/// Warms an engine by running `queries` under every algorithm, plus an
/// Opt-2 pair per query keyword.
fn warm_by_searching(queries: &[KorQuery]) -> impl Fn(&KorEngine<Arc<Graph>>) + '_ {
    move |engine| {
        let (g, index, cache) = (engine.graph(), engine.index(), engine.preprocess_cache());
        for query in queries {
            for request in &requests() {
                let _ = engine.search(query, request);
            }
            // The searches build Opt-2 pairs only for keywords rarer
            // than these small worlds have; warm them directly.
            let (ctx, _) = cache.context(g, query.target);
            for &kw in query.keywords.ids() {
                cache.opt2_trees(g, index, &ctx, kw);
            }
        }
    }
}

/// Warms `graph`'s engine with `warm_all`, then applies each batch of
/// `script`. After every batch, looks up every key cached before it and
/// compares each tree with a cold build, then warms again.
fn check_tree_level(
    graph: &Graph,
    warm_all: impl Fn(&KorEngine<Arc<Graph>>),
    script: &[Vec<EdgeMutation>],
    what: &str,
    checked: &mut Checked,
) {
    let mut engine = KorEngine::new(Arc::new(graph.clone()));
    warm_all(&engine);
    for (phase, batch) in script.iter().enumerate() {
        let what = format!("{what} phase {phase}");
        let keys = engine.preprocess_cache().cached_keys();
        let (next, report) = engine.apply_edge_mutations(batch).expect("valid batch");
        engine = next;
        assert_eq!(report.total_evicted(), 0, "{what}: {report:?}");
        assert_eq!(report.trees_rebuilt, 0, "{what}: cold fallback: {report:?}");
        checked.repaired += report.trees_repaired;

        let (g, index, cache) = (engine.graph(), engine.index(), engine.preprocess_cache());
        let built = cache.stats().trees_built;
        let forward_misses = |c: &PreprocessCache| c.forward_entries();
        let forward_before = forward_misses(cache);
        for &t in &keys.contexts {
            let (warm, hit) = cache.context(g, t);
            assert!(hit, "{what}: context {t} was not carried");
            let cold = QueryContext::new(g, t);
            assert_tree_eq(
                warm.tau_tree(),
                cold.tau_tree(),
                g,
                &format!("{what} τ→{t}"),
            );
            assert_tree_eq(
                warm.sigma_tree(),
                cold.sigma_tree(),
                g,
                &format!("{what} σ→{t}"),
            );
            checked.contexts += 1;
        }
        for &(t, kw) in &keys.opt2 {
            let (ctx, _) = cache.context(g, t);
            let (warm, hit) = cache.opt2_trees(g, index, &ctx, kw);
            assert!(hit, "{what}: Opt-2 ({t}, {kw:?}) was not carried");
            let fresh = PreprocessCache::new();
            let (cold, _) = fresh.opt2_trees(g, index, &QueryContext::new(g, t), kw);
            let label = format!("{what} Opt-2 ({t}, {kw:?})");
            assert_tree_eq(&warm.obj_bound, &cold.obj_bound, g, &label);
            assert_tree_eq(&warm.bud_bound, &cold.bud_bound, g, &label);
            checked.opt2 += 1;
        }
        for &kw in &keys.reach {
            let (warm, hit) = cache.reach_tree(g, kw, index.postings(kw));
            assert!(hit, "{what}: reach tree {kw:?} was not carried");
            let cold = KeywordReach::build_tree(g, index.postings(kw));
            assert_tree_eq(&warm, &cold, g, &format!("{what} reach {kw:?}"));
            checked.reach += 1;
        }
        for &s in &keys.forward {
            let (warm, hit) = cache.forward_tree(g, s);
            assert!(hit, "{what}: forward tree from {s} was not carried");
            let cold = forward_tree(g, Metric::Objective, s);
            assert_tree_eq(&warm, &cold, g, &format!("{what} forward {s}"));
            checked.forward += 1;
        }
        assert_eq!(cache.stats().trees_built, built, "{what}: a lookup rebuilt");
        assert_eq!(forward_misses(cache), forward_before, "{what}");
        // Keep every family warm for the next batch.
        warm_all(&engine);
    }
}

#[test]
fn repaired_trees_equal_cold_builds_after_every_batch() {
    let mut checked = Checked::default();
    for config in worlds() {
        let world = generate_world(&config);
        let what = format!("{} seed {}", config.topology.name(), config.seed);
        let script = generate_traffic(&world.graph, &TrafficConfig::base(0xACE ^ config.seed));
        let queries = canned_queries(&world.graph, &world.query_sets);
        check_tree_level(
            &world.graph,
            warm_by_searching(&queries),
            &script,
            &what,
            &mut checked,
        );
    }
    eprintln!("tree-level battery, generated worlds: {checked:?}");
    assert!(
        checked.contexts > 0 && checked.opt2 > 0 && checked.reach > 0 && checked.forward > 0,
        "every family must be exercised: {checked:?}"
    );
    assert!(
        checked.repaired > 0,
        "no tree was ever repaired: {checked:?}"
    );
}

#[test]
fn repaired_trees_equal_cold_builds_on_a_unit_weight_grid() {
    let side = 12;
    let graph = unit_grid(side);
    let queries = unit_grid_queries(&graph, side);
    let mut checked = Checked::default();
    // Budget multipliers of exactly 2 keep every weight an integer, so
    // ties survive the slowdowns; the base profile's fractional ones
    // break some of them.
    let doubling = TrafficConfig {
        phases: 6,
        multiplier_range: (2.0, 2.0),
        ..TrafficConfig::base(12)
    };
    for (i, config) in [doubling, TrafficConfig::base(13)].iter().enumerate() {
        let script = generate_traffic(&graph, config);
        check_tree_level(
            &graph,
            warm_by_searching(&queries),
            &script,
            &format!("unit grid {i}"),
            &mut checked,
        );
    }
    eprintln!("tree-level battery, unit grid: {checked:?}");
    assert!(
        checked.contexts > 0 && checked.opt2 > 0 && checked.reach > 0 && checked.forward > 0,
        "every family must be exercised: {checked:?}"
    );
    assert!(
        checked.repaired > 0,
        "no tree was ever repaired: {checked:?}"
    );
}

#[test]
fn repaired_trees_equal_cold_builds_on_the_benchmark_world() {
    // A world of the benchmark of record's shape and seed:
    // `GenConfig::grid(60, 50, 2012)`, 3,000 nodes.
    // Label searches on it are slow in a debug build, so the cache is
    // warmed directly: spread-out targets, each with a keyword of its
    // own for the Opt-2 pair and the reach tree, and forward trees.
    let world = generate_world(&GenConfig::grid(60, 50, 2012));
    let warm = |engine: &KorEngine<Arc<Graph>>| {
        let (g, index, cache) = (engine.graph(), engine.index(), engine.preprocess_cache());
        for i in 0..24u32 {
            let target = NodeId(i * 125);
            let (ctx, _) = cache.context(g, target);
            if let Some(kw) = g.keywords(target).iter().next() {
                cache.opt2_trees(g, index, &ctx, kw);
                cache.reach_tree(g, kw, index.postings(kw));
            }
            cache.forward_tree(g, NodeId(i * 125 + 62));
        }
    };
    let script = generate_traffic(
        &world.graph,
        &TrafficConfig {
            phases: 6,
            ..TrafficConfig::base(2012)
        },
    );
    let mut checked = Checked::default();
    check_tree_level(&world.graph, warm, &script, "benchmark world", &mut checked);
    eprintln!("tree-level battery, benchmark world: {checked:?}");
    assert!(
        checked.contexts > 0 && checked.opt2 > 0 && checked.reach > 0 && checked.forward > 0,
        "every family must be exercised: {checked:?}"
    );
    assert!(
        checked.repaired > 0,
        "no tree was ever repaired: {checked:?}"
    );
}

#[test]
fn repair_carries_every_context_and_keeps_unreached_ones_as_they_were() {
    let (mut repaired, mut untouched) = (0usize, 0usize);
    for seed in 0..12u64 {
        let graph = Arc::new(layered_dag(seed));
        let engine = KorEngine::new(Arc::clone(&graph));
        let mut rng = StdRng::seed_from_u64(0xFEED ^ seed);

        for t in graph.nodes() {
            let (_, _) = engine.preprocess_cache().context(graph.as_ref(), t);
        }
        let cached = engine.preprocess_cache().cached_keys().contexts;
        assert!(!cached.is_empty());

        // Pick a mutation batch: one scale + one close on random edges.
        let pairs = edge_pairs(&graph);
        let scale_at = rng.gen_range(0..pairs.len());
        let mut close_at = rng.gen_range(0..pairs.len());
        while close_at == scale_at {
            close_at = rng.gen_range(0..pairs.len());
        }
        let batch = [
            EdgeMutation::scale(pairs[scale_at].0, pairs[scale_at].1, 1.3, 1.1),
            EdgeMutation::close(pairs[close_at].0, pairs[close_at].1),
        ];
        let heads = [pairs[scale_at].1, pairs[close_at].1];

        // A context can change only if a changed edge's head reaches
        // its target — computed from each target's own context,
        // independently of the repair.
        let before: Vec<(NodeId, Arc<QueryContext>, bool)> = cached
            .iter()
            .map(|&t| {
                let (ctx, _) = engine.preprocess_cache().context(graph.as_ref(), t);
                let reached = heads.iter().any(|&h| ctx.reaches_target(h) || h == t);
                (t, ctx, reached)
            })
            .collect();

        let (mutated, report) = engine.apply_edge_mutations(&batch).expect("valid batch");
        assert_eq!(
            (report.contexts_retained, report.contexts_evicted),
            (cached.len(), 0),
            "seed {seed}: every context is carried"
        );
        assert_eq!(report.trees_rebuilt, 0, "seed {seed}");

        let cold = KorEngine::new(Arc::new(mutated.graph().clone()));
        let built = mutated.preprocess_cache().stats().trees_built;
        for (t, old, reached) in before {
            let (ctx, hit) = mutated.preprocess_cache().context(mutated.graph(), t);
            assert!(hit, "seed {seed}: context for {t} was lost");
            if !reached {
                // Minimality: the repair did not even copy it.
                assert!(
                    Arc::ptr_eq(&old, &ctx),
                    "seed {seed}: unreached {t} was copied"
                );
                untouched += 1;
            } else if !Arc::ptr_eq(&old, &ctx) {
                repaired += 1;
            }
            let (want, _) = cold.preprocess_cache().context(mutated.graph(), t);
            for v in mutated.graph().nodes() {
                assert_eq!(
                    ctx.tau_tree().node(v),
                    want.tau_tree().node(v),
                    "seed {seed} τ→{t} at {v}"
                );
                assert_eq!(
                    ctx.sigma_tree().node(v),
                    want.sigma_tree().node(v),
                    "seed {seed} σ→{t} at {v}"
                );
            }
        }
        assert_eq!(
            mutated.preprocess_cache().stats().trees_built,
            built,
            "seed {seed}: a carried context was rebuilt"
        );
    }
    // The sweep must observe both outcomes or the check was one-sided.
    assert!(repaired > 0, "no context was ever repaired");
    assert!(
        untouched > 0,
        "no context was ever out of the batch's reach"
    );
    eprintln!("mutate props: {repaired} repaired, {untouched} untouched across 12 seeds");
}

#[test]
fn warm_answers_match_cold_across_random_mutation_sequences() {
    for seed in 0..8u64 {
        let graph = Arc::new(layered_dag(seed));
        let mut rng = StdRng::seed_from_u64(0xBEEF ^ seed);
        let mut engine = KorEngine::new(Arc::clone(&graph));

        // Random feasible-looking queries: first-layer sources, any
        // later node as target, one keyword the target actually has.
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let queries: Vec<(NodeId, NodeId, f64)> = (0..6)
            .map(|_| {
                let s = nodes[rng.gen_range(0..nodes.len() / 2)];
                let t = nodes[rng.gen_range(nodes.len() / 2..nodes.len())];
                (s, t, rng.gen_range(5.0..25.0))
            })
            .collect();
        let run_all = |e: &KorEngine<Arc<Graph>>| -> Vec<Option<(Vec<u32>, u64, u64)>> {
            queries
                .iter()
                .map(|&(s, t, b)| {
                    let q = KorQuery::new(e.graph(), s, t, Vec::new(), b).expect("endpoints exist");
                    e.os_scaling(&q, &OsScalingParams::with_epsilon(0.5))
                        .unwrap()
                        .route
                        .map(|r| {
                            (
                                r.route.nodes().iter().map(|n| n.0).collect(),
                                r.objective.to_bits(),
                                r.budget.to_bits(),
                            )
                        })
                })
                .collect()
        };

        for step in 0..4 {
            let _ = run_all(&engine); // keep the caches warm
            let pairs = edge_pairs(engine.graph());
            let (u, w) = pairs[rng.gen_range(0..pairs.len())];
            let batch = if rng.gen_bool(0.5) {
                vec![EdgeMutation::scale(u, w, 1.0, rng.gen_range(1.1..2.0))]
            } else {
                vec![EdgeMutation::close(u, w)]
            };
            let (next, _) = engine.apply_edge_mutations(&batch).expect("valid batch");
            engine = next;
            let cold = KorEngine::new(Arc::new(engine.graph().clone()));
            assert_eq!(
                run_all(&engine),
                run_all(&cold),
                "seed {seed} step {step}: warm diverged from cold"
            );
        }
    }
}

#[test]
fn invalid_mutations_are_typed_errors_and_leave_the_engine_alone() {
    let graph = Arc::new(layered_dag(1));
    let engine = KorEngine::new(Arc::clone(&graph));
    let pairs = edge_pairs(&graph);
    let (u, w) = pairs[0];
    // A pair with no edge: reverse of an existing one (the DAG never
    // has back edges).
    let expect_err = |batch: &[EdgeMutation]| match engine.apply_edge_mutations(batch) {
        Ok(_) => panic!("batch {batch:?} must be rejected"),
        Err(e) => e,
    };

    match expect_err(&[EdgeMutation::close(w, u)]) {
        MutationError::UnknownEdge { from, to } => {
            assert_eq!((from, to), (w, u));
        }
        other => panic!("expected UnknownEdge, got {other}"),
    }
    match expect_err(&[EdgeMutation::scale(u, w, 1.0, 0.0)]) {
        MutationError::InvalidMultiplier {
            attribute, value, ..
        } => {
            assert_eq!(attribute, "budget");
            assert_eq!(value, 0.0);
        }
        other => panic!("expected InvalidMultiplier, got {other}"),
    }
    match expect_err(&[EdgeMutation::scale(u, w, f64::NAN, 1.0)]) {
        MutationError::InvalidMultiplier { attribute, .. } => assert_eq!(attribute, "objective"),
        other => panic!("expected InvalidMultiplier, got {other}"),
    }
    match expect_err(&[EdgeMutation::reopen(u, w, 1.0, 1.0)]) {
        MutationError::EdgeExists { from, to } => assert_eq!((from, to), (u, w)),
        other => panic!("expected EdgeExists, got {other}"),
    }
    match expect_err(&[
        EdgeMutation::close(u, w),
        EdgeMutation::scale(u, w, 1.0, 1.5),
    ]) {
        MutationError::DuplicateMutation { from, to } => assert_eq!((from, to), (u, w)),
        other => panic!("expected DuplicateMutation, got {other}"),
    }
    let far = NodeId(graph.node_count() as u32);
    match expect_err(&[EdgeMutation::close(far, u)]) {
        MutationError::UnknownNode(n) => assert_eq!(n, far),
        other => panic!("expected UnknownNode, got {other}"),
    }

    // Rejected batches are atomic: the engine still answers on the
    // original graph at epoch 0 with its caches intact.
    assert_eq!(engine.graph().epoch(), 0);
    assert_eq!(engine.graph().edge_count(), graph.edge_count());
}
