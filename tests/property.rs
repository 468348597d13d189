//! Property-based tests over random small graphs: algorithm invariants
//! that must hold on *every* input, not just the curated fixtures.
//!
//! The build environment vendors no `proptest`, so these are hand-rolled
//! randomized properties: each test draws `CASES` independent inputs from
//! a seeded [`StdRng`] (deterministic, so failures reproduce) and checks
//! the same invariants a proptest harness would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kor::prelude::*;

const CASES: u64 = 64;

/// A random small directed graph with `2..=max_nodes` nodes, up to two
/// keywords per node from a tiny vocabulary, and random positive weights.
fn random_graph(rng: &mut StdRng, max_nodes: usize) -> Graph {
    let n = rng.gen_range(2..=max_nodes);
    let mut b = GraphBuilder::new();
    for t in 0..6u32 {
        b.vocab_mut().intern(&format!("kw{t}"));
    }
    for _ in 0..n {
        let n_kws = rng.gen_range(0..3usize);
        let kws: Vec<KeywordId> = (0..n_kws)
            .map(|_| KeywordId(rng.gen_range(0u32..6)))
            .collect();
        b.add_node_ids(kws);
    }
    let n_edges = rng.gen_range(1..(n * 3).max(2));
    for _ in 0..n_edges {
        let from = rng.gen_range(0..n as u32);
        let to = rng.gen_range(0..n as u32);
        if from != to {
            let o = rng.gen_range(1u32..50) as f64 / 10.0;
            let bu = rng.gen_range(1u32..50) as f64 / 10.0;
            // Duplicate edges are rejected; ignore those.
            let _ = b.add_edge(NodeId(from), NodeId(to), o, bu);
        }
    }
    b.build().expect("valid random graph")
}

/// Random query pieces: raw endpoints (reduced modulo the node count at
/// the use site), up to two query keywords, and a budget in `(0, 12]`.
fn random_query_parts(rng: &mut StdRng) -> (u32, u32, Vec<KeywordId>, f64) {
    let s = rng.gen_range(0u32..12);
    let t = rng.gen_range(0u32..12);
    let n_kws = rng.gen_range(0..3usize);
    let kws: Vec<KeywordId> = (0..n_kws)
        .map(|_| KeywordId(rng.gen_range(0u32..6)))
        .collect();
    let delta = rng.gen_range(1u32..120) as f64 / 10.0;
    (s, t, kws, delta)
}

#[test]
fn exact_agrees_with_brute_force() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let graph = random_graph(&mut rng, 8);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let brute = engine.brute_force(
            &query,
            &BruteForceParams {
                max_expansions: 2_000_000,
                target_pruning: true,
            },
        );
        let Ok(brute) = brute else { continue }; // search space cap
        let exact = engine.exact(&query).unwrap();
        match (&brute.route, &exact.route) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!(
                    (a.objective - b.objective).abs() < 1e-9,
                    "case {case}: brute {} vs exact {}",
                    a.objective,
                    b.objective
                );
            }
            (a, b) => panic!("case {case}: feasibility disagreement {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn os_scaling_bound_and_feasibility() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + case);
        let graph = random_graph(&mut rng, 10);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let eps = rng.gen_range(5u32..95) as f64 / 100.0;
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let exact = engine.exact(&query).unwrap();
        let approx = engine
            .os_scaling(&query, &OsScalingParams::with_epsilon(eps))
            .unwrap();
        match (&exact.route, &approx.route) {
            (None, None) => {}
            (Some(opt), Some(found)) => {
                assert!(
                    found.objective <= opt.objective / (1.0 - eps) + 1e-9,
                    "case {case}: Theorem 2 violated at eps={eps}: {} > {}",
                    found.objective,
                    opt.objective / (1.0 - eps)
                );
                let (os, bs) = found.route.scores(&graph).unwrap();
                assert!((os - found.objective).abs() < 1e-9, "case {case}");
                assert!((bs - found.budget).abs() < 1e-9, "case {case}");
                assert!(found.budget <= delta + 1e-9, "case {case}");
                assert!(
                    found.route.covers(&graph, query.keywords.ids()),
                    "case {case}"
                );
            }
            (a, b) => panic!("case {case}: feasibility disagreement {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn bucket_bound_theorem3() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + case);
        let graph = random_graph(&mut rng, 10);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let beta = rng.gen_range(105u32..250) as f64 / 100.0;
        let eps = 0.5;
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let exact = engine.exact(&query).unwrap();
        let bb = engine
            .bucket_bound(&query, &BucketBoundParams::with(eps, beta))
            .unwrap();
        match (&exact.route, &bb.route) {
            (None, None) => {}
            (Some(opt), Some(found)) => {
                assert!(
                    found.objective <= opt.objective * beta / (1.0 - eps) + 1e-9,
                    "case {case}: Theorem 3 violated at beta={beta}: {} > {}",
                    found.objective,
                    opt.objective * beta / (1.0 - eps)
                );
                assert!(found.budget <= delta + 1e-9, "case {case}");
                assert!(
                    found.route.covers(&graph, query.keywords.ids()),
                    "case {case}"
                );
            }
            (a, b) => panic!("case {case}: feasibility disagreement {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn top_k_is_sorted_distinct_feasible() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000 + case);
        let graph = random_graph(&mut rng, 8);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let k = rng.gen_range(1usize..5);
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let request = SearchRequest {
            k,
            ..SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.3)))
        };
        let topk = engine.search(&query, &request).unwrap();
        assert!(topk.routes.len() <= k, "case {case}");
        for w in topk.routes.windows(2) {
            assert!(w[0].objective <= w[1].objective + 1e-12, "case {case}");
            assert!(
                w[0].route.nodes() != w[1].route.nodes(),
                "case {case}: duplicate route"
            );
        }
        for r in &topk.routes {
            assert!(r.budget <= delta + 1e-9, "case {case}");
            assert!(r.route.covers(&graph, query.keywords.ids()), "case {case}");
            let (os, bs) = r.route.scores(&graph).unwrap();
            assert!((os - r.objective).abs() < 1e-9, "case {case}");
            assert!((bs - r.budget).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn greedy_output_is_always_a_valid_route() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5000 + case);
        let graph = random_graph(&mut rng, 10);
        let (s, t, kws, delta) = random_query_parts(&mut rng);
        let beam = rng.gen_range(1usize..3);
        let alpha = rng.gen_range(0u32..=100) as f64 / 100.0;
        let s = NodeId(s % graph.node_count() as u32);
        let t = NodeId(t % graph.node_count() as u32);
        let query = KorQuery::new(&graph, s, t, kws, delta).unwrap();
        let engine = KorEngine::new(&graph);
        let params = GreedyParams {
            alpha,
            beam_width: beam,
            mode: GreedyMode::KeywordsFirst,
        };
        if let Some(r) = engine.greedy(&query, &params).unwrap() {
            assert_eq!(r.route.source(), Some(s), "case {case}");
            assert_eq!(r.route.target(), Some(t), "case {case}");
            let (os, bs) = r.route.scores(&graph).unwrap();
            assert!((os - r.objective).abs() < 1e-9, "case {case}");
            assert!((bs - r.budget).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn inverted_indexes_agree() {
    // The index against a direct scan of every node's keyword set.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6000 + case);
        let graph = random_graph(&mut rng, 12);
        let index = InvertedIndex::build(&graph);
        for (kw, _) in graph.vocab().iter() {
            let scan: Vec<NodeId> = graph
                .nodes()
                .filter(|&n| graph.node_has_keyword(n, kw))
                .collect();
            assert_eq!(index.postings(kw), scan.as_slice(), "case {case}");
            assert_eq!(index.doc_frequency(kw), scan.len(), "case {case}");
        }
    }
}

#[test]
fn graph_io_round_trips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7000 + case);
        let graph = random_graph(&mut rng, 12);
        let text = kor::data::graph_to_string(&graph);
        let back = kor::data::graph_from_str(&text).unwrap();
        assert_eq!(back.node_count(), graph.node_count(), "case {case}");
        assert_eq!(back.edge_count(), graph.edge_count(), "case {case}");
        for v in graph.nodes() {
            let a: Vec<(u32, u64, u64)> = graph
                .out_edges(v)
                .map(|e| (e.node.0, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            let b: Vec<(u32, u64, u64)> = back
                .out_edges(v)
                .map(|e| (e.node.0, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            assert_eq!(a, b, "case {case}");
        }
    }
}

#[test]
fn landmark_bounds_are_admissible_on_random_graphs() {
    // The ALT triangle bound must never exceed the true remaining
    // shortest distance to the target — in either metric — or the
    // engines would prune feasible routes. Exercised on random directed
    // graphs full of unreachable pairs, where the ±inf arithmetic in
    // the bound is most likely to go wrong.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x8000 + case);
        let graph = random_graph(&mut rng, 14);
        let lm = Landmarks::build(&graph, DEFAULT_LANDMARKS);
        for target in graph.nodes() {
            let ctx = QueryContext::new(&graph, target);
            let bounds = lm.for_target(target);
            for v in graph.nodes() {
                let ob = lm.objective_bound(v, &bounds);
                let bb = lm.budget_bound(v, &bounds);
                assert!(!ob.is_nan() && !bb.is_nan(), "case {case}: NaN bound");
                assert!(
                    ob <= ctx.os_tau(v),
                    "case {case}: objective bound {ob} > true {} ({v} -> {target})",
                    ctx.os_tau(v)
                );
                assert!(
                    bb <= ctx.bs_sigma(v),
                    "case {case}: budget bound {bb} > true {} ({v} -> {target})",
                    ctx.bs_sigma(v)
                );
            }
        }
    }
}

#[test]
fn landmark_bounds_are_admissible_on_generated_worlds() {
    // Same invariant on the `kor gen` worlds the oracle suites use:
    // positioned grid/ring topologies route landmark selection through
    // the geometric partitioner, a different code path than the BFS
    // fallback random graphs take.
    let configs = [
        GenConfig::grid(8, 6, 21),
        GenConfig::ring(40, 6, 22),
        GenConfig::grid(5, 5, 23),
    ];
    for config in configs {
        let world = generate_world(&config);
        let graph = &world.graph;
        let lm = Landmarks::build(graph, DEFAULT_LANDMARKS);
        let mut rng = StdRng::seed_from_u64(0x9000 + config.seed);
        let n = graph.node_count() as u32;
        for _ in 0..200 {
            let v = NodeId(rng.gen_range(0..n));
            let target = NodeId(rng.gen_range(0..n));
            let ctx = QueryContext::new(graph, target);
            let bounds = lm.for_target(target);
            let ob = lm.objective_bound(v, &bounds);
            let bb = lm.budget_bound(v, &bounds);
            assert!(!ob.is_nan() && !bb.is_nan(), "seed {}: NaN", config.seed);
            assert!(
                ob <= ctx.os_tau(v),
                "seed {}: objective bound {ob} > true {} ({v} -> {target})",
                config.seed,
                ctx.os_tau(v)
            );
            assert!(
                bb <= ctx.bs_sigma(v),
                "seed {}: budget bound {bb} > true {} ({v} -> {target})",
                config.seed,
                ctx.bs_sigma(v)
            );
        }
    }
}
