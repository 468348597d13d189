//! Cross-validation of all algorithms on generated datasets: every
//! algorithm must agree on feasibility, respect its approximation bound
//! against the exact baseline, and return verifiable routes.

use kor::prelude::*;

fn road() -> Graph {
    generate_roadnet(&RoadNetConfig {
        nodes: 150,
        area_km: 12.0,
        vocab_size: 60,
        seed: 99,
        ..RoadNetConfig::small()
    })
}

fn queries(
    graph: &Graph,
    engine: &KorEngine<&Graph>,
    m: usize,
    n: usize,
    seed: u64,
) -> Vec<KorQuery> {
    let workload = generate_workload(
        graph,
        engine.index(),
        &WorkloadConfig {
            keyword_counts: vec![m],
            queries_per_set: n,
            frequency_weighted: true,
            max_euclidean_km: None,
            min_doc_fraction: 0.0,
            seed,
        },
    );
    workload[0]
        .queries
        .iter()
        .map(|s| KorQuery::new(graph, s.source, s.target, s.keywords.clone(), 25.0).unwrap())
        .collect()
}

#[test]
fn approximations_respect_bounds_on_road_network() {
    let graph = road();
    let engine = KorEngine::new(&graph);
    let eps = 0.5;
    let beta = 1.2;
    let mut feasible = 0;
    for query in queries(&graph, &engine, 3, 12, 1) {
        let exact = engine.exact(&query).unwrap();
        let os = engine
            .os_scaling(&query, &OsScalingParams::with_epsilon(eps))
            .unwrap();
        let bb = engine
            .bucket_bound(&query, &BucketBoundParams::with(eps, beta))
            .unwrap();
        match &exact.route {
            None => {
                assert!(os.route.is_none(), "OSScaling must agree on infeasibility");
                assert!(
                    bb.route.is_none(),
                    "BucketBound must agree on infeasibility"
                );
            }
            Some(opt) => {
                feasible += 1;
                let os_r = os.route.expect("OSScaling must find a feasible route");
                let bb_r = bb.route.expect("BucketBound must find a feasible route");
                assert!(
                    os_r.objective <= opt.objective / (1.0 - eps) + 1e-9,
                    "Theorem 2 violated: {} > {}",
                    os_r.objective,
                    opt.objective / (1.0 - eps)
                );
                assert!(
                    bb_r.objective <= opt.objective * beta / (1.0 - eps) + 1e-9,
                    "Theorem 3 violated: {} > {}",
                    bb_r.objective,
                    opt.objective * beta / (1.0 - eps)
                );
                for r in [&os_r, &bb_r] {
                    let (ros, rbs) = r.route.scores(&graph).unwrap();
                    assert!((ros - r.objective).abs() < 1e-9);
                    assert!((rbs - r.budget).abs() < 1e-9);
                    assert!(r.budget <= query.budget + 1e-9);
                    assert!(r.route.covers(&graph, query.keywords.ids()));
                    assert_eq!(r.route.source(), Some(query.source));
                    assert_eq!(r.route.target(), Some(query.target));
                }
            }
        }
    }
    assert!(feasible >= 3, "workload too infeasible to be meaningful");
}

#[test]
fn os_scaling_matches_exact_at_tiny_epsilon() {
    let graph = road();
    let engine = KorEngine::new(&graph);
    for query in queries(&graph, &engine, 2, 10, 2) {
        let exact = engine.exact(&query).unwrap();
        let tight = engine
            .os_scaling(&query, &OsScalingParams::with_epsilon(0.001))
            .unwrap();
        assert_eq!(
            exact.route.map(|r| (r.objective * 1e9).round()),
            tight.route.map(|r| (r.objective * 1e9).round()),
        );
    }
}

#[test]
fn optimization_strategies_never_change_feasibility() {
    let graph = road();
    let engine = KorEngine::new(&graph);
    for query in queries(&graph, &engine, 3, 10, 3) {
        let with = engine
            .os_scaling(&query, &OsScalingParams::default())
            .unwrap();
        let without = engine
            .os_scaling(&query, &OsScalingParams::without_optimizations(0.5))
            .unwrap();
        assert_eq!(with.route.is_some(), without.route.is_some());
        if let (Some(a), Some(b)) = (&with.route, &without.route) {
            // Both satisfy the same bound; objectives may differ slightly
            // because Opt1 jump labels can find different representatives,
            // but never beyond the approximation bound of each other.
            let exact = engine.exact(&query).unwrap().route.unwrap();
            for r in [a, b] {
                assert!(r.objective <= exact.objective / 0.5 + 1e-9);
            }
        }
    }
}

#[test]
fn greedy_routes_are_always_valid_routes() {
    let graph = road();
    let engine = KorEngine::new(&graph);
    for query in queries(&graph, &engine, 3, 15, 4) {
        for beam in [1, 2] {
            for mode in [GreedyMode::KeywordsFirst, GreedyMode::BudgetFirst] {
                let params = GreedyParams {
                    alpha: 0.5,
                    beam_width: beam,
                    mode,
                };
                if let Some(r) = engine.greedy(&query, &params).unwrap() {
                    let (os, bs) = r.route.scores(&graph).unwrap();
                    assert!((os - r.objective).abs() < 1e-9);
                    assert!((bs - r.budget).abs() < 1e-9);
                    assert_eq!(r.route.source(), Some(query.source));
                    assert_eq!(r.route.target(), Some(query.target));
                    assert_eq!(
                        r.covers_keywords,
                        r.route.covers(&graph, query.keywords.ids())
                    );
                    if mode == GreedyMode::BudgetFirst {
                        assert!(r.within_budget);
                    }
                }
            }
        }
    }
}

#[test]
fn greedy_feasible_routes_never_beat_exact() {
    let graph = road();
    let engine = KorEngine::new(&graph);
    for query in queries(&graph, &engine, 2, 10, 5) {
        let exact = engine.exact(&query).unwrap();
        if let Some(gr) = engine.greedy(&query, &GreedyParams::default()).unwrap() {
            if gr.is_feasible() {
                let opt = exact.route.expect("greedy feasible ⇒ feasible exists");
                assert!(gr.objective >= opt.objective - 1e-9);
            }
        }
    }
}

#[test]
fn top_k_prefix_consistency() {
    // The best route of a top-k result equals the single-route result.
    let graph = road();
    let engine = KorEngine::new(&graph);
    for query in queries(&graph, &engine, 2, 8, 6) {
        let single = engine
            .os_scaling(&query, &OsScalingParams::with_epsilon(0.2))
            .unwrap();
        let request = SearchRequest {
            k: 3,
            ..SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.2)))
        };
        let topk = engine.search(&query, &request).unwrap();
        match (&single.route, topk.routes.first()) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!((a.objective - b.objective).abs() < 1e-9),
            (a, b) => panic!("top-k disagreement: {a:?} vs {b:?}"),
        }
        // sorted and within budget
        for w in topk.routes.windows(2) {
            assert!(w[0].objective <= w[1].objective + 1e-12);
        }
        for r in &topk.routes {
            assert!(r.budget <= query.budget + 1e-9);
            assert!(r.route.covers(&graph, query.keywords.ids()));
        }
    }
}

#[test]
fn flickr_pipeline_supports_end_to_end_queries() {
    let (graph, _) = generate_flickr(&FlickrConfig::small());
    let engine = KorEngine::new(&graph);
    let workload = generate_workload(
        &graph,
        engine.index(),
        &WorkloadConfig {
            keyword_counts: vec![2, 4],
            queries_per_set: 5,
            frequency_weighted: true,
            max_euclidean_km: None,
            min_doc_fraction: 0.0,
            seed: 8,
        },
    );
    let mut any_feasible = false;
    for set in &workload {
        for spec in &set.queries {
            let query = KorQuery::new(
                &graph,
                spec.source,
                spec.target,
                spec.keywords.clone(),
                10.0,
            )
            .unwrap();
            let os = engine
                .os_scaling(&query, &OsScalingParams::default())
                .unwrap();
            let bb = engine
                .bucket_bound(&query, &BucketBoundParams::default())
                .unwrap();
            assert_eq!(os.route.is_some(), bb.route.is_some());
            if let Some(r) = os.route {
                any_feasible = true;
                assert!(r.route.covers(&graph, query.keywords.ids()));
                assert!(r.budget <= 10.0 + 1e-9);
            }
        }
    }
    assert!(
        any_feasible,
        "Flickr-like workload should have feasible queries"
    );
}

#[test]
fn inverted_index_agrees_with_direct_scan_on_generated_graph() {
    let graph = road();
    let index = InvertedIndex::build(&graph);
    let mut terms = 0;
    for (kw, _) in graph.vocab().iter() {
        let scan: Vec<NodeId> = graph
            .nodes()
            .filter(|&n| graph.node_has_keyword(n, kw))
            .collect();
        assert_eq!(index.postings(kw), scan.as_slice(), "keyword {kw:?}");
        terms += usize::from(!scan.is_empty());
    }
    assert!(terms > 0, "the generated graph carries keywords");
    assert_eq!(index.iter().count(), terms);
}

#[test]
fn graph_io_round_trip_preserves_query_answers() {
    let graph = road();
    let engine = KorEngine::new(&graph);
    let text = kor::data::graph_to_string(&graph);
    let reloaded = kor::data::graph_from_str(&text).unwrap();
    let engine2 = KorEngine::new(&reloaded);
    for query in queries(&graph, &engine, 2, 5, 7) {
        // Rebuild the query against the reloaded graph's vocabulary.
        let terms: Vec<&str> = query
            .keywords
            .ids()
            .iter()
            .map(|&k| graph.vocab().resolve(k).unwrap())
            .collect();
        let q2 = KorQuery::from_terms(&reloaded, query.source, query.target, terms, query.budget)
            .unwrap();
        let a = engine
            .os_scaling(&query, &OsScalingParams::default())
            .unwrap();
        let b = engine2
            .os_scaling(&q2, &OsScalingParams::default())
            .unwrap();
        assert_eq!(
            a.route.map(|r| (r.objective * 1e9).round()),
            b.route.map(|r| (r.objective * 1e9).round())
        );
    }
}
