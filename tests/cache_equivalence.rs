//! Pre-processing cache contract tests.
//!
//! The cache must be **invisible** in results: every algorithm answers
//! byte-identically (route node ids and the IEEE-754 bit patterns of
//! both scores) whether the `τ`/`σ` pre-processing was rebuilt cold or
//! pulled from a shared warm cache, whether the cache was shared across
//! threads, and whether entries were LRU-evicted in between. Also pins
//! the stride-based deadline check: deadlines still fire promptly.

use std::time::{Duration, Instant};

// Shares the batteries' searches; their worlds and re-walk go unused here.
#[allow(dead_code)]
mod common;

use common::{canned_queries, keys, label, requests, worlds};
use kor::prelude::*;

/// A deterministic repeated-target workload over a small road network.
fn setup() -> (Graph, InvertedIndex, Vec<KorQuery>) {
    let mut cfg = RoadNetConfig::small();
    cfg.seed = 17;
    let graph = generate_roadnet(&cfg);
    let index = InvertedIndex::build(&graph);
    let sets = generate_workload(
        &graph,
        &index,
        &WorkloadConfig {
            keyword_counts: vec![1, 2, 3],
            queries_per_set: 4,
            frequency_weighted: true,
            max_euclidean_km: None,
            min_doc_fraction: 0.0,
            seed: 99,
        },
    );
    let mut queries = Vec::new();
    for set in &sets {
        for spec in &set.queries {
            // Repeat each (source, target) with varied budgets so the
            // warm pass hits the cached context.
            for delta in [30.0, 45.0, 60.0] {
                queries.push(
                    KorQuery::new(
                        &graph,
                        spec.source,
                        spec.target,
                        spec.keywords.clone(),
                        delta,
                    )
                    .unwrap(),
                );
            }
        }
    }
    (graph, index, queries)
}

/// The label searches of [`requests`]: the ones with pre-processing
/// counters to check.
fn label_searches() -> Vec<SearchRequest> {
    requests()
        .into_iter()
        .filter(|r| !matches!(r.algo, Algo::Greedy(_)))
        .collect()
}

#[test]
fn cached_results_byte_identical_across_all_algorithms() {
    let (graph, index, queries) = setup();
    for request in &label_searches() {
        let what = label(request);
        let engine = KorEngine::new(&graph);
        let mut warm_hits = 0;
        for q in &queries {
            let cold = search_uncached(&graph, &index, q, request).unwrap();
            let warm = engine.search(q, request).unwrap();
            assert_eq!(
                keys(&cold),
                keys(&warm),
                "{what}: warm result diverged from cold"
            );
            assert_eq!(
                cold.stats.cache_hits, 0,
                "{what}: the cold path hit a cache"
            );
            warm_hits += warm.stats.cache_hits;
        }
        assert!(warm_hits > 0, "{what}: no warm search reported a hit");
        let stats = engine.preprocess_stats();
        assert!(
            stats.ctx_hits > 0,
            "{what}: repeated targets never hit the cache"
        );
        assert!(stats.ctx_misses > 0 && stats.trees_built >= 2);
    }
}

#[test]
fn engine_and_free_functions_agree() {
    // `KorEngine::search` runs on the warm path; `search_uncached` runs
    // cold. Both must agree for every algorithm, including after the
    // engine's cache is fully warm (second sweep).
    let (graph, index, queries) = setup();
    let engine = KorEngine::new(&graph);
    for sweep in 0..2 {
        for q in &queries {
            // Greedy too: it reports no pre-processing counters, but its
            // answers must not depend on the warm state either.
            for request in &requests() {
                let warm = engine.search(q, request).unwrap();
                let cold = search_uncached(&graph, &index, q, request).unwrap();
                assert_eq!(
                    keys(&warm),
                    keys(&cold),
                    "sweep {sweep} [{}]",
                    label(request)
                );
                assert_eq!(warm.greedy_flags, cold.greedy_flags);
            }
        }
    }
    let stats = engine.preprocess_stats();
    assert!(stats.ctx_hits > 0, "second sweep must hit the warm cache");
}

#[test]
fn search_stats_report_cache_hits() {
    let (graph, _, queries) = setup();
    let engine = KorEngine::new(&graph);
    let q = &queries[0];
    let first = engine
        .os_scaling(q, &OsScalingParams::default())
        .unwrap()
        .stats;
    assert_eq!(first.cache_hits, 0);
    assert!(first.cache_misses >= 1);
    assert!(first.trees_built >= 2);
    let second = engine
        .os_scaling(q, &OsScalingParams::default())
        .unwrap()
        .stats;
    assert!(second.cache_hits >= 1, "repeat query must hit");
    assert_eq!(second.trees_built, 0, "warm search builds no trees");
}

#[test]
fn concurrent_queries_share_one_cache() {
    // Workers hammer the same engine (and therefore the same
    // PreprocessCache) from std::thread::scope; every thread must see
    // exactly the sequential answers, and the shared cache must have
    // served hits.
    let (graph, index, queries) = setup();
    let engine = KorEngine::new(&graph);
    let bucket_bound = SearchRequest::new(Algo::BucketBound(BucketBoundParams::default()));
    let expected: Vec<_> = queries
        .iter()
        .map(|q| keys(&search_uncached(&graph, &index, q, &bucket_bound).unwrap()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let queries = &queries;
            let expected = &expected;
            let bucket_bound = &bucket_bound;
            scope.spawn(move || {
                for (q, want) in queries.iter().zip(expected) {
                    let got = engine.search(q, bucket_bound).unwrap();
                    assert_eq!(&keys(&got), want);
                }
            });
        }
    });
    let stats = engine.preprocess_stats();
    assert!(
        stats.ctx_hits > 0,
        "4 threads × repeated targets must produce hits"
    );
    // Distinct targets in the workload bound the entry count no matter
    // how many threads raced.
    assert!(engine.preprocess_cache().context_entries() <= 12);
}

#[test]
fn eviction_under_tiny_capacity_keeps_answers_exact() {
    let (graph, index, queries) = setup();
    // Capacity 2 with ≥ 3 distinct targets forces LRU evictions.
    let engine = KorEngine::with_cache_capacity(&graph, 2);
    for sweep in 0..2 {
        for q in &queries {
            let request = SearchRequest::new(Algo::OsScaling(OsScalingParams::default()));
            let warm = engine.search(q, &request).unwrap();
            let cold = search_uncached(&graph, &index, q, &request).unwrap();
            assert_eq!(
                keys(&warm),
                keys(&cold),
                "sweep {sweep}: eviction must not change answers"
            );
        }
    }
    assert!(engine.preprocess_cache().context_entries() <= 2);
    let stats = engine.preprocess_stats();
    assert!(
        stats.evictions > 0,
        "capacity 2 over many targets must evict"
    );
    // Budget-varied repeats of one target still hit before eviction.
    assert!(stats.ctx_hits > 0);
}

#[test]
fn deadline_fires_promptly_despite_strided_checks() {
    // The deadline is now checked every 1024 pops instead of every pop.
    // This search runs for tens of seconds unbounded (ε = 0.005, no
    // optimization strategies, 8 keywords); with a 50 ms deadline it
    // must abort quickly — pops are microsecond-scale, so 1024 of them
    // keep the firing latency far under the assertion's slack.
    let mut cfg = RoadNetConfig::with_nodes(3000);
    cfg.seed = 3;
    let graph = generate_roadnet(&cfg);
    let index = InvertedIndex::build(&graph);
    let kws: Vec<KeywordId> = index
        .iter()
        .filter(|(_, p)| p.len() >= 3 && p.len() <= 30)
        .map(|(k, _)| k)
        .take(8)
        .collect();
    let q = KorQuery::new(&graph, NodeId(0), NodeId(700), kws, 1e6).unwrap();
    let request = SearchRequest {
        deadline: Some(Instant::now() + Duration::from_millis(50)),
        ..SearchRequest::new(Algo::OsScaling(OsScalingParams {
            epsilon: 0.005,
            use_opt1: false,
            use_opt2: false,
            ..OsScalingParams::default()
        }))
    };
    let t0 = Instant::now();
    let r = search_uncached(&graph, &index, &q, &request);
    let elapsed = t0.elapsed();
    assert!(
        matches!(r, Err(KorError::DeadlineExceeded)),
        "50 ms deadline must abort a ~30 s search"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline fired too late: {elapsed:?}"
    );
}

#[test]
fn expired_deadline_aborts_before_any_pop() {
    // The stride check must run on the very first pop: an
    // already-expired deadline aborts with zero work in both engines.
    let (graph, index, queries) = setup();
    let q = &queries[0];
    let past = Some(Instant::now() - Duration::from_secs(1));
    for algo in [
        Algo::OsScaling(OsScalingParams::default()),
        Algo::BucketBound(BucketBoundParams::default()),
    ] {
        let request = SearchRequest {
            deadline: past,
            ..SearchRequest::new(algo)
        };
        assert!(matches!(
            search_uncached(&graph, &index, q, &request),
            Err(KorError::DeadlineExceeded)
        ));
    }
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        for b in w.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every counter of `s`, in declaration order.
fn stat_words(s: &SearchStats) -> [u64; 14] {
    [
        s.labels_created,
        s.labels_dominated,
        s.labels_pruned,
        s.labels_evicted,
        s.labels_expanded,
        s.labels_skipped,
        s.queue_pushes,
        s.upper_bound_updates,
        s.opt2_discards,
        s.opt1_jumps,
        s.buckets_created,
        s.cache_hits,
        s.cache_misses,
        s.trees_built,
    ]
}

#[test]
fn label_searches_pin_answers_and_label_counts() {
    // One digest over the answers and every search counter of each label
    // search on the oracle worlds, cold and then warm. A change to the
    // engine's internals that keeps answers but moves a label count —
    // one more label created, pruned or skipped — changes the digest.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for config in worlds() {
        let world = generate_world(&config);
        let graph = &world.graph;
        let index = InvertedIndex::build(graph);
        let engine = KorEngine::new(graph);
        for query in canned_queries(graph, &world.query_sets) {
            for request in &label_searches() {
                let cold = search_uncached(graph, &index, &query, request).unwrap();
                let warm = engine.search(&query, request).unwrap();
                for outcome in [&cold, &warm] {
                    fnv1a(&mut h, [outcome.routes.len() as u64]);
                    for (nodes, objective, budget) in keys(outcome) {
                        fnv1a(&mut h, [nodes.len() as u64, objective, budget]);
                        fnv1a(&mut h, nodes.into_iter().map(u64::from));
                    }
                    fnv1a(&mut h, stat_words(&outcome.stats));
                }
            }
        }
    }
    assert_eq!(h, 0xf25e_cfec_60d5_8ca0, "label-search digest {h:#018x}");
}

#[test]
fn greedy_pins_answers() {
    // One digest over every greedy answer on the oracle worlds — route
    // bits and both constraint flags — cold and then warm, for both beam
    // widths the paper evaluates and both hard-constraint priorities.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for config in worlds() {
        let world = generate_world(&config);
        let graph = &world.graph;
        let index = InvertedIndex::build(graph);
        let engine = KorEngine::new(graph);
        for query in canned_queries(graph, &world.query_sets) {
            for beam_width in [1, 2] {
                for mode in [GreedyMode::KeywordsFirst, GreedyMode::BudgetFirst] {
                    let request = SearchRequest::new(Algo::Greedy(GreedyParams {
                        beam_width,
                        mode,
                        ..GreedyParams::default()
                    }));
                    let cold = search_uncached(graph, &index, &query, &request).unwrap();
                    let warm = engine.search(&query, &request).unwrap();
                    for outcome in [&cold, &warm] {
                        fnv1a(&mut h, [outcome.routes.len() as u64]);
                        for (nodes, objective, budget) in keys(outcome) {
                            fnv1a(&mut h, [nodes.len() as u64, objective, budget]);
                            fnv1a(&mut h, nodes.into_iter().map(u64::from));
                        }
                        let (covers, within) = outcome.greedy_flags.unwrap_or((false, false));
                        fnv1a(&mut h, [u64::from(covers), u64::from(within)]);
                    }
                }
            }
        }
    }
    assert_eq!(h, 0x0ed8_be82_8412_b071, "greedy digest {h:#018x}");
}
