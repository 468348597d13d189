//! Micro-benchmarks, one group per paper figure family.
//!
//! These complement the `experiments` binary (which reproduces the
//! figures' data series) with per-operation timings on fixed,
//! representative inputs. The build environment vendors no Criterion, so
//! the file is a `harness = false` benchmark with a small built-in
//! measurement loop: warm up once, then run batches until the slower of
//! ~0.5 s or 10 iterations, and report mean/min per iteration.
//!
//! ```bash
//! cargo bench -p kor-bench               # all groups
//! cargo bench -p kor-bench -- epsilon    # only groups whose name matches
//! ```

use std::time::{Duration, Instant};

use kor_apsp::{DenseApsp, QueryContext};
use kor_core::{
    Algo, BucketBoundParams, GreedyParams, KorEngine, KorQuery, OsScalingParams, PreprocessCache,
    SearchRequest,
};
use kor_data::{generate_roadnet, generate_workload, QuerySpec, RoadNetConfig, WorkloadConfig};
use kor_graph::fixtures::figure1;
use kor_graph::Graph;
use kor_index::InvertedIndex;

/// Minimal stand-in for a Criterion benchmark group: times closures and
/// prints one aligned row per benchmark.
struct Harness {
    filter: Option<String>,
}

impl Harness {
    fn from_args() -> Self {
        // Cargo passes `--bench`; any other free argument is a substring
        // filter on `group/name`.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Harness { filter }
    }

    fn bench<T>(&self, group: &str, name: &str, mut f: impl FnMut() -> T) {
        let id = format!("{group}/{name}");
        if let Some(fil) = &self.filter {
            if !id.contains(fil.as_str()) {
                return;
            }
        }
        // Warm-up run (also keeps the result alive so the call is not
        // optimized out).
        let _keep = f();
        let budget = Duration::from_millis(500);
        let started = Instant::now();
        let mut iters = 0u32;
        let mut best = Duration::MAX;
        while iters < 10 || (started.elapsed() < budget && iters < 1_000) {
            let t0 = Instant::now();
            let _keep = f();
            let dt = t0.elapsed();
            if dt < best {
                best = dt;
            }
            iters += 1;
        }
        let mean = started.elapsed() / iters;
        println!(
            "{id:<44} {iters:>5} iters   mean {:>12}   min {:>12}",
            format!("{:.3?}", mean),
            format!("{:.3?}", best),
        );
    }
}

fn bench_graph() -> Graph {
    generate_roadnet(&RoadNetConfig {
        nodes: 1_500,
        area_km: 40.0,
        vocab_size: 2_000,
        seed: 2012,
        ..RoadNetConfig::with_nodes(1_500)
    })
}

fn specs(graph: &Graph, keyword_counts: &[usize], per_set: usize) -> Vec<Vec<QuerySpec>> {
    let index = InvertedIndex::build(graph);
    generate_workload(
        graph,
        &index,
        &WorkloadConfig {
            keyword_counts: keyword_counts.to_vec(),
            queries_per_set: per_set,
            frequency_weighted: true,
            max_euclidean_km: Some(15.0),
            min_doc_fraction: 0.0,
            seed: 7,
        },
    )
    .into_iter()
    .map(|s| s.queries)
    .collect()
}

fn query(graph: &Graph, spec: &QuerySpec, delta: f64) -> KorQuery {
    KorQuery::new(
        graph,
        spec.source,
        spec.target,
        spec.keywords.clone(),
        delta,
    )
    .unwrap()
}

/// Runs `algo` with `k` on every query: one benchmark iteration.
fn search_all(engine: &KorEngine<&Graph>, queries: &[KorQuery], algo: &Algo, k: usize) {
    let request = SearchRequest {
        k,
        ..SearchRequest::new(algo.clone())
    };
    for q in queries {
        let _ = engine.search(q, &request).unwrap();
    }
}

/// Figure 4/18 analogue: per-algorithm runtime as keyword count grows.
fn algorithms_vs_keywords(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let sets = specs(&graph, &[2, 6, 10], 4);
    let delta = 25.0;
    let algos = [
        ("os_scaling", Algo::OsScaling(OsScalingParams::default())),
        (
            "bucket_bound",
            Algo::BucketBound(BucketBoundParams::default()),
        ),
        ("greedy1", Algo::Greedy(GreedyParams::with_beam(1))),
        ("greedy2", Algo::Greedy(GreedyParams::with_beam(2))),
    ];
    for (set, &m) in sets.iter().zip(&[2usize, 6, 10]) {
        let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, delta)).collect();
        for (name, algo) in &algos {
            h.bench("runtime_vs_keywords", &format!("{name}/{m}"), || {
                search_all(&engine, &queries, algo, 1)
            });
        }
    }
}

/// Figure 6 analogue: OSScaling runtime across ε.
fn epsilon_sweep(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[6], 4)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    for eps in [0.1, 0.5, 0.9] {
        let algo = Algo::OsScaling(OsScalingParams::with_epsilon(eps));
        h.bench("epsilon_sweep", &format!("{eps}"), || {
            search_all(&engine, &queries, &algo, 1)
        });
    }
}

/// Figure 8 analogue: BucketBound runtime across β.
fn beta_sweep(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[6], 4)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    for beta in [1.2, 1.6, 2.0] {
        let algo = Algo::BucketBound(BucketBoundParams::with(0.5, beta));
        h.bench("beta_sweep", &format!("{beta}"), || {
            search_all(&engine, &queries, &algo, 1)
        });
    }
}

/// Figure 16 analogue: KkR runtime across k.
fn topk_sweep(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[4], 3)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    let algos = [
        ("os_scaling", Algo::OsScaling(OsScalingParams::default())),
        (
            "bucket_bound",
            Algo::BucketBound(BucketBoundParams::default()),
        ),
    ];
    for k in [1usize, 3, 5] {
        for (name, algo) in &algos {
            h.bench("topk", &format!("{name}/{k}"), || {
                search_all(&engine, &queries, algo, k)
            });
        }
    }
}

/// Figure 17 analogue: scalability over graph size.
fn scalability(h: &Harness) {
    let algo = Algo::BucketBound(BucketBoundParams::default());
    for nodes in [500usize, 1_000, 2_000] {
        let graph = generate_roadnet(&RoadNetConfig::with_nodes(nodes));
        let engine = KorEngine::new(&graph);
        let set = &specs(&graph, &[6], 3)[0];
        let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 30.0)).collect();
        h.bench("scalability", &format!("bucket_bound/{nodes}"), || {
            search_all(&engine, &queries, &algo, 1)
        });
    }
}

/// §4.2.1 claim: the optimization strategies' speed-up.
fn optimization_ablation(h: &Harness) {
    let graph = bench_graph();
    let engine = KorEngine::new(&graph);
    let set = &specs(&graph, &[6], 3)[0];
    let queries: Vec<KorQuery> = set.iter().map(|s| query(&graph, s, 25.0)).collect();
    for (name, params) in [
        ("with", OsScalingParams::default()),
        ("without", OsScalingParams::without_optimizations(0.5)),
    ] {
        let algo = Algo::OsScaling(params);
        h.bench("opt_ablation", &format!("os_scaling/{name}"), || {
            search_all(&engine, &queries, &algo, 1)
        });
    }
}

/// Substrate benchmarks: pre-processing and index construction (§3.1).
fn substrates(h: &Harness) {
    let graph = bench_graph();
    let target = kor_graph::NodeId(0);
    h.bench("substrates", "query_context_build", || {
        QueryContext::new(&graph, target)
    });
    h.bench("substrates", "inverted_index_build", || {
        InvertedIndex::build(&graph)
    });
    // Floyd–Warshall is cubic: measure it on the Figure-1 fixture where a
    // single iteration is cheap.
    let small = figure1();
    h.bench("substrates", "floyd_warshall_fixture", || {
        DenseApsp::floyd_warshall(&small)
    });
    let cache = PreprocessCache::new();
    let nodes: Vec<_> = graph.nodes().take(16).collect();
    h.bench("substrates", "pairwise_tau_cached", || {
        let mut acc = 0.0;
        for &s in &nodes {
            let (tree, _) = cache.forward_tree(&graph, s);
            if tree.is_reachable(target) {
                acc += tree.objective(target);
            }
        }
        acc
    });
}

fn main() {
    let h = Harness::from_args();
    algorithms_vs_keywords(&h);
    epsilon_sweep(&h);
    beta_sweep(&h);
    topk_sweep(&h);
    scalability(&h);
    optimization_ablation(&h);
    substrates(&h);
}
