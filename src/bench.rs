//! `kor bench` — the tracked warm-vs-cold performance baseline.
//!
//! Runs a **repeated-target** workload (the serve-traffic shape: many
//! queries share popular targets while keywords and budgets vary) through
//! every label-search algorithm twice:
//!
//! * **cold** — [`kor_core::search_uncached`], rebuilding the `τ`/`σ`
//!   pre-processing per query (what every caller paid before the
//!   [`kor_core::PreprocessCache`] existed);
//! * **warm** — the same queries through [`KorEngine::search`] on one
//!   fresh engine, so repeat targets skip their backward Dijkstras.
//!
//! Both passes must agree **byte for byte** (route node ids and the IEEE
//! bit patterns of the scores); the emitted `BENCH_kor.json` records
//! per-algorithm median/mean latencies, the speedup, label counters, and
//! the cache hit/miss/build counters proving the warm path was
//! exercised. CI runs the `--smoke` profile and archives the JSON so the
//! perf trajectory of the repo is tracked per commit.

use std::path::PathBuf;
use std::time::Instant;

use kor_core::{
    search_uncached, Algo, BucketBoundParams, KorEngine, KorError, KorQuery, OsScalingParams,
    RouteResult, SearchOutcome, SearchRequest, SearchStats,
};
use kor_data::{generate_roadnet, generate_workload, RoadNetConfig, WorkloadConfig};
use kor_graph::Graph;
use kor_index::InvertedIndex;

use crate::json::JsonValue;
use crate::percentile::LatencySummary;

/// The name a request is reported under: the algorithm's name, or
/// `top-k-<name>-k<k>` for a top-k request.
fn bench_name(request: &SearchRequest) -> String {
    match request.k {
        1 => request.algo.name().into(),
        k => format!("top-k-{}-k{k}", request.algo.name()),
    }
}

/// The default tracked set: both scaled searches with `k = 1` and
/// `k = 3`, plus exact, all at the paper's defaults.
fn default_algos() -> Vec<SearchRequest> {
    let os = Algo::OsScaling(OsScalingParams::default());
    let bb = Algo::BucketBound(BucketBoundParams::default());
    vec![
        SearchRequest::new(os.clone()),
        SearchRequest::new(bb.clone()),
        SearchRequest::new(Algo::Exact),
        SearchRequest {
            k: 3,
            ..SearchRequest::new(os)
        },
        SearchRequest {
            k: 3,
            ..SearchRequest::new(bb)
        },
    ]
}

/// Parses one `kor bench --algos` entry: a label-search name, or
/// `top-k-<name>` for its `k = 3` variant.
pub fn parse_algo(name: &str) -> Result<SearchRequest, String> {
    let (k, base) = match name.strip_prefix("top-k-") {
        Some(base) => (3, base),
        None => (1, name),
    };
    default_algos()
        .into_iter()
        .find(|r| r.k == k && r.algo.name() == base)
        .ok_or_else(|| format!("unknown bench algo {name:?}"))
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Road-network size when no graph file is supplied.
    pub nodes: usize,
    /// Distinct targets in the workload.
    pub targets: usize,
    /// Queries per target (keywords and budget vary per repeat).
    pub per_target: usize,
    /// Base budget `Δ`; repeats scale it by `1.0 + 0.25·(j mod 4)`.
    pub budget: f64,
    /// Workload/graph seed.
    pub seed: u64,
    /// Searches to measure.
    pub algos: Vec<SearchRequest>,
    /// Where to write the JSON report.
    pub out: PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            nodes: 4000,
            targets: 8,
            per_target: 12,
            budget: 25.0,
            seed: 2012,
            algos: default_algos(),
            out: PathBuf::from("BENCH_kor.json"),
        }
    }
}

impl BenchConfig {
    /// The fast profile CI runs: small graph, few queries, all algos.
    pub fn smoke() -> Self {
        Self {
            nodes: 500,
            targets: 4,
            per_target: 6,
            ..Self::default()
        }
    }
}

/// One query of the repeated-target workload.
struct BenchQuery {
    query: KorQuery,
}

/// A comparable fingerprint of one query's result: route node ids plus
/// the exact bit patterns of both scores.
type Fingerprint = Vec<(Vec<u32>, u64, u64)>;

/// Builds the repeated-target workload: `targets` (source, target,
/// keyword-pool) specs, each instantiated `per_target` times with rotated
/// keyword subsets and scaled budgets.
fn build_workload(graph: &Graph, index: &InvertedIndex, cfg: &BenchConfig) -> Vec<BenchQuery> {
    let sets = generate_workload(
        graph,
        index,
        &WorkloadConfig {
            keyword_counts: vec![3],
            queries_per_set: cfg.targets,
            frequency_weighted: true,
            max_euclidean_km: None,
            min_doc_fraction: 0.0,
            seed: cfg.seed,
        },
    );
    let mut queries = Vec::new();
    for set in &sets {
        for spec in &set.queries {
            let m = spec.keywords.len().max(1);
            for j in 0..cfg.per_target {
                // Rotated subset of the spec's keyword pool: size cycles
                // 1..=m, starting offset walks around the pool.
                let take = 1 + (j % m);
                let kws: Vec<_> = (0..take).map(|i| spec.keywords[(j + i) % m]).collect();
                let delta = cfg.budget * (1.0 + 0.25 * (j % 4) as f64);
                if let Ok(query) = KorQuery::new(graph, spec.source, spec.target, kws, delta) {
                    queries.push(BenchQuery { query });
                }
            }
        }
    }
    queries
}

/// Outcome of one (algorithm, pass) run.
struct PassResult {
    /// Microseconds; all zero for an empty pass.
    latency: LatencySummary,
    stats: SearchStats,
    fingerprints: Vec<Fingerprint>,
}

/// Runs every query through `search`, timing each call.
fn run_pass(
    queries: &[BenchQuery],
    search: impl Fn(&KorQuery) -> Result<SearchOutcome, KorError>,
) -> PassResult {
    let mut lat = Vec::with_capacity(queries.len());
    let mut stats = SearchStats::default();
    let mut fingerprints = Vec::with_capacity(queries.len());
    for q in queries {
        let t0 = Instant::now();
        let r = search(&q.query).expect("valid params, no deadline");
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
        fingerprints.push(r.routes.iter().map(RouteResult::bits).collect());
        let s = r.stats;
        // Sum the per-search counters across the pass.
        stats.labels_created += s.labels_created;
        stats.labels_pruned += s.labels_pruned;
        stats.labels_dominated += s.labels_dominated;
        stats.labels_expanded += s.labels_expanded;
        stats.cache_hits += s.cache_hits;
        stats.cache_misses += s.cache_misses;
        stats.trees_built += s.trees_built;
    }
    PassResult {
        latency: LatencySummary::of(lat).unwrap_or_default(),
        stats,
        fingerprints,
    }
}

/// Everything one algorithm produced, cold and warm.
struct AlgoReport {
    algo: String,
    queries: usize,
    cold: LatencySummary,
    warm: LatencySummary,
    speedup_median: f64,
    identical: bool,
    labels_created: u64,
    labels_pruned: u64,
    cold_trees_built: u64,
    warm_trees_built: u64,
    warm_cache_hits: u64,
    warm_cache_misses: u64,
    warm_hit_rate: f64,
}

fn latency_json(l: &LatencySummary) -> JsonValue {
    JsonValue::obj([
        ("median_us", l.p50.into()),
        ("mean_us", l.mean.into()),
        ("p95_us", l.p95.into()),
    ])
}

/// Runs the benchmark and returns the JSON report (also written to
/// `cfg.out` by [`run_bench_to_file`]).
pub fn run_bench(graph: &Graph, cfg: &BenchConfig) -> JsonValue {
    let index = InvertedIndex::build(graph);
    let queries = build_workload(graph, &index, cfg);
    assert!(!queries.is_empty(), "benchmark workload is empty");
    let mut reports = Vec::new();
    for request in &cfg.algos {
        let name = bench_name(request);
        // Cold: no cache, per-query rebuild — measured after one untimed
        // warm-up query so allocator/page effects do not skew the first
        // sample.
        let cold = |q: &KorQuery| search_uncached(graph, &index, q, request);
        let _ = run_pass(&queries[..1], cold);
        let cold = run_pass(&queries, cold);
        // Warm: one fresh engine across the pass; the first query per
        // target misses, every repeat hits.
        let engine = KorEngine::new(graph);
        let warm = run_pass(&queries, |q| engine.search(q, request));
        let identical = cold.fingerprints == warm.fingerprints;
        let cache_stats = engine.preprocess_stats();
        eprintln!(
            "[bench] {:<24} cold p50 {:>9.1}us | warm p50 {:>9.1}us | ×{:.2} | hits {} misses {} | identical: {identical}",
            name,
            cold.latency.p50,
            warm.latency.p50,
            cold.latency.p50 / warm.latency.p50.max(f64::MIN_POSITIVE),
            warm.stats.cache_hits,
            warm.stats.cache_misses,
        );
        reports.push(AlgoReport {
            algo: name,
            queries: queries.len(),
            cold: cold.latency,
            warm: warm.latency,
            speedup_median: cold.latency.p50 / warm.latency.p50.max(f64::MIN_POSITIVE),
            identical,
            labels_created: warm.stats.labels_created,
            labels_pruned: warm.stats.labels_pruned,
            cold_trees_built: cold.stats.trees_built,
            warm_trees_built: warm.stats.trees_built,
            warm_cache_hits: warm.stats.cache_hits,
            warm_cache_misses: warm.stats.cache_misses,
            warm_hit_rate: cache_stats.hit_rate(),
        });
    }

    let min_speedup = reports
        .iter()
        .map(|r| r.speedup_median)
        .fold(f64::INFINITY, f64::min);
    let all_identical = reports.iter().all(|r| r.identical);
    let algos_json: Vec<JsonValue> = reports
        .iter()
        .map(|r| {
            JsonValue::obj([
                ("algo", r.algo.as_str().into()),
                ("queries", r.queries.into()),
                ("cold", latency_json(&r.cold)),
                ("warm", latency_json(&r.warm)),
                ("speedup_median", r.speedup_median.into()),
                ("identical", r.identical.into()),
                ("labels_created", r.labels_created.into()),
                ("labels_pruned", r.labels_pruned.into()),
                (
                    "cache",
                    JsonValue::obj([
                        ("hits", r.warm_cache_hits.into()),
                        ("misses", r.warm_cache_misses.into()),
                        ("hit_rate", r.warm_hit_rate.into()),
                        ("trees_built_cold", r.cold_trees_built.into()),
                        ("trees_built_warm", r.warm_trees_built.into()),
                    ]),
                ),
            ])
        })
        .collect();
    JsonValue::obj([
        (
            "config",
            JsonValue::obj([
                ("nodes", graph.node_count().into()),
                ("edges", graph.edge_count().into()),
                ("targets", cfg.targets.into()),
                ("per_target", cfg.per_target.into()),
                ("budget", cfg.budget.into()),
                ("seed", cfg.seed.into()),
            ]),
        ),
        ("algos", JsonValue::Arr(algos_json)),
        (
            "overall",
            JsonValue::obj([
                ("min_speedup_median", min_speedup.into()),
                ("all_identical", all_identical.into()),
            ]),
        ),
    ])
}

/// Compares a fresh report against a committed baseline report,
/// returning every violation (empty ⇒ the gate passes).
///
/// Two regression classes are checked:
///
/// * **warm/cold divergence** — the fresh run's `all_identical` must be
///   true; a byte-level mismatch is a correctness bug, never tolerated;
/// * **median regression** — when the two reports ran the same workload
///   (`config` fields match), each algorithm's warm median must stay
///   within `old × (1 + tolerance)`. When the workloads differ (CI's
///   `--smoke` profile gated against the committed full-profile
///   baseline), absolute latencies are not comparable, so the gate
///   falls back to the scale-free invariant: the warm pass must not be
///   slower than the cold pass beyond tolerance
///   (`speedup_median ≥ 1 / (1 + tolerance)`).
pub fn compare_with_baseline(
    report: &JsonValue,
    baseline: &JsonValue,
    tolerance: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report
        .get("overall")
        .and_then(|o| o.get("all_identical"))
        .and_then(JsonValue::as_bool)
        != Some(true)
    {
        failures.push("warm/cold divergence: all_identical is false".into());
    }
    let config_field = |doc: &JsonValue, key: &str| {
        doc.get("config")
            .and_then(|c| c.get(key))
            .map(JsonValue::render)
    };
    let same_workload = ["nodes", "edges", "targets", "per_target", "budget", "seed"]
        .iter()
        .all(|k| config_field(report, k) == config_field(baseline, k));
    fn algos_of(doc: &JsonValue) -> Vec<&JsonValue> {
        doc.get("algos")
            .and_then(JsonValue::as_arr)
            .map(|a| a.iter().collect())
            .unwrap_or_default()
    }
    let name_of = |a: &JsonValue| a.get("algo").and_then(JsonValue::as_str).map(str::to_owned);
    let baseline_algos = algos_of(baseline);
    for algo in algos_of(report) {
        let Some(name) = name_of(algo) else { continue };
        // Algorithms without a committed history pass by default.
        let Some(base) = baseline_algos
            .iter()
            .find(|b| name_of(b).as_deref() == Some(&name))
        else {
            continue;
        };
        if same_workload {
            let new_warm = algo
                .get("warm")
                .and_then(|w| w.get("median_us"))
                .and_then(JsonValue::as_f64);
            let old_warm = base
                .get("warm")
                .and_then(|w| w.get("median_us"))
                .and_then(JsonValue::as_f64);
            if let (Some(new), Some(old)) = (new_warm, old_warm) {
                if new > old * (1.0 + tolerance) {
                    failures.push(format!(
                        "{name}: warm median {new:.1}us regressed past \
                         {old:.1}us × (1 + {tolerance})"
                    ));
                }
            }
        } else if let Some(speedup) = algo.get("speedup_median").and_then(JsonValue::as_f64) {
            let floor = 1.0 / (1.0 + tolerance);
            if speedup < floor {
                failures.push(format!(
                    "{name}: warm pass slower than cold (speedup ×{speedup:.2} \
                     < ×{floor:.2}) — cache stopped paying for itself"
                ));
            }
        }
    }
    failures
}

/// Runs the benchmark on `graph` (or a generated road network when
/// `None`) and writes the JSON report to `cfg.out`.
pub fn run_bench_to_file(graph: Option<Graph>, cfg: &BenchConfig) -> Result<JsonValue, String> {
    let graph = match graph {
        Some(g) => g,
        None => {
            let mut road = RoadNetConfig::with_nodes(cfg.nodes);
            road.seed = cfg.seed;
            let g = generate_roadnet(&road);
            eprintln!(
                "[bench] road network: {} nodes, {} edges",
                g.node_count(),
                g.edge_count()
            );
            g
        }
    };
    let report = run_bench(&graph, cfg);
    std::fs::write(&cfg.out, report.render())
        .map_err(|e| format!("writing {}: {e}", cfg.out.display()))?;
    eprintln!("[bench] wrote {}", cfg.out.display());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, BenchConfig) {
        let g = generate_roadnet(&RoadNetConfig::small());
        let cfg = BenchConfig {
            nodes: 0, // unused: graph is supplied
            targets: 3,
            per_target: 4,
            budget: 40.0,
            seed: 7,
            algos: default_algos()[..2].to_vec(),
            out: PathBuf::from("unused.json"),
        };
        (g, cfg)
    }

    #[test]
    fn report_shape_and_identity() {
        let (g, cfg) = tiny();
        let report = run_bench(&g, &cfg);
        let parsed = JsonValue::parse(&report.render()).expect("report parses");
        let algos = parsed.get("algos").unwrap().as_arr().unwrap();
        assert_eq!(algos.len(), 2);
        for a in algos {
            assert_eq!(a.get("identical").and_then(JsonValue::as_bool), Some(true));
            assert!(a.get("cold").unwrap().get("median_us").is_some());
            let cache = a.get("cache").unwrap();
            // Warm pass must actually hit: 3 targets × 4 repeats ⇒ ≥ 9
            // context hits.
            assert!(cache.get("hits").and_then(JsonValue::as_u64) >= Some(9));
            assert!(
                cache
                    .get("trees_built_warm")
                    .and_then(JsonValue::as_u64)
                    .unwrap()
                    < cache
                        .get("trees_built_cold")
                        .and_then(JsonValue::as_u64)
                        .unwrap()
            );
        }
        assert_eq!(
            parsed
                .get("overall")
                .unwrap()
                .get("all_identical")
                .and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn workload_repeats_targets() {
        let (g, cfg) = tiny();
        let index = InvertedIndex::build(&g);
        let queries = build_workload(&g, &index, &cfg);
        assert_eq!(queries.len(), 3 * 4);
        // Each target appears per_target times per spec (two specs may
        // share a target, so counts are multiples of per_target).
        use std::collections::HashMap;
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for q in &queries {
            *counts.entry(q.query.target.0).or_default() += 1;
        }
        for (_, c) in counts {
            assert_eq!(c % 4, 0);
            assert!(c >= 4);
        }
    }

    /// Minimal report document for gate tests.
    fn doc(nodes: u64, warm_median: f64, speedup: f64, identical: bool) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{"config":{{"nodes":{nodes},"edges":9,"targets":2,"per_target":2,
                 "budget":25,"seed":1}},
                "algos":[{{"algo":"exact","warm":{{"median_us":{warm_median}}},
                           "speedup_median":{speedup},"identical":{identical}}}],
                "overall":{{"all_identical":{identical}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn baseline_gate_passes_within_tolerance() {
        let base = doc(100, 1000.0, 2.0, true);
        let fresh = doc(100, 1400.0, 1.5, true);
        assert!(compare_with_baseline(&fresh, &base, 0.5).is_empty());
    }

    #[test]
    fn baseline_gate_flags_median_regression_on_same_workload() {
        let base = doc(100, 1000.0, 2.0, true);
        let fresh = doc(100, 1600.0, 2.0, true);
        let failures = compare_with_baseline(&fresh, &base, 0.5);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("warm median"), "{failures:?}");
    }

    #[test]
    fn baseline_gate_ignores_absolute_medians_across_workloads() {
        // Smoke profile vs full baseline: medians differ wildly but the
        // warm pass still beats cold, so the gate passes...
        let base = doc(4000, 1000.0, 2.0, true);
        let smoke_ok = doc(100, 50_000.0, 3.0, true);
        assert!(compare_with_baseline(&smoke_ok, &base, 0.5).is_empty());
        // ...unless warm is slower than cold beyond tolerance.
        let smoke_bad = doc(100, 50_000.0, 0.5, true);
        let failures = compare_with_baseline(&smoke_bad, &base, 0.5);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("slower than cold"), "{failures:?}");
    }

    #[test]
    fn baseline_gate_never_tolerates_divergence() {
        let base = doc(100, 1000.0, 2.0, true);
        let fresh = doc(100, 10.0, 100.0, false);
        let failures = compare_with_baseline(&fresh, &base, 10.0);
        assert!(
            failures.iter().any(|f| f.contains("divergence")),
            "{failures:?}"
        );
    }

    #[test]
    fn bench_to_file_writes_json() {
        let (g, mut cfg) = tiny();
        let dir = std::env::temp_dir().join(format!("kor-bench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        cfg.out = dir.join("BENCH_kor.json");
        run_bench_to_file(Some(g), &cfg).unwrap();
        let text = std::fs::read_to_string(&cfg.out).unwrap();
        assert!(JsonValue::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
