//! Parallel batch execution of KOR query workloads.
//!
//! This is the first scale-oriented layer on top of the paper
//! reproduction: load a dataset once, build the [`KorEngine`] (inverted
//! index + pre-processing cache) once, then answer a whole
//! [`WorkloadConfig`] of KOR queries concurrently and report per-query
//! latencies plus an aggregate JSON summary — the harness every later
//! performance PR benchmarks against.
//!
//! Parallelism is plain `std::thread::scope` with an atomic work queue:
//! the build environment vendors no `rayon`, and self-scheduling workers
//! over a shared `&KorEngine` give the same dynamic load balancing for
//! this shape of work. The engine's `PreprocessCache` is behind a mutex
//! and is shared by all workers, so trees computed for one query are
//! reused by every later query regardless of which thread runs it.
//!
//! ```no_run
//! use kor::batch::{run_batch, BatchConfig};
//! use kor::prelude::*;
//!
//! let (graph, _) = generate_flickr(&FlickrConfig::small());
//! let report = run_batch(&graph, &BatchConfig::default());
//! println!("{}", report.to_json());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use kor_core::{
    Algo, BucketBoundParams, KorEngine, KorError, KorQuery, SearchOutcome, SearchRequest,
};
use kor_data::shard::ShardingInfo;
use kor_data::{generate_workload, CannedQuery, CannedQuerySet, WorkloadConfig};
use kor_graph::Graph;

use crate::json::JsonValue;
use crate::percentile::LatencySummary;
use crate::shard::ShardRouter;

/// Full configuration of a batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// The query workload to generate over the dataset. Ignored when
    /// `canned` is set.
    pub workload: WorkloadConfig,
    /// Budget limit `Δ` applied to every generated query. Canned queries
    /// carry their own per-query budgets instead.
    pub delta: f64,
    /// Replay these canned query sets (e.g. from a `.korbin` snapshot)
    /// instead of generating a workload — the exact same queries every
    /// run, with per-query budgets from the snapshot.
    pub canned: Option<Vec<CannedQuerySet>>,
    /// Route queries through a [`ShardRouter`] built from this shard
    /// layout (e.g. a sharded snapshot's `SHRD`/`BNDR` sections):
    /// confinement-proven queries run on their shard's engine, the rest
    /// fan out to the fused engine. Results are byte-identical either
    /// way — only the routing (and [`BatchReport::shard_routing`])
    /// changes.
    pub sharding: Option<ShardingInfo>,
    /// Algorithm (and its parameters) to run.
    pub algo: Algo,
    /// Worker thread count; `0` means one per available core.
    pub threads: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            workload: WorkloadConfig::default(),
            delta: 25.0,
            canned: None,
            sharding: None,
            algo: Algo::BucketBound(BucketBoundParams::default()),
            threads: 0,
        }
    }
}

/// Outcome of one query in the batch.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Index of the query in submission order (stable across runs).
    pub id: usize,
    /// Index of the query set this query came from (position in
    /// `WorkloadConfig::keyword_counts`; counts may repeat, so this —
    /// not `keyword_count` — identifies the set).
    pub set_index: usize,
    /// Number of query keywords.
    pub keyword_count: usize,
    /// Wall-clock time answering this query.
    pub latency: Duration,
    /// Objective score of the returned route, if feasible.
    pub objective: Option<f64>,
    /// Budget score of the returned route, if feasible.
    pub budget: Option<f64>,
    /// Node ids of the returned route, if feasible (the
    /// [`BatchReport::result_digest`] input).
    pub route: Option<Vec<u32>>,
    /// Error message if the engine rejected the query.
    pub error: Option<String>,
}

impl QueryOutcome {
    /// An outcome with nothing answered yet.
    pub(crate) fn pending(id: usize, set_index: usize, keyword_count: usize) -> Self {
        Self {
            id,
            set_index,
            keyword_count,
            latency: Duration::ZERO,
            objective: None,
            budget: None,
            route: None,
            error: None,
        }
    }

    /// Records what a search answered. Only a feasible route counts: a
    /// greedy route that breaks a hard constraint is reported as
    /// infeasible.
    pub(crate) fn answered(self, answer: Result<SearchOutcome, KorError>) -> Self {
        match answer {
            Err(e) => self.failed(e.to_string()),
            Ok(outcome) => match outcome.best().filter(|_| outcome.is_feasible()) {
                Some(r) => Self {
                    objective: Some(r.objective),
                    budget: Some(r.budget),
                    route: Some(r.route.nodes().iter().map(|n| n.0).collect()),
                    ..self
                },
                None => self,
            },
        }
    }

    fn failed(self, error: String) -> Self {
        Self {
            error: Some(error),
            ..self
        }
    }

    /// Whether the query produced a feasible route.
    pub fn is_feasible(&self) -> bool {
        self.objective.is_some()
    }
}

/// Per-keyword-count aggregate in the report.
#[derive(Debug, Clone)]
pub struct SetSummary {
    /// Keywords per query in this set.
    pub keyword_count: usize,
    /// Queries executed.
    pub queries: usize,
    /// Queries with a feasible route.
    pub feasible: usize,
    /// Latency aggregate for the set in microseconds (absent if the set
    /// was empty).
    pub latency: Option<LatencySummary>,
}

/// Everything a batch run produced.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Algorithm name (`os-scaling`, `bucket-bound`, `greedy`).
    pub algo: String,
    /// Worker threads actually used.
    pub threads: usize,
    /// Budget limit applied to every query.
    pub delta: f64,
    /// Every per-query outcome, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// End-to-end wall time of the parallel section.
    pub wall: Duration,
    /// Per-set aggregates.
    pub per_set: Vec<SetSummary>,
    /// Shard routing totals when the batch replayed through a sharded
    /// layout: `(confined shard-local answers, fused-engine fanouts)`.
    pub shard_routing: Option<(u64, u64)>,
}

impl BatchReport {
    /// Queries with a feasible route.
    pub fn feasible(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_feasible()).count()
    }

    /// Queries the engine rejected outright.
    pub fn errors(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }

    /// Aggregate latency over all answered queries. Outcomes the engine
    /// rejected are excluded: construction failures were never timed
    /// (their latency is zero) and would drag the percentiles down.
    pub fn latency(&self) -> Option<LatencySummary> {
        LatencySummary::of(
            self.outcomes
                .iter()
                .filter(|o| o.error.is_none())
                .map(|o| o.latency.as_secs_f64() * 1e6)
                .collect(),
        )
    }

    /// Sustained throughput of the parallel section, queries per second.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.wall.as_secs_f64()
    }

    /// Deterministic digest of every query's *answer* — id, feasibility,
    /// objective and budget bits, and route node ids folded FNV-1a style
    /// in submission order. Timing and threading never enter, so two
    /// runs of the same workload on the same dataset — sharded behind
    /// the router or on the single fused engine — must produce equal
    /// digests; the CI shard smoke step diffs exactly this field.
    pub fn result_digest(&self) -> u64 {
        digest_outcomes(&self.outcomes)
    }

    /// Render the summary as a JSON object (via [`crate::json`]; the
    /// environment vendors no `serde_json`).
    pub fn to_json(&self) -> String {
        fn latency_json(l: &LatencySummary) -> JsonValue {
            JsonValue::obj([
                ("min", l.min.into()),
                ("mean", l.mean.into()),
                ("p50", l.p50.into()),
                ("p95", l.p95.into()),
                ("p99", l.p99.into()),
                ("max", l.max.into()),
            ])
        }
        let per_set: Vec<JsonValue> = self
            .per_set
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("keywords", s.keyword_count.into()),
                    ("queries", s.queries.into()),
                    ("feasible", s.feasible.into()),
                    (
                        "latency_us",
                        s.latency.as_ref().map_or(JsonValue::Null, latency_json),
                    ),
                ])
            })
            .collect();
        let mut fields = vec![
            ("algo", JsonValue::from(self.algo.clone())),
            ("delta", self.delta.into()),
            ("threads", self.threads.into()),
            ("queries", self.outcomes.len().into()),
            ("feasible", self.feasible().into()),
            ("errors", self.errors().into()),
            ("wall_ms", (self.wall.as_secs_f64() * 1e3).into()),
            ("throughput_qps", self.throughput_qps().into()),
            (
                "result_digest",
                format!("{:016x}", self.result_digest()).into(),
            ),
        ];
        if let Some((local, fanout)) = self.shard_routing {
            fields.push((
                "shards",
                JsonValue::obj([("local", local.into()), ("fanout", fanout.into())]),
            ));
        }
        if let Some(l) = self.latency() {
            fields.push(("latency_us", latency_json(&l)));
        }
        fields.push(("per_set", JsonValue::Arr(per_set)));
        JsonValue::obj(fields).render()
    }
}

/// The FNV-1a answer digest behind [`BatchReport::result_digest`],
/// usable on any outcome list (the `kor mutate` warm-vs-cold verifier
/// digests canned replays that never pass through a full report).
pub fn digest_outcomes(outcomes: &[QueryOutcome]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        eat(&mut h, o.id as u64);
        match (&o.error, o.objective) {
            (Some(_), _) => eat(&mut h, 2),
            (None, None) => eat(&mut h, 0),
            (None, Some(objective)) => {
                eat(&mut h, 1);
                eat(&mut h, objective.to_bits());
                eat(&mut h, o.budget.unwrap_or(f64::NAN).to_bits());
                let route = o.route.as_deref().unwrap_or(&[]);
                eat(&mut h, route.len() as u64);
                for &node in route {
                    eat(&mut h, u64::from(node));
                }
            }
        }
    }
    h
}

/// Materialized work item: a full KOR query plus bookkeeping.
struct WorkItem {
    id: usize,
    set_index: usize,
    keyword_count: usize,
    query: Result<KorQuery, String>,
}

/// Generate the workload and answer every query in parallel.
///
/// The engine (inverted index + shared `PreprocessCache`) is built once
/// before the parallel section; workers pull queries off an atomic
/// cursor, so long-running stragglers never idle the other threads.
pub fn run_batch(graph: &Graph, config: &BatchConfig) -> BatchReport {
    let engine = KorEngine::new(graph);
    // When the dataset ships a shard layout, every query routes through
    // the scatter-gather router; the fused engine above stays the
    // gather side for cross-shard queries.
    let router = config
        .sharding
        .as_ref()
        .map(|info| ShardRouter::new(graph, info.clone()));
    // Either replay the canned sets verbatim or generate a workload;
    // either way
    // downstream sees one shape: the generated workload is canned with
    // the shared `delta` as every query's budget.
    let sets: Vec<CannedQuerySet> = match &config.canned {
        Some(canned) => canned.clone(),
        None => generate_workload(graph, engine.index(), &config.workload)
            .into_iter()
            .map(|set| CannedQuerySet {
                keyword_count: set.keyword_count,
                queries: set
                    .queries
                    .into_iter()
                    .map(|spec| CannedQuery {
                        source: spec.source,
                        target: spec.target,
                        keywords: spec.keywords,
                        budget: config.delta,
                    })
                    .collect(),
            })
            .collect(),
    };

    let mut items: Vec<WorkItem> = Vec::new();
    for (set_index, set) in sets.iter().enumerate() {
        for q in &set.queries {
            items.push(WorkItem {
                id: items.len(),
                set_index,
                keyword_count: set.keyword_count,
                query: KorQuery::new(graph, q.source, q.target, q.keywords.clone(), q.budget)
                    .map_err(|e| e.to_string()),
            });
        }
    }

    let threads = if config.threads > 0 {
        config.threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
    .min(items.len().max(1));

    let request = SearchRequest::new(config.algo.clone());
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let engine = &engine;
            let router = router.as_ref();
            let items = &items;
            let cursor = &cursor;
            let request = &request;
            handles.push(scope.spawn(move || {
                let mut local: Vec<QueryOutcome> = Vec::new();
                loop {
                    let at = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(at) else { break };
                    local.push(run_one(engine, router, item, request));
                }
                local
            }));
        }
        for h in handles {
            outcomes.extend(h.join().expect("batch worker panicked"));
        }
    });
    let wall = started.elapsed();
    outcomes.sort_by_key(|o| o.id);

    let per_set = sets
        .iter()
        .enumerate()
        .map(|(set_index, set)| {
            let of_set: Vec<&QueryOutcome> = outcomes
                .iter()
                .filter(|o| o.set_index == set_index)
                .collect();
            SetSummary {
                keyword_count: set.keyword_count,
                queries: of_set.len(),
                feasible: of_set.iter().filter(|o| o.is_feasible()).count(),
                latency: LatencySummary::of(
                    of_set
                        .iter()
                        .filter(|o| o.error.is_none())
                        .map(|o| o.latency.as_secs_f64() * 1e6)
                        .collect(),
                ),
            }
        })
        .collect();

    BatchReport {
        algo: config.algo.name().to_string(),
        threads,
        delta: config.delta,
        outcomes,
        wall,
        per_set,
        shard_routing: router.map(|r| {
            let local: u64 = r.shard_counters().iter().map(|c| c.local_hits).sum();
            (local, r.fanouts())
        }),
    }
}

/// Answer one work item, timing only the engine call. With a router,
/// confined queries run on their shard's engine (anchored), everything
/// else on the fused engine; planning is not part of the latency.
fn run_one(
    engine: &KorEngine<&Graph>,
    router: Option<&ShardRouter>,
    item: &WorkItem,
    request: &SearchRequest,
) -> QueryOutcome {
    let base = QueryOutcome::pending(item.id, item.set_index, item.keyword_count);
    let query = match &item.query {
        Ok(q) => q,
        Err(e) => return base.failed(e.clone()),
    };
    let local = match router.map(|r| r.route(query, request)).transpose() {
        Err(unavailable) => return base.failed(unavailable.to_string()),
        Ok(local) => local.flatten(),
    };
    let t0 = Instant::now();
    let answer = match &local {
        Some((shard, anchored)) => shard.search(query, anchored),
        None => engine.search(query, request),
    };
    QueryOutcome {
        latency: t0.elapsed(),
        ..base
    }
    .answered(answer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_core::{GreedyParams, OsScalingParams};
    use kor_data::{generate_roadnet, RoadNetConfig};

    fn small_config() -> BatchConfig {
        BatchConfig {
            workload: WorkloadConfig {
                keyword_counts: vec![1, 2],
                queries_per_set: 8,
                frequency_weighted: true,
                max_euclidean_km: None,
                min_doc_fraction: 0.0,
                seed: 11,
            },
            delta: 40.0,
            canned: None,
            sharding: None,
            algo: Algo::BucketBound(BucketBoundParams::default()),
            threads: 4,
        }
    }

    #[test]
    fn batch_runs_all_queries_in_order() {
        let g = generate_roadnet(&RoadNetConfig::small());
        let report = run_batch(&g, &small_config());
        assert_eq!(report.outcomes.len(), 16);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.id, i);
        }
        assert_eq!(report.per_set.len(), 2);
        assert_eq!(report.per_set.iter().map(|s| s.queries).sum::<usize>(), 16);
        assert!(report.feasible() > 0, "no feasible routes in small batch");
        assert_eq!(report.errors(), 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = generate_roadnet(&RoadNetConfig::small());
        let mut cfg = small_config();
        let par = run_batch(&g, &cfg);
        cfg.threads = 1;
        let seq = run_batch(&g, &cfg);
        let objs = |r: &BatchReport| -> Vec<Option<u64>> {
            r.outcomes
                .iter()
                .map(|o| o.objective.map(f64::to_bits))
                .collect()
        };
        assert_eq!(objs(&par), objs(&seq));
    }

    #[test]
    fn all_algorithms_produce_reports() {
        let g = generate_roadnet(&RoadNetConfig::small());
        let mut cfg = small_config();
        for algo in [
            Algo::OsScaling(OsScalingParams::default()),
            Algo::BucketBound(BucketBoundParams::default()),
            Algo::Greedy(GreedyParams::with_beam(2)),
        ] {
            cfg.algo = algo.clone();
            let report = run_batch(&g, &cfg);
            assert_eq!(report.outcomes.len(), 16);
            assert_eq!(report.algo, algo.name());
            assert!(report.latency().is_some());
            assert!(report.throughput_qps() > 0.0);
        }
    }

    #[test]
    fn duplicate_keyword_counts_stay_separate_sets() {
        let g = generate_roadnet(&RoadNetConfig::small());
        let mut cfg = small_config();
        cfg.workload.keyword_counts = vec![2, 2];
        let report = run_batch(&g, &cfg);
        assert_eq!(report.outcomes.len(), 16);
        assert_eq!(report.per_set.len(), 2);
        // Each outcome belongs to exactly one set; duplicate counts must
        // not double-count.
        assert_eq!(report.per_set.iter().map(|s| s.queries).sum::<usize>(), 16);
        for s in &report.per_set {
            assert_eq!(s.keyword_count, 2);
            assert_eq!(s.queries, 8);
        }
    }

    #[test]
    fn canned_sets_replay_with_their_own_budgets() {
        use kor_data::{generate_world, GenConfig};
        let world = generate_world(&GenConfig::grid(6, 5, 3));
        let cfg = BatchConfig {
            canned: Some(world.query_sets.clone()),
            threads: 2,
            ..BatchConfig::default()
        };
        let report = run_batch(&world.graph, &cfg);
        assert_eq!(report.outcomes.len(), world.query_count());
        assert_eq!(report.per_set.len(), world.query_sets.len());
        for (summary, set) in report.per_set.iter().zip(&world.query_sets) {
            assert_eq!(summary.keyword_count, set.keyword_count);
            assert_eq!(summary.queries, set.queries.len());
        }
        assert_eq!(report.errors(), 0, "canned queries are pre-validated");
        // Replaying is deterministic: same outcomes, bit for bit.
        let again = run_batch(&world.graph, &cfg);
        let objs = |r: &BatchReport| -> Vec<Option<u64>> {
            r.outcomes
                .iter()
                .map(|o| o.objective.map(f64::to_bits))
                .collect()
        };
        assert_eq!(objs(&report), objs(&again));
    }

    #[test]
    fn sharded_replay_matches_unsharded_digest() {
        use kor_data::{compute_sharding, generate_world, GenConfig};
        let world = generate_world(&GenConfig::grid(6, 5, 3));
        for algo in [
            Algo::OsScaling(OsScalingParams::default()),
            Algo::BucketBound(BucketBoundParams::default()),
            Algo::Greedy(GreedyParams::with_beam(2)),
        ] {
            let unsharded = run_batch(
                &world.graph,
                &BatchConfig {
                    canned: Some(world.query_sets.clone()),
                    algo: algo.clone(),
                    threads: 2,
                    ..BatchConfig::default()
                },
            );
            let sharded = run_batch(
                &world.graph,
                &BatchConfig {
                    canned: Some(world.query_sets.clone()),
                    sharding: Some(compute_sharding(&world.graph, 2)),
                    algo: algo.clone(),
                    threads: 2,
                    ..BatchConfig::default()
                },
            );
            assert_eq!(unsharded.shard_routing, None);
            let (local, fanout) = sharded.shard_routing.expect("routed");
            assert_eq!(
                (local + fanout) as usize,
                world.query_count(),
                "every query routed exactly once"
            );
            assert_eq!(
                sharded.result_digest(),
                unsharded.result_digest(),
                "{}: router must be answer-invariant",
                algo.name()
            );
        }
    }

    #[test]
    fn json_summary_is_well_formed() {
        let g = generate_roadnet(&RoadNetConfig::small());
        let report = run_batch(&g, &small_config());
        let json = report.to_json();
        // Must survive the strict parser it is built from.
        let parsed = JsonValue::parse(&json).expect("summary parses");
        assert_eq!(
            parsed.get("algo").and_then(JsonValue::as_str),
            Some("bucket-bound")
        );
        assert_eq!(parsed.get("queries").and_then(JsonValue::as_u64), Some(16));
        assert!(parsed.get("latency_us").is_some());
        assert!(parsed.get("throughput_qps").and_then(JsonValue::as_f64) > Some(0.0));
        assert_eq!(
            parsed
                .get("per_set")
                .and_then(JsonValue::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
