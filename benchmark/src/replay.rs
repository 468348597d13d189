//! The traced run: the workload's warm-up pass plus one measured pass,
//! replayed serially in-process with spans around the calls into each
//! layer's public functions, and the per-layer metrics derived from
//! them.
//!
//! No sockets are opened. Each request goes through the same public
//! calls `kor serve` makes, in the server's order: parse the request
//! line, look up the pre-processing products (context, keyword reach
//! trees, landmarks) in the engine's shared cache, run the search (which
//! then finds all of them warm), render the reply. Each update batch
//! goes through `Graph::apply_mutations`, `KorEngine::apply_edge_mutations`
//! and `Journal::append`. The replay runs on fresh engines with spans off
//! and with spans on; the ratio of the two is the tracing overhead.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kor::core::{
    BucketBoundParams, GreedyParams, KorEngine, KorQuery, OsScalingParams, RouteResult,
    ScaleAnchor, SearchStats,
};
use kor::data::{compute_sharding, graph_digest, read_world_auto, Journal};
use kor::graph::{Graph, NodeId};
use kor::index::InvertedIndex;
use kor::json::JsonValue;
use kor::serve::protocol::{ok_response, parse_request};
use kor::serve::registry::Dataset;
use kor::shard::{ShardPlan, ShardRouter};

use crate::check::check_reply;
use crate::measure::WireRun;
use crate::stats::{median, Samples};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::{Algo, QuerySpec};
use crate::Prepared;

/// Update batches the `traffic-churn` replay interleaves.
const REPLAY_BATCHES: usize = 30;

/// Update batches the read-only workloads' replays apply after their
/// measured pass, each followed by one unmeasured query, so that the
/// mutation layers are timed on every workload's warm engine.
pub const PROBE_BATCHES: usize = 20;

/// Shards of the sharding probe.
const SHARDS: usize = 4;

/// What one replay observed besides its spans.
#[derive(Default)]
struct Counters {
    /// Wall time of every request and mutation, both passes, in ns.
    wall_ns: u64,
    /// Durations of measured-pass requests, in ms.
    request_ms: Vec<f64>,
    ctx_calls: u64,
    ctx_hits: u64,
    reach_calls: u64,
    reach_hits: u64,
    search: SearchStats,
    /// `(graph epoch, duration ns)` of every landmark lookup that built.
    landmark_builds: Vec<(u64, u64)>,
    contexts_retained: u64,
    contexts_evicted: u64,
    /// Requests and batches replayed, and how many failed.
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Counters {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }
}

/// The per-layer metrics of one workload plus the replay's own outcome
/// counts.
pub struct LayerReport {
    /// `(metric name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced replay's spans.
    pub spans: Vec<Span>,
    /// Operations replayed (all three replays).
    pub attempted: u64,
    /// Operations that failed or whose output failed the checker.
    pub failed: u64,
    /// The first failure, verbatim.
    pub first_error: Option<String>,
    /// Search p50 on the fused engine for the queries the shard router
    /// answers locally, in µs.
    pub fused_p50_on_local_us: f64,
}

/// Runs the probes and three replays of `wire`'s workload: an untraced
/// one that only warms the allocator and page cache, so that neither
/// compared replay is the process's first, a traced one, and an
/// untraced one to compare it with.
pub fn per_layer(prep: &Prepared, journal_dir: &Path, wire: &WireRun) -> LayerReport {
    let mut tracer = Tracer::new(true);
    let (read_ms, snapshot) = median_of_3(&mut tracer, "data.read_snapshot", || {
        read_world_auto(&prep.korbin).expect("the benchmark world reads back")
    });
    let graph = snapshot.graph.clone();
    let (index_ms, _) = median_of_3(&mut tracer, "index.build", || InvertedIndex::build(&graph));
    let (dataset_ms, _) = median_of_3(&mut tracer, "serve.dataset_build", || {
        Dataset::from_snapshot("bench", snapshot.clone())
    });
    let shards = shard_probe(prep, &graph, &mut tracer);

    let steps = steps(prep, wire);
    let replays = [
        replay(prep, &graph, &steps, &mut Tracer::new(false), journal_dir),
        replay(prep, &graph, &steps, &mut tracer, journal_dir),
        replay(prep, &graph, &steps, &mut Tracer::new(false), journal_dir),
    ];
    let [_, traced, untraced] = &replays;
    let spans = tracer.spans().to_vec();
    let selfs = self_times(&spans);
    // Spans count towards the metrics when their step is measured: every
    // update batch, and every query outside the warm-up pass and probe.
    let counted: Vec<bool> = steps
        .iter()
        .map(|step| match *step {
            Step::Query { measured, .. } => measured,
            Step::Batch(_) => true,
        })
        .collect();
    let measured = |s: &Span| s.req.is_some_and(|r| counted[r as usize]);
    let ns_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && measured(s))
            .map(|s| s.duration_ns() as f64)
            .collect()
    };
    let self_sum = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name && measured(s))
            .map(|(_, &t)| t as f64)
            .sum()
    };
    let mean = |v: Vec<f64>| Samples::new(v).mean();
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let c = traced;
    let search = Samples::new(ns_of("core.search"));
    // `KorEngine::apply_edge_mutations` applies the batch to its graph
    // first; no span can reach inside it, so its self time is estimated
    // as its duration less that of the separate `Graph::apply_mutations`
    // call just before it, averaged over every batch.
    let graph_ns = ns_of("graph.apply_mutations");
    let engine_self_ms =
        (mean(ns_of("core.apply_edge_mutations")) - mean(graph_ns.clone())).max(0.0) / 1e6;
    let builds_at = |rebuild: bool| -> Vec<f64> {
        c.landmark_builds
            .iter()
            .filter(|&&(epoch, _)| (epoch > 0) == rebuild)
            .map(|&(_, ns)| ns as f64)
            .collect()
    };
    let wire_p50_ms =
        Samples::new(wire.single.samples.iter().map(|&(_, ms)| ms).collect()).pct(0.5);
    let wire_ms = wire_p50_ms - Samples::new(untraced.request_ms.clone()).pct(0.5);
    let stats = wire.stats.as_ref().unwrap_or(&JsonValue::Null);
    let prep_cache = stats
        .get("datasets")
        .and_then(JsonValue::as_arr)
        .and_then(|d| d.first())
        .and_then(|d| d.get("prep_cache"));
    let counter = |section: Option<&JsonValue>, key: &str| {
        section
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let server = stats.get("server");
    let s = &c.search;

    let metrics = vec![
        ("core.search_p50_us", search.pct(0.5) / 1e3),
        ("core.search_p95_us", search.pct(0.95) / 1e3),
        (
            "core.search_share",
            ratio(self_sum("core.search"), sum(ns_of("request"))),
        ),
        ("core.labels_created", s.labels_created as f64),
        ("core.labels_expanded", s.labels_expanded as f64),
        ("core.labels_pruned", s.labels_pruned as f64),
        ("core.labels_dominated", s.labels_dominated as f64),
        (
            "core.prune_ratio",
            ratio(s.total_rejections() as f64, s.labels_created as f64),
        ),
        ("core.trees_built", s.trees_built as f64),
        ("core.context_us", mean(ns_of("core.context")) / 1e3),
        (
            "core.context_hit_ratio",
            ratio(c.ctx_hits as f64, c.ctx_calls as f64),
        ),
        ("core.reach_us", mean(ns_of("core.reach")) / 1e3),
        (
            "core.reach_hit_ratio",
            ratio(c.reach_hits as f64, c.reach_calls as f64),
        ),
        ("core.landmarks_us", mean(ns_of("core.landmarks")) / 1e3),
        ("apsp.landmarks_build_ms", mean(builds_at(false)) / 1e6),
        ("serve.parse_us", mean(ns_of("serve.parse")) / 1e3),
        ("serve.render_us", mean(ns_of("serve.render")) / 1e3),
        ("serve.wire_ms", wire_ms),
        ("serve.wire_share", ratio(wire_ms, wire_p50_ms)),
        (
            "serve.ctx_hit_rate",
            ratio(
                counter(prep_cache, "ctx_hits"),
                counter(prep_cache, "ctx_hits") + counter(prep_cache, "ctx_misses"),
            ),
        ),
        ("serve.evictions", counter(prep_cache, "evictions")),
        ("serve.overloaded", counter(server, "overloaded")),
        ("serve.panics", counter(server, "panics")),
        ("graph.apply_mutations_ms", mean(graph_ns) / 1e6),
        ("core.apply_edge_mutations_ms", engine_self_ms),
        (
            "core.contexts_retained_share",
            ratio(
                c.contexts_retained as f64,
                (c.contexts_retained + c.contexts_evicted) as f64,
            ),
        ),
        ("apsp.landmarks_rebuild_ms", mean(builds_at(true)) / 1e6),
        ("data.read_snapshot_ms", read_ms),
        (
            "data.journal_append_ms",
            mean(ns_of("data.journal_append")) / 1e6,
        ),
        ("index.build_ms", index_ms),
        ("serve.dataset_build_ms", dataset_ms),
        ("shard.build_ms", shards.build_ms),
        ("shard.local_share", shards.local_share),
        ("shard.local_search_p50_us", shards.local_p50_us),
        (
            "trace.overhead_ratio",
            ratio(c.wall_ns as f64, untraced.wall_ns as f64),
        ),
    ];
    LayerReport {
        metrics,
        spans,
        attempted: replays.iter().map(|r| r.attempted).sum(),
        failed: replays.iter().map(|r| r.failed).sum(),
        first_error: replays.iter().find_map(|r| r.first_error.clone()),
        fused_p50_on_local_us: shards.fused_p50_us,
    }
}

/// Runs `f` three times inside spans named `name`; returns the median
/// duration in ms and the last result.
fn median_of_3<T>(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> (f64, T) {
    tracer.set_request(None);
    let mut ms = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        last = Some(tracer.span(name, |_| f()));
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(&ms), last.expect("three runs"))
}

struct ShardProbe {
    build_ms: f64,
    local_share: f64,
    local_p50_us: f64,
    fused_p50_us: f64,
}

/// Builds a 4-shard router over the world and runs every distinct query
/// the router would answer shard-locally on its shard engine and on the
/// fused engine (warm: each search runs twice, the second is timed).
fn shard_probe(prep: &Prepared, graph: &Graph, tracer: &mut Tracer) -> ShardProbe {
    tracer.set_request(None);
    let start = Instant::now();
    let router = tracer.span("shard.build", |_| {
        ShardRouter::new(graph, compute_sharding(graph, SHARDS))
    });
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let fused = KorEngine::new(Arc::new(graph.clone()));
    let (mut local, mut fused_us) = (Vec::new(), Vec::new());
    for q in &prep.queries {
        let plan = router.plan(q.source, q.target, q.budget, q.algo != Algo::Greedy);
        let Ok(ShardPlan::Local(shard)) = plan else {
            continue;
        };
        let query = KorQuery::new(graph, q.source, q.target, q.keywords.clone(), q.budget)
            .expect("benchmark queries are valid");
        for (engine, anchor, out) in [
            (router.engine(shard), Some(router.anchor()), &mut local),
            (&fused, None, &mut fused_us),
        ] {
            let _ = search(engine, &query, q.algo, anchor);
            let start = Instant::now();
            let _ = search(engine, &query, q.algo, anchor);
            out.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    ShardProbe {
        build_ms,
        local_share: local.len() as f64 / prep.queries.len() as f64,
        local_p50_us: Samples::new(local).pct(0.5),
        fused_p50_us: Samples::new(fused_us).pct(0.5),
    }
}

/// A search outcome: routes, label counters (label searches only), and
/// greedy's constraint flags.
struct Outcome {
    routes: Vec<RouteResult>,
    stats: Option<SearchStats>,
    greedy_flags: Option<(bool, bool)>,
}

fn search(
    engine: &KorEngine<Arc<Graph>>,
    query: &KorQuery,
    algo: Algo,
    anchor: Option<ScaleAnchor>,
) -> Result<Outcome, String> {
    let label = |r: Result<kor::core::SearchResult, kor::core::KorError>| {
        r.map(|r| Outcome {
            routes: r.route.into_iter().collect(),
            stats: Some(r.stats),
            greedy_flags: None,
        })
        .map_err(|e| e.to_string())
    };
    let bucket = BucketBoundParams {
        anchor,
        ..BucketBoundParams::default()
    };
    match algo {
        Algo::OsScaling => label(engine.os_scaling(
            query,
            &OsScalingParams {
                anchor,
                ..OsScalingParams::default()
            },
        )),
        Algo::BucketBound(1) => label(engine.bucket_bound(query, &bucket)),
        Algo::BucketBound(k) => engine
            .top_k_bucket_bound(query, &bucket, k)
            .map(|r| Outcome {
                routes: r.routes,
                stats: Some(r.stats),
                greedy_flags: None,
            })
            .map_err(|e| e.to_string()),
        Algo::Greedy => engine
            .greedy(query, &GreedyParams::default())
            .map(|g| match g {
                Some(g) => Outcome {
                    greedy_flags: Some((g.covers_keywords, g.within_budget)),
                    routes: vec![RouteResult {
                        route: g.route,
                        objective: g.objective,
                        budget: g.budget,
                    }],
                    stats: None,
                },
                None => Outcome {
                    routes: Vec::new(),
                    stats: None,
                    greedy_flags: None,
                },
            })
            .map_err(|e| e.to_string()),
    }
}

/// Decodes a request line the way the server's query handler does.
fn decode(line: &str, graph: &Graph) -> Result<(JsonValue, KorQuery), String> {
    let req = parse_request(line.trim_end()).map_err(|e| e.message)?;
    let p = &req.params;
    let node = |key: &str| {
        p.get(key)
            .and_then(JsonValue::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .map(NodeId)
            .ok_or(format!("bad {key}"))
    };
    let terms: Vec<&str> = p
        .get("keywords")
        .and_then(JsonValue::as_arr)
        .ok_or("bad keywords")?
        .iter()
        .filter_map(JsonValue::as_str)
        .collect();
    let budget = p
        .get("budget")
        .and_then(JsonValue::as_f64)
        .ok_or("bad budget")?;
    let query = KorQuery::from_terms(graph, node("from")?, node("to")?, terms, budget)
        .map_err(|e| e.to_string())?;
    Ok((req.id, query))
}

/// Renders a result exactly as the server's query handler does.
fn render(id: &JsonValue, algo: Algo, epoch: u64, outcome: &Outcome) -> String {
    let routes = outcome
        .routes
        .iter()
        .map(|r| {
            JsonValue::obj([
                (
                    "nodes",
                    JsonValue::Arr(
                        r.route
                            .nodes()
                            .iter()
                            .map(|n| JsonValue::from(u64::from(n.0)))
                            .collect(),
                    ),
                ),
                ("objective", r.objective.into()),
                ("budget", r.budget.into()),
            ])
        })
        .collect();
    let mut fields: Vec<(&'static str, JsonValue)> = vec![
        ("dataset", "bench".into()),
        ("algo", algo.name().into()),
        ("epoch", epoch.into()),
        ("feasible", (!outcome.routes.is_empty()).into()),
        ("routes", JsonValue::Arr(routes)),
    ];
    if let Some((covers, within)) = outcome.greedy_flags {
        fields.push(("covers_keywords", covers.into()));
        fields.push(("within_budget", within.into()));
    }
    ok_response(id, JsonValue::obj(fields))
}

/// One request through every layer, in the server's order.
fn serve_one(
    engine: &KorEngine<Arc<Graph>>,
    q: &QuerySpec,
    tracer: &mut Tracer,
    c: &mut Counters,
    measured: bool,
) -> Result<String, String> {
    let graph = engine.graph();
    let cache = engine.preprocess_cache();
    let (id, query) = tracer.span("serve.parse", |_| decode(&q.line, graph))?;
    let (_, ctx_hit) = tracer.span("core.context", |_| cache.context(graph, query.target));
    let mut reach_hits = 0;
    for &kw in query.keywords.ids() {
        let (_, hit) = tracer.span("core.reach", |_| {
            cache.reach_tree(graph, kw, engine.index().postings(kw))
        });
        reach_hits += u64::from(hit);
    }
    let (_, lm_hit) = tracer.span("core.landmarks", |_| cache.landmarks(graph));
    if !lm_hit {
        if let Some(s) = tracer.spans().last() {
            c.landmark_builds.push((graph.epoch(), s.duration_ns()));
        }
    }
    let outcome = tracer.span("core.search", |_| search(engine, &query, q.algo, None))?;
    let line = tracer.span("serve.render", |_| {
        render(&id, q.algo, graph.epoch(), &outcome)
    });
    if measured {
        c.ctx_calls += 1;
        c.ctx_hits += u64::from(ctx_hit);
        c.reach_calls += query.keywords.ids().len() as u64;
        c.reach_hits += reach_hits;
        if let Some(s) = outcome.stats {
            let t = &mut c.search;
            t.labels_created += s.labels_created;
            t.labels_expanded += s.labels_expanded;
            t.labels_pruned += s.labels_pruned;
            t.labels_dominated += s.labels_dominated;
            t.opt2_discards += s.opt2_discards;
            t.trees_built += s.trees_built;
        }
    }
    Ok(line)
}

/// One step of a replay.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Serve distinct query `q`; `measured` outside the warm-up pass.
    Query { q: usize, measured: bool },
    /// Apply batch `b` of the traffic script.
    Batch(usize),
}

/// The replayed stream: the warm-up pass, then the wire run's first pass
/// over the distinct queries, then the [`PROBE_BATCHES`] mutation probe.
/// For `traffic-churn`, the measured pass is instead the single-caller
/// phase's own stream up to its [`REPLAY_BATCHES`]-th update, with each
/// batch placed where its acknowledgement arrived between the wire run's
/// replies.
fn steps(prep: &Prepared, wire: &WireRun) -> Vec<Step> {
    let n = prep.order.len();
    let query = |i: usize, measured| Step::Query {
        q: prep.order[i % n],
        measured,
    };
    let mut steps: Vec<Step> = (0..prep.workload.warmup_len(n))
        .map(|q| Step::Query { q, measured: false })
        .collect();
    if !prep.workload.mutates() {
        steps.extend((0..n).map(|i| query(i, true)));
        // The query after each batch finds the landmarks gone and
        // rebuilds them, as the server's next query would.
        steps.extend((0..PROBE_BATCHES).flat_map(|b| [Step::Batch(b), query(b, false)]));
        return steps;
    }
    let positions = &wire.batch_positions;
    let batches = positions.len().min(REPLAY_BATCHES);
    let end = positions
        .get(batches)
        .copied()
        .unwrap_or(wire.single.samples.len());
    let mut next = 0;
    for i in 0..end {
        while next < batches && positions[next] <= i {
            steps.push(Step::Batch(next));
            next += 1;
        }
        steps.push(query(i, true));
    }
    steps.extend((next..batches).map(Step::Batch));
    steps
}

/// Replays `steps` on a fresh engine. Every reply is checked, outside
/// the timed intervals.
fn replay(
    prep: &Prepared,
    graph: &Graph,
    steps: &[Step],
    tracer: &mut Tracer,
    journal_dir: &Path,
) -> Counters {
    let mut engine = KorEngine::new(Arc::new(graph.clone()));
    let mut c = Counters::default();
    std::fs::create_dir_all(journal_dir).expect("journal directory");
    let mut journal = Journal::create(&journal_dir.join("replay.korj"), 0, graph_digest(graph))
        .expect("replay journal");
    for (req, &step) in steps.iter().enumerate() {
        tracer.set_request(Some(req as u64));
        c.attempted += 1;
        let start = Instant::now();
        match step {
            Step::Query { q, measured } => {
                let out = tracer.span("request", |t| {
                    serve_one(&engine, &prep.queries[q], t, &mut c, measured)
                });
                let elapsed = start.elapsed();
                c.wall_ns += elapsed.as_nanos() as u64;
                if measured {
                    c.request_ms.push(elapsed.as_secs_f64() * 1e3);
                }
                let epoch = engine.graph().epoch();
                let optimum = (epoch == 0).then(|| prep.optimum[q]);
                if let Err(e) = out
                    .and_then(|line| check_reply(&line, &prep.queries[q], engine.graph(), optimum))
                {
                    c.fail(format!("replayed query {q} at epoch {epoch}: {e}"));
                }
            }
            Step::Batch(b) => {
                let mutations = &prep.script[b];
                let out = tracer.span("mutation", |t| {
                    let _ = t.span("graph.apply_mutations", |_| {
                        engine.graph().apply_mutations(mutations)
                    });
                    let (next, report) = t
                        .span("core.apply_edge_mutations", |_| {
                            engine.apply_edge_mutations(mutations)
                        })
                        .map_err(|e| e.to_string())?;
                    t.span("data.journal_append", |_| {
                        journal.append(report.epoch, mutations)
                    })
                    .map_err(|e| e.to_string())?;
                    Ok::<_, String>((next, report))
                });
                c.wall_ns += start.elapsed().as_nanos() as u64;
                match out {
                    Ok((next, report)) => {
                        engine = next;
                        c.contexts_retained += report.contexts_retained as u64;
                        c.contexts_evicted += report.contexts_evicted as u64;
                    }
                    Err(e) => {
                        c.fail(format!("replayed batch {b}: {e}"));
                        break;
                    }
                }
            }
        }
    }
    c
}
