//! Request routing: one parsed [`Request`] in, one result (or
//! [`WireError`]) out.
//!
//! Handlers are pure with respect to the connection: they see only the
//! shared [`ServerContext`], so the same request produces the same
//! result no matter which worker thread, connection, or interleaving
//! carried it — the property the end-to-end tests pin down by comparing
//! concurrent responses byte for byte.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use kor_core::{Algo, KorError, KorQuery, RouteResult, SearchRequest};
use kor_data::FaultAction;

use crate::json::{check_keys, opt_f64, opt_str, opt_u64, req_f64, req_str, req_u32, JsonValue};
use crate::mutate::{mutation_from_json, report_fields};
use crate::serve::protocol::{ErrorCode, Request, WireError};
use crate::serve::recovery::{self, JournalState};
use crate::serve::registry::{Dataset, Registry, ResolveError};

use std::sync::Arc;

/// State shared by every worker: the dataset registry, counters, and
/// the shutdown latch.
pub struct ServerContext {
    /// Loaded datasets.
    pub registry: Registry,
    /// Directory holding one write-ahead `.korj` journal (plus
    /// checkpoints) per dataset; `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Open journals keyed by dataset name, each with what its last
    /// recovery replayed. Replaced together with the registry entry
    /// under [`Registry::mutation_guard`]. Locked through
    /// [`ServerContext::journals`].
    journals: Mutex<HashMap<String, JournalState>>,
    /// When the server started (for `uptime_ms`).
    pub started: Instant,
    /// Worker pool size (reported by `stats`).
    pub threads: usize,
    /// Resolved backpressure-queue capacity: waiting request lines.
    pub queue_capacity: usize,
    /// Deadline applied to queries that do not carry their own
    /// `deadline_ms`; `0` means unlimited.
    pub default_deadline_ms: u64,
    /// Maximum accepted request-line length in bytes.
    pub max_request_bytes: usize,
    /// Total connections accepted.
    pub connections: AtomicU64,
    /// Connections currently open (accepted, not yet closed).
    pub open_connections: AtomicU64,
    /// Total request lines processed (including failures).
    pub requests: AtomicU64,
    /// Requests sitting in the backpressure queue right now, not yet
    /// picked up by a worker.
    pub queued_requests: AtomicU64,
    /// Total requests answered `overloaded` because that queue was full.
    pub overloaded: AtomicU64,
    /// Request handlers that panicked and were answered with
    /// `internal_error` instead of killing the worker or connection.
    pub panics: AtomicU64,
    /// Set by the `shutdown` method (and by [`crate::serve::ServerHandle`]);
    /// the reactor stops accepting once it observes this.
    pub shutdown: AtomicBool,
}

impl ServerContext {
    /// Fresh context with zeroed counters and a 1 MiB request cap.
    pub fn new(threads: usize, default_deadline_ms: u64) -> ServerContext {
        ServerContext {
            registry: Registry::new(),
            journal_dir: None,
            journals: Mutex::new(HashMap::new()),
            started: Instant::now(),
            threads,
            queue_capacity: 0,
            default_deadline_ms,
            max_request_bytes: 1 << 20,
            connections: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            queued_requests: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Fsyncs every open journal. Appends are already synced record by
    /// record, so this is a belt-and-suspenders pass on graceful
    /// shutdown — and the place sync errors get surfaced.
    pub fn sync_journals(&self) {
        for (name, state) in self.journals().iter() {
            if let Err(e) = state.journal.sync() {
                eprintln!("kor serve: journal sync for {name:?} failed: {e}");
            }
        }
    }

    /// Locks the open journals. A panic while the lock was held (inside
    /// an append, say) can leave a journal's file and its in-memory
    /// chain out of step, so a poisoned map is emptied instead of
    /// trusted: each dataset's next `update_edges` re-seeds its journal
    /// through [`recovery::seed`], a checkpoint of the epoch it serves
    /// plus a fresh journal.
    pub(crate) fn journals(&self) -> MutexGuard<'_, HashMap<String, JournalState>> {
        self.journals.lock().unwrap_or_else(|poisoned| {
            let mut journals = poisoned.into_inner();
            journals.clear();
            self.journals.clear_poison();
            journals
        })
    }
}

/// Upper bound on the `k` of top-k queries; untrusted input must not
/// size allocations.
pub const MAX_K: usize = 64;

/// Routes one request to its method handler. `received` is the arrival
/// instant deadlines are measured from.
pub fn handle(
    ctx: &ServerContext,
    req: &Request,
    received: Instant,
) -> Result<JsonValue, WireError> {
    // Crash/panic injection for the robustness batteries: the panic
    // action exercises the per-request `catch_unwind` isolation in both
    // I/O layers; crash exercises recovery from an unflushed death.
    if let Some(action) = kor_data::faultpoint::hit("serve-request") {
        match action {
            FaultAction::Panic => panic!("fault point \"serve-request\": injected panic"),
            FaultAction::IoError => {
                return Err(WireError::new(
                    ErrorCode::InternalError,
                    kor_data::faultpoint::injected_error("serve-request").to_string(),
                ))
            }
            FaultAction::Crash | FaultAction::Torn => kor_data::faultpoint::die("serve-request"),
        }
    }
    match req.method.as_str() {
        "health" => {
            check_keys(&req.params, &[])?;
            Ok(JsonValue::obj([
                ("status", "ok".into()),
                ("datasets", ctx.registry.len().into()),
                ("uptime_ms", millis(ctx.started.elapsed()).into()),
            ]))
        }
        "stats" => stats(ctx, req),
        "load_dataset" => load_dataset(ctx, req),
        "query" => query(ctx, req, received),
        "update_edges" => update_edges(ctx, req),
        "shutdown" => {
            check_keys(&req.params, &[])?;
            ctx.shutdown.store(true, Ordering::SeqCst);
            Ok(JsonValue::obj([("stopping", true.into())]))
        }
        other => Err(WireError::new(
            ErrorCode::UnknownMethod,
            format!(
                "unknown method {other:?} (expected query, update_edges, load_dataset, \
                 stats, health, or shutdown)"
            ),
        )),
    }
}

fn stats(ctx: &ServerContext, req: &Request) -> Result<JsonValue, WireError> {
    check_keys(&req.params, &["dataset"])?;
    let datasets: Vec<Arc<Dataset>> = match opt_str(&req.params, "dataset")? {
        Some(name) => vec![resolve(&ctx.registry, Some(name))?],
        None => ctx.registry.all(),
    };
    let journals = ctx.journals();
    let per_dataset: Vec<JsonValue> = datasets
        .iter()
        .map(|d| {
            let g = d.engine().graph();
            let prep = d.engine().preprocess_stats();
            let mut fields: Vec<(&'static str, JsonValue)> = vec![
                ("name", d.name().into()),
                ("nodes", g.node_count().into()),
                ("edges", g.edge_count().into()),
                ("epoch", g.epoch().into()),
                ("keywords", g.vocab().len().into()),
                ("queries_served", d.queries_served().into()),
                ("cached_trees", d.engine().cached_tree_count().into()),
                (
                    "prep_cache",
                    JsonValue::obj([
                        (
                            "contexts",
                            d.engine().preprocess_cache().context_entries().into(),
                        ),
                        ("opt2", d.engine().preprocess_cache().opt2_entries().into()),
                        ("ctx_hits", prep.ctx_hits.into()),
                        ("ctx_misses", prep.ctx_misses.into()),
                        ("opt2_hits", prep.opt2_hits.into()),
                        ("opt2_misses", prep.opt2_misses.into()),
                        ("reach_hits", prep.reach_hits.into()),
                        ("reach_misses", prep.reach_misses.into()),
                        ("evictions", prep.evictions.into()),
                        ("invalidated", prep.invalidated.into()),
                        ("retained", prep.retained.into()),
                        ("trees_built", prep.trees_built.into()),
                        ("hit_rate", prep.hit_rate().into()),
                    ]),
                ),
            ];
            if let Some(state) = journals.get(d.name()) {
                fields.push((
                    "journal",
                    JsonValue::obj([
                        ("epoch", state.journal.epoch().into()),
                        ("records", state.journal.records().into()),
                        ("recovered_epoch", state.recovered.epoch.into()),
                        ("recovered_batches", state.recovered.batches.into()),
                    ]),
                ));
            }
            JsonValue::obj(fields)
        })
        .collect();
    drop(journals);
    Ok(JsonValue::obj([
        ("threads", ctx.threads.into()),
        ("uptime_ms", millis(ctx.started.elapsed()).into()),
        (
            "connections",
            ctx.connections.load(Ordering::Relaxed).into(),
        ),
        ("requests", ctx.requests.load(Ordering::Relaxed).into()),
        (
            "server",
            JsonValue::obj([
                (
                    "open_connections",
                    ctx.open_connections.load(Ordering::Relaxed).into(),
                ),
                (
                    "queued_requests",
                    ctx.queued_requests.load(Ordering::Relaxed).into(),
                ),
                ("queue_capacity", ctx.queue_capacity.into()),
                ("overloaded", ctx.overloaded.load(Ordering::Relaxed).into()),
                ("panics", ctx.panics.load(Ordering::Relaxed).into()),
                ("journaling", ctx.journal_dir.is_some().into()),
            ]),
        ),
        ("datasets", JsonValue::Arr(per_dataset)),
    ]))
}

fn load_dataset(ctx: &ServerContext, req: &Request) -> Result<JsonValue, WireError> {
    check_keys(&req.params, &["path", "name"])?;
    let path = req_str(&req.params, "path")?;
    let name = match opt_str(&req.params, "name")? {
        Some(n) if !n.is_empty() => n.to_string(),
        Some(_) => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "\"name\" must be non-empty",
            ))
        }
        None => Dataset::name_from_path(std::path::Path::new(path)).ok_or_else(|| {
            WireError::new(
                ErrorCode::BadRequest,
                "cannot derive a dataset name from \"path\"; pass \"name\"",
            )
        })?,
    };
    // Serialize with `update_edges` so journal state and registry entry
    // replace together: a racing batch lands entirely before this load
    // (and is replayed by it, journal permitting) or entirely after,
    // against the freshly loaded dataset. Loads are rare; the guard is
    // not on any query path.
    let _guard = ctx.registry.mutation_guard();
    let (dataset, recovered) = match &ctx.journal_dir {
        Some(dir) => {
            let (dataset, state) = recovery::attach(dir, &name, std::path::Path::new(path))
                .map_err(|e| WireError::new(ErrorCode::LoadFailed, e))?;
            let info = state.recovered;
            ctx.journals().insert(name.clone(), state);
            (dataset, Some(info))
        }
        None => {
            let dataset = Dataset::load(&name, std::path::Path::new(path))
                .map_err(|e| WireError::new(ErrorCode::LoadFailed, e))?;
            (dataset, None)
        }
    };
    let (nodes, edges, keywords) = {
        let g = dataset.engine().graph();
        (g.node_count(), g.edge_count(), g.vocab().len())
    };
    let replaced = ctx.registry.insert(dataset);
    let mut fields: Vec<(&'static str, JsonValue)> = vec![
        ("name", name.into()),
        ("nodes", nodes.into()),
        ("edges", edges.into()),
        ("keywords", keywords.into()),
        ("replaced", replaced.into()),
    ];
    if let Some(info) = recovered {
        fields.push(("recovered_epoch", info.epoch.into()));
        fields.push(("recovered_batches", info.batches.into()));
    }
    Ok(JsonValue::obj(fields))
}

fn query(ctx: &ServerContext, req: &Request, received: Instant) -> Result<JsonValue, WireError> {
    check_keys(
        &req.params,
        &[
            "dataset",
            "from",
            "to",
            "keywords",
            "budget",
            "algo",
            "k",
            "epsilon",
            "beta",
            "alpha",
            "beam",
            "deadline_ms",
        ],
    )?;
    let dataset = resolve(&ctx.registry, opt_str(&req.params, "dataset")?)?;
    let engine = dataset.engine();

    let from = req_u32(&req.params, "from")?;
    let to = req_u32(&req.params, "to")?;
    let budget = req_f64(&req.params, "budget")?;
    let keywords: Vec<String> = match req.params.get("keywords") {
        None => Vec::new(),
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|v| {
                v.as_str().map(str::to_string).ok_or_else(|| {
                    WireError::new(ErrorCode::BadRequest, "\"keywords\" must contain strings")
                })
            })
            .collect::<Result<_, _>>()?,
        Some(_) => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "\"keywords\" must be an array of strings",
            ))
        }
    };
    let algo = opt_str(&req.params, "algo")?.unwrap_or("os-scaling");
    let k = opt_u64(&req.params, "k")?.unwrap_or(1) as usize;
    // `search` rejects k = 0 too; checking here keeps that error ahead
    // of the knob errors below. Untrusted sizes never reach an
    // allocator: an absurd k would otherwise flow into the top-k result
    // set's pre-allocation.
    if k == 0 {
        return Err(engine_error(KorError::InvalidK));
    }
    if k > MAX_K {
        return Err(WireError::new(
            ErrorCode::BadRequest,
            format!("\"k\" must be ≤ {MAX_K}"),
        ));
    }
    // Knobs the request omits take kor-core's `*Params::default()`, the
    // same values every other front end uses; a knob the algorithm
    // never reads is rejected like a typo'd key. An unknown name is
    // held back until the query has been built and counted below.
    let algo = match Algo::from_knobs(
        algo,
        opt_f64(&req.params, "epsilon")?,
        opt_f64(&req.params, "beta")?,
        opt_f64(&req.params, "alpha")?,
        opt_u64(&req.params, "beam")?.map(|b| b as usize),
    ) {
        Err(e @ KorError::UnknownAlgo(_)) => Err(e),
        knobs => Ok(knobs.map_err(engine_error)?),
    };
    // `checked_add` because `Instant + Duration` panics on overflow:
    // an absurd client-supplied deadline_ms (e.g. 1e18) must not kill
    // the request. A deadline past the representable future can never
    // fire, so overflow degrades to "unlimited".
    let deadline = match opt_u64(&req.params, "deadline_ms")? {
        Some(ms) => received.checked_add(Duration::from_millis(ms)),
        None if ctx.default_deadline_ms > 0 => {
            received.checked_add(Duration::from_millis(ctx.default_deadline_ms))
        }
        None => None,
    };

    let graph = engine.graph();
    let query = KorQuery::from_terms(
        graph,
        kor_graph::NodeId(from),
        kor_graph::NodeId(to),
        keywords.iter().map(String::as_str),
        budget,
    )
    .map_err(engine_error)?;

    dataset.note_query();
    let request = SearchRequest {
        algo: algo.map_err(engine_error)?,
        k,
        deadline,
    };
    let outcome = engine.search(&query, &request).map_err(engine_error)?;

    let mut fields: Vec<(&'static str, JsonValue)> = vec![
        ("dataset", dataset.name().into()),
        ("algo", request.algo.name().into()),
        // Which graph generation answered: clients interleaving
        // queries with update_edges use this to tell old-world from
        // new-world responses (each response is wholly one epoch —
        // mutation swaps whole datasets, never edits a live graph).
        ("epoch", dataset.engine().graph().epoch().into()),
        ("feasible", (!outcome.routes.is_empty()).into()),
        (
            "routes",
            JsonValue::Arr(outcome.routes.iter().map(route_json).collect()),
        ),
    ];
    if let Some((covers, within)) = outcome.greedy_flags {
        fields.push(("covers_keywords", covers.into()));
        fields.push(("within_budget", within.into()));
    }
    Ok(JsonValue::obj(fields))
}

/// `update_edges`: applies a mutation batch (closures, reopenings,
/// weight scalings) to a live dataset. The mutated dataset replaces the
/// registry entry atomically — in-flight queries finish on the old
/// graph (reporting the old `epoch`), later ones see the new graph —
/// and the warm caches carry every cached tree across, repaired on this
/// thread before the swap.
fn update_edges(ctx: &ServerContext, req: &Request) -> Result<JsonValue, WireError> {
    check_keys(&req.params, &["dataset", "mutations"])?;
    let items = match req.params.get("mutations") {
        Some(JsonValue::Arr(items)) if !items.is_empty() => items,
        other => {
            let message = match other {
                Some(JsonValue::Arr(_)) => "\"mutations\" must contain at least one mutation",
                Some(_) => "\"mutations\" must be an array",
                None => "missing \"mutations\"",
            };
            return Err(WireError::new(ErrorCode::BadRequest, message));
        }
    };
    let mutations: Vec<_> = items
        .iter()
        .map(mutation_from_json)
        .collect::<Result<_, _>>()?;
    // Serialize batches registry-wide: two batches rebuilding from the
    // same base would silently lose one of them on insert.
    let _guard = ctx.registry.mutation_guard();
    let dataset = resolve(&ctx.registry, opt_str(&req.params, "dataset")?)?;
    let (updated, report) = dataset
        .with_mutations(&mutations)
        .map_err(|e| WireError::new(ErrorCode::BadRequest, e.to_string()))?;
    // Write-ahead: the batch becomes durable before it becomes visible.
    // An append failure leaves the registry untouched — the client gets
    // `journal_error`, the dataset still serves the old epoch, and the
    // batch is safe to retry.
    let journaled = if let Some(dir) = &ctx.journal_dir {
        let mut journals = ctx.journals();
        let state = match journals.entry(dataset.name().to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            // First journaled batch for a dataset that was loaded
            // before journaling (or inserted from memory): checkpoint
            // the current world and bind a fresh journal to it, so
            // recovery never depends on how the dataset arrived.
            std::collections::hash_map::Entry::Vacant(v) => {
                let state = recovery::seed(dir, &dataset)
                    .map_err(|e| WireError::new(ErrorCode::JournalError, e))?;
                v.insert(state)
            }
        };
        state
            .journal
            .append(report.epoch, &mutations)
            .map_err(|e| {
                WireError::new(
                    ErrorCode::JournalError,
                    format!("write-ahead append failed; the batch was NOT applied: {e}"),
                )
            })?;
        true
    } else {
        false
    };
    let edges = updated.engine().graph().edge_count();
    ctx.registry.insert(updated);
    Ok(JsonValue::obj([
        ("dataset", dataset.name().into()),
        ("epoch", report.epoch.into()),
        ("edges", edges.into()),
        ("applied", (mutations.len() as u64).into()),
        ("journaled", journaled.into()),
        ("invalidation", JsonValue::obj(report_fields(&report))),
    ]))
}

/// Renders one route: node ids in order plus exact scores (numbers use
/// shortest round-trip formatting, so equal scores render identically).
fn route_json(r: &RouteResult) -> JsonValue {
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
}

/// Records a caught handler panic and builds the structured
/// `internal_error` the faulty request is answered with. The reactor's
/// per-request `catch_unwind` arm calls this, so every caught panic
/// gets the same response bytes and bumps the `stats` counter.
pub(crate) fn note_panic(ctx: &ServerContext) -> WireError {
    ctx.panics.fetch_add(1, Ordering::Relaxed);
    WireError::new(
        ErrorCode::InternalError,
        "the request handler panicked; the request was not completed (see server \
         logs) — the connection remains usable",
    )
}

fn engine_error(e: KorError) -> WireError {
    match e {
        KorError::DeadlineExceeded => WireError::new(ErrorCode::DeadlineExceeded, e.to_string()),
        other => WireError::new(ErrorCode::BadRequest, other.to_string()),
    }
}

fn resolve(registry: &Registry, name: Option<&str>) -> Result<Arc<Dataset>, WireError> {
    registry.resolve(name).map_err(|e| match e {
        ResolveError::Unknown(n) => WireError::new(
            ErrorCode::UnknownDataset,
            format!("no dataset named {n:?} is loaded"),
        ),
        ResolveError::NoDefault(0) => {
            WireError::new(ErrorCode::UnknownDataset, "no dataset is loaded")
        }
        ResolveError::NoDefault(n) => WireError::new(
            ErrorCode::UnknownDataset,
            format!("{n} datasets are loaded; pass \"dataset\" to pick one"),
        ),
    })
}

fn millis(d: Duration) -> u64 {
    d.as_millis().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::parse_request;
    use kor_graph::fixtures::figure1;

    fn ctx_with_figure1() -> ServerContext {
        let ctx = ServerContext::new(2, 0);
        ctx.registry.insert(Dataset::from_graph("fig1", figure1()));
        ctx
    }

    fn run(ctx: &ServerContext, line: &str) -> Result<JsonValue, WireError> {
        handle(ctx, &parse_request(line).unwrap(), Instant::now())
    }

    #[test]
    fn health_reports_dataset_count() {
        let ctx = ctx_with_figure1();
        let r = run(&ctx, r#"{"method":"health"}"#).unwrap();
        assert_eq!(r.get("status").and_then(JsonValue::as_str), Some("ok"));
        assert_eq!(r.get("datasets").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn query_matches_direct_engine_call() {
        // Example 2 of the paper: Q = ⟨v0, v7, {t1, t2}, 10⟩ ⇒ OS 6, BS 10.
        let ctx = ctx_with_figure1();
        let r = run(
            &ctx,
            r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#,
        )
        .unwrap();
        assert_eq!(r.get("feasible").and_then(JsonValue::as_bool), Some(true));
        let route = &r.get("routes").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            route.get("objective").and_then(JsonValue::as_f64),
            Some(6.0)
        );
        assert_eq!(route.get("budget").and_then(JsonValue::as_f64), Some(10.0));
        let nodes: Vec<u64> = route
            .get("nodes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect();
        assert_eq!(nodes, vec![0, 2, 3, 4, 7]);
        assert_eq!(ctx.registry.get("fig1").unwrap().queries_served(), 1);
    }

    #[test]
    fn all_algorithms_answer() {
        let ctx = ctx_with_figure1();
        for algo in ["os-scaling", "bucket-bound", "exact", "greedy"] {
            let r = run(
                &ctx,
                &format!(
                    r#"{{"method":"query","params":{{"from":0,"to":7,"keywords":["t1"],"budget":10,"algo":"{algo}"}}}}"#
                ),
            )
            .unwrap();
            assert_eq!(
                r.get("feasible").and_then(JsonValue::as_bool),
                Some(true),
                "{algo}"
            );
        }
    }

    #[test]
    fn top_k_returns_sorted_routes() {
        let ctx = ctx_with_figure1();
        let r = run(
            &ctx,
            r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":12,"algo":"bucket-bound","k":3}}"#,
        )
        .unwrap();
        let routes = r.get("routes").unwrap().as_arr().unwrap();
        assert!(!routes.is_empty());
        let objectives: Vec<f64> = routes
            .iter()
            .filter_map(|x| x.get("objective").and_then(JsonValue::as_f64))
            .collect();
        let mut sorted = objectives.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(objectives, sorted);
    }

    #[test]
    fn bad_requests_get_structured_errors() {
        let ctx = ctx_with_figure1();
        for (line, code) in [
            (
                r#"{"method":"query","params":{"from":0,"to":7}}"#,
                ErrorCode::BadRequest, // missing budget
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"frm":1}}"#,
                ErrorCode::BadRequest, // typo'd key
            ),
            (
                r#"{"method":"query","params":{"from":99,"to":7,"budget":5}}"#,
                ErrorCode::BadRequest, // unknown node
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"algo":"dijkstra"}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"k":1000000000000000}}"#,
                ErrorCode::BadRequest, // k beyond the cap must not reach an allocator
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"algo":"os-scaling","beta":5.0}}"#,
                ErrorCode::BadRequest, // beta does not apply to os-scaling
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"algo":"exact","epsilon":0.1}}"#,
                ErrorCode::BadRequest, // exact takes no tuning knobs
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"algo":"greedy","epsilon":0.1}}"#,
                ErrorCode::BadRequest, // epsilon does not apply to greedy
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"algo":"greedy","beam":0}}"#,
                ErrorCode::BadRequest, // beam 0 is rejected, not clamped
            ),
            (
                r#"{"method":"query","params":{"from":0,"to":7,"budget":5,"dataset":"nope"}}"#,
                ErrorCode::UnknownDataset,
            ),
            (r#"{"method":"frobnicate"}"#, ErrorCode::UnknownMethod),
            (
                r#"{"method":"load_dataset","params":{"path":"/nonexistent.korg"}}"#,
                ErrorCode::LoadFailed,
            ),
            (
                r#"{"method":"update_edges","params":{}}"#,
                ErrorCode::BadRequest, // missing mutations
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":[]}}"#,
                ErrorCode::BadRequest, // empty batch
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":"close all"}}"#,
                ErrorCode::BadRequest, // mutations must be an array
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"demolish"}]}}"#,
                ErrorCode::BadRequest, // unknown op
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"close","objective":2.0,"budget":1.0}]}}"#,
                ErrorCode::BadRequest, // close takes no weights
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"scale"}]}}"#,
                ErrorCode::BadRequest, // scale requires both multipliers
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":7,"op":"close"}]}}"#,
                ErrorCode::BadRequest, // no such edge in figure 1
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"scale","objective":1.0,"budget":0.0}]}}"#,
                ErrorCode::BadRequest, // zero multiplier
            ),
            (
                r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"close"},{"from":0,"to":1,"op":"close"}]}}"#,
                ErrorCode::BadRequest, // duplicate pair in one batch
            ),
            (
                r#"{"method":"update_edges","params":{"dataset":"nope","mutations":[{"from":0,"to":1,"op":"close"}]}}"#,
                ErrorCode::UnknownDataset,
            ),
        ] {
            let err = run(&ctx, line).unwrap_err();
            assert_eq!(err.code, code, "{line} -> {}", err.message);
        }
    }

    #[test]
    fn scripts_and_update_edges_reject_a_mutation_in_the_same_words() {
        let ctx = ctx_with_figure1();
        for mutation in [
            r#"{"from":5,"to":7,"op":"close","typo":1}"#,
            r#"{"from":5,"to":7,"op":"close","budget":1}"#,
            r#"{"from":5,"to":7,"op":"scale","objective":2}"#,
            r#"{"from":5,"op":"close"}"#,
            r#"{"from":5,"to":7,"op":"demolish"}"#,
        ] {
            let line =
                format!(r#"{{"method":"update_edges","params":{{"mutations":[{mutation}]}}}}"#);
            let wire = run(&ctx, &line).unwrap_err();
            assert_eq!(wire.code, ErrorCode::BadRequest, "{mutation}");
            let script =
                crate::mutate::script_from_json(&format!(r#"{{"phases":[[{mutation}]]}}"#))
                    .unwrap_err();
            assert_eq!(script, format!("script phase 0: {}", wire.message));
        }
    }

    #[test]
    fn update_edges_swaps_the_dataset_and_reports_invalidation() {
        let ctx = ctx_with_figure1();
        // Warm the cache, then close the v5 -> v7 detour: the optimal
        // route for Example 2 avoids it, so the answer must not change.
        let query = r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#;
        let before = run(&ctx, query).unwrap();
        assert_eq!(before.get("epoch").and_then(JsonValue::as_u64), Some(0));

        let r = run(
            &ctx,
            r#"{"method":"update_edges","params":{"dataset":"fig1","mutations":[{"from":5,"to":7,"op":"close"}]}}"#,
        )
        .unwrap();
        assert_eq!(r.get("epoch").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(r.get("edges").and_then(JsonValue::as_u64), Some(11));
        assert_eq!(r.get("applied").and_then(JsonValue::as_u64), Some(1));
        assert!(r.get("router").is_none());
        let inv = r.get("invalidation").expect("invalidation counters");
        let count = |key| inv.get(key).and_then(JsonValue::as_u64).unwrap();
        // v7 is the only warmed target and its σ tree ran through the
        // closed edge: the context is carried, repaired, not evicted.
        assert_eq!(count("contexts_evicted"), 0);
        assert_eq!(count("contexts_retained"), 1);
        assert!(count("trees_repaired") >= 1);
        assert_eq!(count("trees_rebuilt"), 0);

        let after = run(&ctx, query).unwrap();
        assert_eq!(after.get("epoch").and_then(JsonValue::as_u64), Some(1));
        for key in ["feasible", "routes"] {
            assert_eq!(before.get(key), after.get(key), "{key}");
        }
        // The query counter survives the swap: 2 queries + 0 for the
        // mutation itself.
        assert_eq!(ctx.registry.get("fig1").unwrap().queries_served(), 2);

        // Reopen with the original weights restores epoch-0 behavior on
        // a third-generation graph.
        run(
            &ctx,
            r#"{"method":"update_edges","params":{"mutations":[{"from":5,"to":7,"op":"reopen","objective":4.0,"budget":1.0}]}}"#,
        )
        .unwrap();
        let restored = run(&ctx, query).unwrap();
        assert_eq!(restored.get("epoch").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(before.get("routes"), restored.get("routes"));
    }

    #[test]
    fn unknown_algo_is_rejected_after_the_query_is_built_and_counted() {
        let ctx = ctx_with_figure1();
        let query = |extra: &str| {
            let line = format!(
                r#"{{"method":"query","params":{{"from":0,"to":7,"budget":5,"algo":"dijkstra"{extra}}}}}"#
            );
            run(&ctx, &line).unwrap_err().message
        };
        assert_eq!(
            query(r#","deadline_ms":-1"#),
            "\"deadline_ms\" must be a non-negative integer"
        );
        assert!(query(r#","keywords":["nosuch"]"#).contains("nosuch"));
        let served = || ctx.registry.get("fig1").unwrap().queries_served();
        assert_eq!(served(), 0);
        assert_eq!(
            query(""),
            "unknown algo \"dijkstra\" (expected os-scaling, bucket-bound, exact, or greedy)"
        );
        assert_eq!(served(), 1);
    }

    #[test]
    fn stats_reports_epoch_and_invalidation_counters() {
        let ctx = ctx_with_figure1();
        run(
            &ctx,
            r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"scale","objective":1.0,"budget":2.0}]}}"#,
        )
        .unwrap();
        let r = run(&ctx, r#"{"method":"stats"}"#).unwrap();
        let ds = &r.get("datasets").unwrap().as_arr().unwrap()[0];
        assert_eq!(ds.get("epoch").and_then(JsonValue::as_u64), Some(1));
        let prep = ds.get("prep_cache").expect("prep cache stats");
        assert!(prep
            .get("invalidated")
            .and_then(JsonValue::as_u64)
            .is_some());
        assert!(prep.get("retained").and_then(JsonValue::as_u64).is_some());
    }

    #[test]
    fn relevant_knobs_are_accepted() {
        let ctx = ctx_with_figure1();
        for params in [
            r#""algo":"os-scaling","epsilon":0.3,"k":2"#,
            r#""algo":"bucket-bound","epsilon":0.3,"beta":1.5"#,
            // A β this close to 1 makes bucket indices around 10⁹.
            r#""algo":"bucket-bound","beta":1.000000001"#,
            r#""algo":"greedy","alpha":0.7,"beam":2"#,
            r#""algo":"exact","deadline_ms":60000"#,
        ] {
            let line = format!(
                r#"{{"method":"query","params":{{"from":0,"to":7,"keywords":["t1"],"budget":10,{params}}}}}"#
            );
            let r = run(&ctx, &line).unwrap_or_else(|e| panic!("{params}: {}", e.message));
            assert_eq!(
                r.get("feasible").and_then(JsonValue::as_bool),
                Some(true),
                "{params}"
            );
        }
    }

    #[test]
    fn absurd_deadline_is_unlimited_not_a_panic() {
        // Instant + Duration panics on overflow; an enormous
        // deadline_ms must degrade to "no deadline", not take down the
        // worker (or, unguarded, the connection).
        let ctx = ctx_with_figure1();
        let r = run(
            &ctx,
            r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1"],"budget":10,"deadline_ms":1000000000000000000}}"#,
        )
        .unwrap();
        assert_eq!(r.get("feasible").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn expired_deadline_maps_to_deadline_exceeded() {
        let ctx = ctx_with_figure1();
        let err = run(
            &ctx,
            r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"deadline_ms":0}}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    }

    #[test]
    fn default_deadline_applies_when_request_has_none() {
        let ctx = ServerContext::new(1, 1);
        ctx.registry.insert(Dataset::from_graph("fig1", figure1()));
        // Pretend the request arrived long ago: the 1 ms default deadline
        // has passed by the time the search starts.
        let req = parse_request(
            r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10}}"#,
        )
        .unwrap();
        let long_ago = Instant::now()
            .checked_sub(Duration::from_secs(1))
            .expect("monotonic clock is past 1s");
        let err = handle(&ctx, &req, long_ago).unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    }

    #[test]
    fn shutdown_sets_the_latch() {
        let ctx = ctx_with_figure1();
        assert!(!ctx.shutdown.load(Ordering::SeqCst));
        let r = run(&ctx, r#"{"method":"shutdown"}"#).unwrap();
        assert_eq!(r.get("stopping").and_then(JsonValue::as_bool), Some(true));
        assert!(ctx.shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn stats_reports_graph_shape() {
        let ctx = ctx_with_figure1();
        run(
            &ctx,
            r#"{"method":"query","params":{"from":0,"to":7,"budget":10,"algo":"greedy"}}"#,
        )
        .unwrap();
        let r = run(&ctx, r#"{"method":"stats"}"#).unwrap();
        let ds = &r.get("datasets").unwrap().as_arr().unwrap()[0];
        assert_eq!(ds.get("name").and_then(JsonValue::as_str), Some("fig1"));
        assert_eq!(ds.get("nodes").and_then(JsonValue::as_u64), Some(8));
        assert_eq!(
            ds.get("queries_served").and_then(JsonValue::as_u64),
            Some(1)
        );
        // The named-dataset filter returns the same entry.
        let one = run(&ctx, r#"{"method":"stats","params":{"dataset":"fig1"}}"#).unwrap();
        assert_eq!(one.get("datasets").unwrap().as_arr().unwrap().len(), 1);
    }

    #[test]
    fn stats_reports_preprocess_cache_counters() {
        let ctx = ctx_with_figure1();
        let query =
            r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10}}"#;
        run(&ctx, query).unwrap();
        run(&ctx, query).unwrap();
        let r = run(&ctx, r#"{"method":"stats"}"#).unwrap();
        let prep = r.get("datasets").unwrap().as_arr().unwrap()[0]
            .get("prep_cache")
            .expect("prep_cache object");
        // First query misses and builds the v7 context; the repeat hits.
        assert_eq!(prep.get("ctx_misses").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(prep.get("ctx_hits").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(prep.get("contexts").and_then(JsonValue::as_u64), Some(1));
        assert!(prep.get("trees_built").and_then(JsonValue::as_u64) >= Some(2));
        assert!(prep.get("hit_rate").and_then(JsonValue::as_f64) > Some(0.0));
    }

    #[test]
    fn load_dataset_round_trips_a_saved_graph() {
        let dir = std::env::temp_dir().join(format!("kor-serve-handler-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.korg");
        kor_data::save_graph(&path, &figure1()).unwrap();

        let ctx = ServerContext::new(1, 0);
        let line = format!(
            r#"{{"method":"load_dataset","params":{{"path":{}}}}}"#,
            JsonValue::from(path.to_str().unwrap()).render()
        );
        let r = run(&ctx, &line).unwrap();
        assert_eq!(r.get("name").and_then(JsonValue::as_str), Some("fig1"));
        assert_eq!(r.get("nodes").and_then(JsonValue::as_u64), Some(8));
        assert_eq!(r.get("replaced").and_then(JsonValue::as_bool), Some(false));
        // Loading again under the same (derived) name replaces.
        let r2 = run(&ctx, &line).unwrap();
        assert_eq!(r2.get("replaced").and_then(JsonValue::as_bool), Some(true));
        std::fs::remove_dir_all(&dir).ok();
    }
}
