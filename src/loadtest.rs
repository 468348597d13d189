//! `kor loadtest` — closed-loop throughput measurement of `kor serve`.
//!
//! Spawns an in-process server, loads it with a `.korbin` snapshot, and
//! hammers it with the snapshot's canned queries from a fleet of
//! closed-loop keep-alive clients: each client holds one connection,
//! sends a request, waits for the response, thinks for a few
//! milliseconds, repeats. The think time keeps most connections idle
//! most of the time — the regime the event reactor is built for: it
//! multiplexes every client and keeps the workers busy with actual
//! requests.
//!
//! Clients are robust to a server under pressure: a refused connect or
//! an `overloaded` response is retried with deterministic jittered
//! exponential backoff (bounded attempts, then the client gives up on
//! that request and moves on); the report counts `retries` and
//! `gave_up` so saturation is visible rather than silently smoothed
//! over.
//!
//! The report is written to `BENCH_serve.json` (schema documented in
//! `docs/ARCHITECTURE.md`): QPS, p50/p95/p99/max latency, error,
//! `overloaded`, `retries`, and `gave_up` counts, connection counts,
//! and the server's own `stats.server` section.
//! Any response that is neither `ok` nor an `overloaded` error fails
//! the run — under a well-formed canned workload the server has no
//! excuse for one, so CI treats it as a protocol regression.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kor_data::snapshot::Snapshot;

use crate::json::JsonValue;
use crate::percentile::LatencySummary;
use crate::serve::registry::Dataset;
use crate::serve::{ServeConfig, Server};

/// Configuration for [`run_loadtest`].
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Server worker threads.
    pub threads: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Measurement window (after warmup).
    pub duration: Duration,
    /// Ramp-up excluded from the counts: connections settle and caches
    /// warm.
    pub warmup: Duration,
    /// Per-client pause between a response and the next request.
    pub think: Duration,
    /// Report path.
    pub out: PathBuf,
}

impl Default for LoadtestConfig {
    /// 2 server threads, 16 clients, 4 s measured after 500 ms warmup,
    /// 5 ms think time, report to `BENCH_serve.json`.
    fn default() -> Self {
        Self {
            threads: 2,
            clients: 16,
            duration: Duration::from_secs(4),
            warmup: Duration::from_millis(500),
            think: Duration::from_millis(5),
            out: PathBuf::from("BENCH_serve.json"),
        }
    }
}

impl LoadtestConfig {
    /// CI-sized run: same shape as the default, shorter windows.
    pub fn smoke() -> Self {
        Self {
            duration: Duration::from_millis(1500),
            warmup: Duration::from_millis(300),
            ..Self::default()
        }
    }
}

/// Per-client outcome counters.
#[derive(Debug, Default)]
struct ClientTally {
    /// Successful responses inside the measurement window.
    ok: u64,
    /// `overloaded` error responses (expected under saturation).
    overloaded: u64,
    /// Any other error response — a protocol regression under a canned
    /// workload; fails the run.
    other_errors: u64,
    /// Connect failures, timeouts, resets; each costs a reconnect.
    io_errors: u64,
    /// Backoff retries taken (connect refused or `overloaded`).
    retries: u64,
    /// Requests abandoned after the backoff attempt budget ran out.
    gave_up: u64,
    /// Connections opened.
    connections: u64,
    /// Latencies of `ok` responses inside the window, in ms.
    latencies_ms: Vec<f64>,
    /// First non-`overloaded` error response seen, verbatim.
    sample_error: Option<String>,
}

impl ClientTally {
    fn merge(&mut self, other: ClientTally) {
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.other_errors += other.other_errors;
        self.io_errors += other.io_errors;
        self.retries += other.retries;
        self.gave_up += other.gave_up;
        self.connections += other.connections;
        self.latencies_ms.extend(other.latencies_ms);
        if self.sample_error.is_none() {
            self.sample_error = other.sample_error;
        }
    }
}

/// Retry budget per request/connect before a client gives up and moves
/// on. With the 2 ms base doubling to a 128 ms cap this bounds one
/// request's retry tail to roughly half a second.
const BACKOFF_ATTEMPTS: u32 = 8;

/// Jittered exponential backoff with a bounded attempt budget. The
/// jitter is deterministic — a per-client LCG, because the loadtest has
/// no randomness source and its reports must be reproducible — but
/// still de-synchronizes the fleet: each client walks a different
/// pseudo-random delay sequence, so a burst refused together does not
/// retry together.
struct Backoff {
    attempt: u32,
    rng: u64,
}

impl Backoff {
    fn new(seed: u64) -> Backoff {
        Backoff {
            attempt: 0,
            // Odd multiplier spreads consecutive small seeds (client
            // indices) across the LCG's state space.
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next delay (base 2 ms doubling to 128 ms, plus up-to-100% LCG
    /// jitter), or `None` once the attempt budget is spent.
    fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= BACKOFF_ATTEMPTS {
            return None;
        }
        let base_ms = 2u64 << self.attempt.min(6);
        self.attempt += 1;
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter = (self.rng >> 33) % base_ms;
        Some(Duration::from_millis(base_ms + jitter))
    }

    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Everything one client needs besides the shared request lines and
/// stop flag.
struct ClientSpec {
    addr: SocketAddr,
    /// Starting offset into the canned request lines.
    cursor: usize,
    /// Seed for this client's backoff jitter stream.
    seed: u64,
    measure_from: Instant,
    think: Duration,
    read_timeout: Duration,
}

/// One closed-loop client: keep-alive connection, one request in
/// flight, think time between requests. Round-robins through the canned
/// request lines starting at its own offset. Connect refusals and
/// `overloaded` responses are retried with [`Backoff`]; once the
/// attempt budget is spent the client gives up on that request (or
/// connect round) and moves on.
fn client_loop(spec: &ClientSpec, lines: &[String], stop: &AtomicBool) -> ClientTally {
    let ClientSpec {
        addr,
        mut cursor,
        seed,
        measure_from,
        think,
        read_timeout,
    } = *spec;
    let mut tally = ClientTally::default();
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    let mut backoff = Backoff::new(seed);
    while !stop.load(Ordering::Relaxed) {
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(read_timeout));
                    match stream.try_clone() {
                        Ok(clone) => {
                            tally.connections += 1;
                            backoff.reset();
                            conn = Some((stream, BufReader::new(clone)));
                        }
                        Err(_) => {
                            tally.io_errors += 1;
                        }
                    }
                }
                Err(_) => {
                    tally.io_errors += 1;
                    match backoff.next_delay() {
                        Some(delay) => {
                            tally.retries += 1;
                            std::thread::sleep(delay);
                        }
                        None => {
                            tally.gave_up += 1;
                            backoff.reset();
                            std::thread::sleep(think.max(Duration::from_millis(1)));
                        }
                    }
                    continue;
                }
            }
        }
        let Some((stream, reader)) = conn.as_mut() else {
            continue;
        };
        let line = &lines[cursor % lines.len()];
        let sent = Instant::now();
        let outcome: Result<String, ()> = (|| {
            stream.write_all(line.as_bytes()).map_err(|_| ())?;
            stream.write_all(b"\n").map_err(|_| ())?;
            let mut resp = String::new();
            match reader.read_line(&mut resp) {
                Ok(0) | Err(_) => Err(()),
                Ok(_) => Ok(resp),
            }
        })();
        match outcome {
            Err(()) => {
                // Timeout, reset, or orderly close: reconnect.
                tally.io_errors += 1;
                cursor += 1;
                conn = None;
            }
            Ok(resp) => {
                let done = Instant::now();
                match classify(&resp) {
                    Reply::Ok => {
                        if done >= measure_from {
                            tally.ok += 1;
                            tally
                                .latencies_ms
                                .push(done.duration_since(sent).as_secs_f64() * 1e3);
                        }
                        backoff.reset();
                        cursor += 1;
                    }
                    Reply::Overloaded => {
                        tally.overloaded += 1;
                        // Retry the SAME request after a backoff; give
                        // up on it (cursor advances) once the budget is
                        // spent.
                        match backoff.next_delay() {
                            Some(delay) => {
                                tally.retries += 1;
                                std::thread::sleep(delay);
                                continue;
                            }
                            None => {
                                tally.gave_up += 1;
                                backoff.reset();
                                cursor += 1;
                            }
                        }
                    }
                    Reply::Other => {
                        tally.other_errors += 1;
                        tally
                            .sample_error
                            .get_or_insert_with(|| resp.trim_end().to_string());
                        cursor += 1;
                    }
                }
            }
        }
        std::thread::sleep(think);
    }
    tally
}

enum Reply {
    Ok,
    Overloaded,
    Other,
}

fn classify(resp: &str) -> Reply {
    match JsonValue::parse(resp.trim()) {
        Ok(v) if v.get("ok").and_then(JsonValue::as_bool) == Some(true) => Reply::Ok,
        Ok(v)
            if v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_str)
                == Some("overloaded") =>
        {
            Reply::Overloaded
        }
        _ => Reply::Other,
    }
}

/// Renders the snapshot's canned queries as wire request lines
/// (`method: query` against the dataset `name`, default algorithm).
fn request_lines(world: &Snapshot, name: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for set in &world.query_sets {
        for q in &set.queries {
            let keywords: Vec<JsonValue> = q
                .keywords
                .iter()
                .filter_map(|&kw| world.graph.vocab().resolve(kw))
                .map(JsonValue::from)
                .collect();
            let params = JsonValue::obj([
                ("dataset", name.into()),
                ("from", u64::from(q.source.0).into()),
                ("to", u64::from(q.target.0).into()),
                ("keywords", JsonValue::Arr(keywords)),
                ("budget", q.budget.into()),
            ]);
            let req = JsonValue::obj([
                ("id", (lines.len() as u64).into()),
                ("method", "query".into()),
                ("params", params),
            ]);
            lines.push(req.render());
        }
    }
    lines
}

/// The merged latency samples' summary; `null` when there are none.
fn latency_json(ms: Vec<f64>) -> JsonValue {
    LatencySummary::of(ms).map_or(JsonValue::Null, |l| {
        JsonValue::obj([
            ("p50", l.p50.into()),
            ("p95", l.p95.into()),
            ("p99", l.p99.into()),
            ("max", l.max.into()),
        ])
    })
}

/// Asks the (still running) server for its own view of the run.
fn fetch_server_stats(addr: SocketAddr) -> Option<JsonValue> {
    let mut conn = TcpStream::connect(addr).ok()?;
    conn.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    conn.write_all(b"{\"id\":\"stats\",\"method\":\"stats\"}\n")
        .ok()?;
    let mut resp = String::new();
    BufReader::new(conn).read_line(&mut resp).ok()?;
    JsonValue::parse(resp.trim())
        .ok()?
        .get("result")
        .and_then(|r| r.get("server"))
        .cloned()
}

/// Boots a server on an ephemeral port, runs the client fleet against
/// it, and returns the merged tally plus the server's `stats.server`
/// section.
fn run_clients(world: &Snapshot, cfg: &LoadtestConfig) -> Result<(ClientTally, JsonValue), String> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: cfg.threads,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    server
        .registry()
        .insert(Dataset::from_graph("world", world.graph.clone()));
    let addr = server.local_addr();
    let handle = server.start();

    let lines = Arc::new(request_lines(world, "world"));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let measure_from = start + cfg.warmup;
    // Generous enough that a stalled request times out and retries
    // rather than hanging to the end of the run; short enough that
    // several retries fit in the window.
    let read_timeout = Duration::from_millis(750);
    let mut clients = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let lines = Arc::clone(&lines);
        let stop = Arc::clone(&stop);
        let think = cfg.think;
        clients.push(std::thread::spawn(move || {
            let spec = ClientSpec {
                addr,
                cursor: c * 7, // spread clients across the canned set
                seed: c as u64 + 1,
                measure_from,
                think,
                read_timeout,
            };
            client_loop(&spec, &lines, &stop)
        }));
    }
    std::thread::sleep(cfg.warmup + cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut tally = ClientTally::default();
    for t in clients {
        tally.merge(t.join().map_err(|_| "client thread panicked")?);
    }
    let server_stats = fetch_server_stats(addr).unwrap_or(JsonValue::Null);
    handle.shutdown();
    Ok((tally, server_stats))
}

/// Runs the full loadtest over an in-memory snapshot and returns the
/// report (no file written) — the library entry point the CLI and the
/// tests share.
///
/// Fails if the snapshot cans no queries, if any client saw a response
/// that was neither `ok` nor `overloaded`, or if the run completed zero
/// requests.
pub fn run_loadtest(world: &Snapshot, cfg: &LoadtestConfig) -> Result<JsonValue, String> {
    if world.query_count() == 0 {
        return Err(
            "snapshot holds no canned queries (generate one with `kor gen`, or can a \
             workload with `kor ingest --per-set`)"
                .into(),
        );
    }
    let (tally, server_stats) = run_clients(world, cfg)?;
    if tally.other_errors > 0 {
        return Err(format!(
            "{} non-overloaded error responses, e.g.: {}",
            tally.other_errors,
            tally.sample_error.as_deref().unwrap_or("<lost>")
        ));
    }
    if tally.ok == 0 {
        return Err(format!(
            "no successful responses ({} io errors)",
            tally.io_errors
        ));
    }
    let qps = tally.ok as f64 / cfg.duration.as_secs_f64();
    Ok(JsonValue::obj([
        ("created_by", "kor loadtest".into()),
        (
            "dataset",
            JsonValue::obj([
                ("nodes", world.graph.node_count().into()),
                ("edges", world.graph.edge_count().into()),
                ("keywords", world.graph.vocab().len().into()),
                ("canned_queries", world.query_count().into()),
            ]),
        ),
        (
            "config",
            JsonValue::obj([
                ("threads", cfg.threads.into()),
                ("clients", cfg.clients.into()),
                ("duration_ms", (cfg.duration.as_millis() as u64).into()),
                ("warmup_ms", (cfg.warmup.as_millis() as u64).into()),
                ("think_ms", (cfg.think.as_millis() as u64).into()),
            ]),
        ),
        ("qps", qps.into()),
        ("requests_ok", tally.ok.into()),
        ("overloaded", tally.overloaded.into()),
        ("other_errors", tally.other_errors.into()),
        ("io_errors", tally.io_errors.into()),
        ("retries", tally.retries.into()),
        ("gave_up", tally.gave_up.into()),
        ("connections", tally.connections.into()),
        ("latency_ms", latency_json(tally.latencies_ms)),
        ("server", server_stats),
    ]))
}

/// CLI entry point: loads the snapshot from `path`, runs the loadtest,
/// writes the report to `cfg.out`, and returns the report.
pub fn run_loadtest_to_file(path: &Path, cfg: &LoadtestConfig) -> Result<JsonValue, String> {
    let world = kor_data::read_world_auto(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = run_loadtest(&world, cfg)?;
    std::fs::write(&cfg.out, report.render() + "\n")
        .map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gen::{generate_world, GenConfig};

    fn tiny_world() -> Snapshot {
        generate_world(&GenConfig::grid(5, 4, 11))
    }

    #[test]
    fn request_lines_cover_every_canned_query() {
        let world = tiny_world();
        let lines = request_lines(&world, "world");
        assert_eq!(lines.len(), world.query_count());
        for line in &lines {
            let v = JsonValue::parse(line).unwrap();
            assert_eq!(v.get("method").and_then(JsonValue::as_str), Some("query"));
            let params = v.get("params").unwrap();
            assert_eq!(
                params.get("dataset").and_then(JsonValue::as_str),
                Some("world")
            );
            assert!(params.get("budget").and_then(JsonValue::as_f64).unwrap() > 0.0);
        }
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let v = latency_json((1..=100).map(f64::from).collect());
        let p50 = v.get("p50").and_then(JsonValue::as_f64).unwrap();
        let p95 = v.get("p95").and_then(JsonValue::as_f64).unwrap();
        let p99 = v.get("p99").and_then(JsonValue::as_f64).unwrap();
        let max = v.get("max").and_then(JsonValue::as_f64).unwrap();
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert_eq!(max, 100.0);
        assert!(matches!(latency_json(Vec::new()), JsonValue::Null));
    }

    #[test]
    fn backoff_is_bounded_jittered_and_deterministic() {
        let mut b = Backoff::new(3);
        let mut delays = Vec::new();
        while let Some(d) = b.next_delay() {
            delays.push(d.as_millis() as u64);
        }
        assert_eq!(delays.len() as u32, BACKOFF_ATTEMPTS, "budget is bounded");
        for (i, &d) in delays.iter().enumerate() {
            let base = 2u64 << (i as u32).min(6);
            assert!(d >= base && d < 2 * base, "attempt {i}: {d} vs base {base}");
        }
        assert!(b.next_delay().is_none(), "spent budget stays spent");
        b.reset();
        assert!(b.next_delay().is_some(), "reset restores the budget");
        // Same seed, same sequence; different seeds diverge somewhere.
        let seq = |seed| {
            let mut b = Backoff::new(seed);
            std::iter::from_fn(move || b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(seq(3), seq(3));
        assert_ne!(seq(1), seq(2), "clients must not retry in lockstep");
    }

    #[test]
    fn quick_event_run_produces_a_report() {
        let world = tiny_world();
        let cfg = LoadtestConfig {
            threads: 1,
            clients: 4,
            duration: Duration::from_millis(400),
            warmup: Duration::from_millis(100),
            think: Duration::from_millis(2),
            ..LoadtestConfig::default()
        };
        let report = run_loadtest(&world, &cfg).unwrap();
        assert!(report.get("qps").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert_eq!(
            report.get("other_errors").and_then(JsonValue::as_u64),
            Some(0)
        );
        // The retry counters are always reported, zero on a calm run.
        assert!(report.get("retries").and_then(JsonValue::as_u64).is_some());
        assert!(report.get("gave_up").and_then(JsonValue::as_u64).is_some());
        let lat = report.get("latency_ms").unwrap();
        assert!(lat.get("p50").and_then(JsonValue::as_f64).unwrap() > 0.0);
        assert!(
            report.get("modes").is_none(),
            "one run, fields at top level"
        );
    }
}
