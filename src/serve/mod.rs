//! `kor serve` — a concurrent TCP query service over warm engines.
//!
//! The paper frames KOR as an interactive query ("identify a preferable
//! route" for a traveler), but one-shot CLI runs rebuild the graph,
//! inverted index (§3.1), and pre-processing for every question. This
//! module keeps them warm: datasets are loaded once into a
//! [`registry::Registry`], each with one shared
//! [`kor_core::KorEngine`], and a fixed pool of worker threads answers
//! requests against them over plain TCP.
//!
//! One readiness-driven reactor thread (`event`) multiplexes every
//! connection, supporting keep-alive and pipelining with per-request
//! overload backpressure; workers only ever run individual requests.
//!
//! The wire protocol is newline-delimited JSON — one request object per
//! line, one response per line, in order. Supported methods: `query`
//! (algorithm selectable: `os-scaling`, `bucket-bound`, `exact`,
//! `greedy`, with top-k variants), `load_dataset`, `stats`, `health`,
//! and `shutdown`, with per-request deadlines and structured error
//! responses. The full contract, including a live transcript, is in
//! `docs/PROTOCOL.md`. Everything here is `std` plus one libc
//! declaration, `poll(2)`, which the event reactor blocks in (the
//! environment vendors no async runtime, and this workload — CPU-bound
//! searches on a bounded pool — does not miss one).
//!
//! # Example
//!
//! Start a server on an ephemeral port, ask it the paper's Example 2
//! query, and shut it down:
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//!
//! use kor::serve::registry::Dataset;
//! use kor::serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     threads: 2,
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! server
//!     .registry()
//!     .insert(Dataset::from_graph("fig1", kor::graph::fixtures::figure1()));
//! let addr = server.local_addr();
//! let handle = server.start();
//!
//! let mut conn = TcpStream::connect(addr).unwrap();
//! conn.write_all(
//!     b"{\"id\":1,\"method\":\"query\",\"params\":\
//!       {\"from\":0,\"to\":7,\"keywords\":[\"t1\",\"t2\"],\"budget\":10}}\n",
//! )
//! .unwrap();
//! let mut line = String::new();
//! BufReader::new(conn.try_clone().unwrap())
//!     .read_line(&mut line)
//!     .unwrap();
//! assert!(line.contains("\"ok\":true"), "{line}");
//! assert!(line.contains("\"objective\":6"), "{line}");
//! handle.shutdown();
//! ```

mod event;
mod handler;
pub mod protocol;
pub mod recovery;
pub mod registry;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

use event::CompletionBus;
use handler::ServerContext;
use registry::Registry;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`; port `0` picks an
    /// ephemeral port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool size; `0` means one worker per available core. It
    /// bounds concurrently *executing* requests, not open connections.
    pub threads: usize,
    /// Backpressure-queue capacity — waiting request lines past which
    /// the server answers `overloaded`. `0` means auto: `threads × 16`.
    pub queue_capacity: usize,
    /// Deadline in milliseconds applied to `query` requests that carry
    /// no `deadline_ms` of their own; `0` means unlimited.
    pub default_deadline_ms: u64,
    /// Maximum request-line length in bytes; longer lines are answered
    /// with a `request_too_large` error and the connection is closed.
    pub max_request_bytes: usize,
    /// Directory for per-dataset write-ahead mutation journals (and
    /// their checkpoints). When set, `update_edges` batches are made
    /// durable before they are applied, and dataset loads replay any
    /// surviving journal — see `docs/OPERATIONS.md`. `None` (the
    /// default) serves purely in memory.
    pub journal: Option<PathBuf>,
}

impl Default for ServeConfig {
    /// Localhost port 7878, auto-sized pool and queue, no default
    /// deadline, 1 MiB request cap.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            queue_capacity: 0,
            default_deadline_ms: 0,
            max_request_bytes: 1 << 20,
            journal: None,
        }
    }
}

/// A bound (but not yet serving) server: the listener socket exists, so
/// [`Server::local_addr`] is final, and datasets can be preloaded via
/// [`Server::registry`] before the first connection is accepted.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    ctx: Arc<ServerContext>,
    /// The event layer's completion bus, created at bind so that failing
    /// to open its wake channel is a bind error, not a panic in
    /// [`Server::start`].
    bus: Arc<CompletionBus>,
}

impl Server {
    /// Binds the listen socket and prepares the shared state.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = if config.threads > 0 {
            config.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let mut ctx = ServerContext::new(threads, config.default_deadline_ms);
        ctx.max_request_bytes = config.max_request_bytes;
        ctx.journal_dir = config.journal;
        ctx.queue_capacity = if config.queue_capacity > 0 {
            config.queue_capacity
        } else {
            // Workers turn over per request, not per connection, so the
            // queue can afford to be deep before a queued request waits
            // unreasonably long.
            threads * 16
        };
        Ok(Server {
            listener,
            addr,
            ctx: Arc::new(ctx),
            bus: Arc::new(CompletionBus::new()?),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The dataset registry, for preloading datasets before
    /// [`Server::start`] (requests can also load them later via the
    /// `load_dataset` method).
    pub fn registry(&self) -> &Registry {
        &self.ctx.registry
    }

    /// Loads — or, when journaling is configured, *recovers* — the
    /// dataset at `path` and registers it under `name`: exactly what a
    /// `load_dataset` request does, exposed for CLI preloading before
    /// [`Server::start`]. With a journal directory set, any surviving
    /// journal for `name` is replayed over the file (or its newest
    /// checkpoint) and the result reported; without one this is
    /// [`registry::Dataset::load`] plus an insert.
    pub fn attach_dataset(
        &self,
        name: &str,
        path: &Path,
    ) -> Result<Option<recovery::RecoveryInfo>, String> {
        let _guard = self.ctx.registry.mutation_guard();
        match &self.ctx.journal_dir {
            Some(dir) => {
                let (dataset, state) = recovery::attach(dir, name, path)?;
                let info = state.recovered;
                self.ctx.journals().insert(name.to_string(), state);
                self.ctx.registry.insert(dataset);
                Ok(Some(info))
            }
            None => {
                self.ctx
                    .registry
                    .insert(registry::Dataset::load(name, path)?);
                Ok(None)
            }
        }
    }

    /// Spawns the reactor and worker threads and returns a handle for
    /// shutdown/join. One reactor thread multiplexes every socket;
    /// workers execute individual requests from a bounded job queue.
    pub fn start(self) -> ServerHandle {
        let queue = Arc::new(event::JobQueue::new(self.ctx.queue_capacity));
        let mut workers = Vec::with_capacity(self.ctx.threads);
        for i in 0..self.ctx.threads {
            let queue = Arc::clone(&queue);
            let bus = Arc::clone(&self.bus);
            let ctx = Arc::clone(&self.ctx);
            workers.push(spawn_named(format!("kor-worker-{i}"), move || {
                event::worker_loop(&queue, &bus, &ctx)
            }));
        }
        let ctx = Arc::clone(&self.ctx);
        let listener = self.listener;
        let bus = Arc::clone(&self.bus);
        let reactor = spawn_named("kor-reactor".to_string(), move || {
            event::run(listener, ctx, queue, bus)
        });
        ServerHandle {
            addr: self.addr,
            ctx: self.ctx,
            bus: self.bus,
            workers,
            reactor,
        }
    }

    /// Convenience for the CLI: start and serve until a `shutdown`
    /// request arrives.
    pub fn run(self) {
        self.start().join();
    }
}

/// Spawns a server thread under `name`, so panic messages and
/// per-thread tools such as `top -H` say which thread it was. Like
/// `std::thread::spawn`, panics if the OS cannot create the thread.
fn spawn_named(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("failed to spawn server thread")
}

/// Handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerContext>,
    /// Its wake channel interrupts the event reactor's `poll(2)`.
    bus: Arc<CompletionBus>,
    workers: Vec<JoinHandle<()>>,
    reactor: JoinHandle<()>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the reactor and every worker to
    /// finish. Responses to requests already accepted are flushed
    /// first, within the reactor's drain grace period.
    pub fn shutdown(self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // The reactor may be blocked in an untimed poll; wake it to see
        // the latch.
        self.bus.wake();
        self.join();
    }

    /// Waits until the server stops — either via [`ServerHandle`] (from
    /// another thread: [`ServerHandle::shutdown`]) or a `shutdown`
    /// request over the wire.
    pub fn join(self) {
        let _ = self.reactor.join();
        for w in self.workers {
            let _ = w.join();
        }
        // Last act of a graceful stop: every journal fsynced. Appends
        // already sync record by record, so this only matters for
        // surfacing late errors — but a drain that loses acknowledged
        // batches would be a lie, so be explicit.
        self.ctx.sync_journals();
    }
}

#[cfg(test)]
mod tests {
    use super::registry::Dataset;
    use super::*;
    use crate::json::JsonValue;
    use kor_graph::fixtures::figure1;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn fixture_server(threads: usize) -> (SocketAddr, ServerHandle) {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            ..ServeConfig::default()
        })
        .unwrap();
        server
            .registry()
            .insert(Dataset::from_graph("fig1", figure1()));
        let addr = server.local_addr();
        (addr, server.start())
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut out = Vec::new();
        for line in lines {
            conn.write_all(line.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            out.push(resp.trim_end().to_string());
        }
        out
    }

    #[test]
    fn concurrent_identical_queries_get_identical_bytes() {
        let (addr, handle) = fixture_server(3);
        let line = r#"{"id":9,"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#;
        let mut threads = Vec::new();
        for _ in 0..8 {
            threads.push(std::thread::spawn(move || {
                roundtrip(addr, &[line]).remove(0)
            }));
        }
        let responses: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        for r in &responses {
            assert_eq!(r, &responses[0], "responses must be byte-identical");
        }
        let parsed = JsonValue::parse(&responses[0]).unwrap();
        assert_eq!(parsed.get("ok").and_then(JsonValue::as_bool), Some(true));
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (addr, handle) = fixture_server(1);
        let responses = roundtrip(
            addr,
            &[
                r#"{"id":1,"method":"health"}"#,
                r#"{"id":2,"method":"stats"}"#,
                "garbage",
                r#"{"id":4,"method":"query","params":{"from":0,"to":7,"budget":10}}"#,
            ],
        );
        assert!(responses[0].starts_with(r#"{"id":1,"ok":true"#));
        assert!(responses[1].starts_with(r#"{"id":2,"ok":true"#));
        assert!(responses[2].contains("parse_error"));
        assert!(responses[3].starts_with(r#"{"id":4,"ok":true"#));
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_request_is_an_error_not_a_crash() {
        // ~100 KB of '[' fits under the 1 MiB request cap but would
        // overflow a worker stack if the JSON parser recursed per
        // bracket — and a stack overflow aborts the whole process, past
        // any unwind guard. The server must answer parse_error and keep
        // serving.
        let (addr, handle) = fixture_server(1);
        let bomb = "[".repeat(100_000);
        let responses = roundtrip(addr, &[&bomb, r#"{"id":2,"method":"health"}"#]);
        assert!(responses[0].contains("parse_error"), "{}", responses[0]);
        assert!(
            responses[0].contains("nesting too deep"),
            "{}",
            responses[0]
        );
        assert!(responses[1].starts_with(r#"{"id":2,"ok":true"#));
        handle.shutdown();
    }

    #[test]
    fn oversized_request_is_rejected_and_connection_closed() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            max_request_bytes: 64,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.start();

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let big = format!("{{\"method\":\"health\",\"id\":\"{}\"}}\n", "x".repeat(200));
        conn.write_all(big.as_bytes()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("request_too_large"), "{resp}");
        // The server hangs up after the error.
        let mut next = String::new();
        assert_eq!(reader.read_line(&mut next).unwrap(), 0);
        handle.shutdown();
    }

    /// Opens `n` keep-alive connections, each proven accepted by one
    /// answered request, and leaves them idle.
    fn idle_connections(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
        (0..n)
            .map(|_| {
                let mut conn = TcpStream::connect(addr).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                conn.write_all(b"{\"method\":\"health\"}\n").unwrap();
                let mut resp = String::new();
                BufReader::new(conn.try_clone().unwrap())
                    .read_line(&mut resp)
                    .unwrap();
                assert!(resp.contains("\"ok\":true"), "{resp}");
                conn
            })
            .collect()
    }

    #[test]
    fn shutdown_wakes_a_reactor_idle_on_keep_alive_connections() {
        let (addr, handle) = fixture_server(2);
        let idle = idle_connections(addr, 16);
        // Shut down on a helper thread, so a reactor that never wakes
        // fails this test instead of hanging it.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            handle.shutdown();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(1)).is_ok(),
            "shutdown() did not return within 1 s"
        );
        stopper.join().unwrap();
        drop(idle);
    }

    /// The `kor-reactor` threads of this process, by thread id.
    #[cfg(target_os = "linux")]
    fn reactor_tids() -> std::collections::HashSet<String> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|entry| {
                let tid = entry.ok()?.file_name().into_string().ok()?;
                let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
                (comm.trim_end() == "kor-reactor").then_some(tid)
            })
            .collect()
    }

    /// User plus system CPU time of thread `tid`, in clock ticks.
    #[cfg(target_os = "linux")]
    fn cpu_ticks(tid: &str) -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
            .split_whitespace()
            .collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn idle_reactor_burns_no_cpu() {
        // Other tests start servers in this process concurrently, so
        // retry until exactly one reactor thread appeared around this
        // server's start: then it is this server's.
        for _ in 0..50 {
            let before = reactor_tids();
            let (addr, handle) = fixture_server(2);
            // The round trips also guarantee the reactor has run and
            // named itself.
            let idle = idle_connections(addr, 16);
            let fresh: Vec<String> = reactor_tids().difference(&before).cloned().collect();
            let [tid] = fresh.as_slice() else {
                handle.shutdown();
                continue;
            };
            let start = cpu_ticks(tid);
            std::thread::sleep(Duration::from_secs(1));
            let used = cpu_ticks(tid) - start;
            handle.shutdown();
            drop(idle);
            // USER_HZ is 100 on Linux: one tick is 10 ms.
            assert!(
                used * 10 < 20,
                "idle reactor used {used} ticks of CPU in 1 s"
            );
            return;
        }
        panic!("could not single out this server's reactor thread");
    }

    #[test]
    fn shutdown_request_terminates_join() {
        let (addr, handle) = fixture_server(2);
        let responses = roundtrip(addr, &[r#"{"id":"bye","method":"shutdown"}"#]);
        assert!(
            responses[0].contains("\"stopping\":true"),
            "{}",
            responses[0]
        );
        // join() returns because the wire request tripped the latch.
        handle.join();
    }

    #[test]
    fn stats_reports_server_io_section() {
        let (addr, handle) = fixture_server(2);
        let responses = roundtrip(addr, &[r#"{"id":1,"method":"stats"}"#]);
        let parsed = JsonValue::parse(&responses[0]).unwrap();
        let server = parsed
            .get("result")
            .and_then(|r| r.get("server"))
            .expect("server section");
        assert!(server.get("io").is_none(), "one I/O layer, no mode field");
        // This connection is open and its stats request is being
        // handled right now (not queued).
        assert_eq!(
            server.get("open_connections").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            server.get("queued_requests").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            server.get("overloaded").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert!(server.get("queue_capacity").and_then(JsonValue::as_u64) > Some(0));
        handle.shutdown();
    }
}
