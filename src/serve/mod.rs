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
//! Two I/O layers speak the same protocol (selectable via
//! [`ServeConfig::io`]): the default [`IoMode::Event`] layer
//! multiplexes every connection through one readiness-driven reactor
//! thread (`event`), supporting keep-alive and pipelining with
//! per-request overload backpressure, while [`IoMode::Blocking`]
//! (`pool`) parks one worker per connection — kept as the comparison
//! baseline `kor loadtest` measures against.
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
mod pool;
pub mod protocol;
pub mod recovery;
pub mod registry;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use event::CompletionBus;
use handler::ServerContext;
use pool::{ConnQueue, PushRefused, QUEUE_DEPTH_PER_WORKER};
use registry::Registry;

/// Which I/O layer carries bytes between sockets and the worker pool.
///
/// Both layers speak the identical wire protocol — the e2e suites prove
/// responses byte-identical between them — but they scale differently:
/// [`IoMode::Event`] multiplexes every connection through one reactor
/// thread, so workers only ever run requests and idle keep-alive
/// connections cost nothing; [`IoMode::Blocking`] parks one worker per
/// connection for its whole lifetime. Blocking is kept as the
/// comparison baseline `kor loadtest` measures against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Readiness-driven: one non-blocking reactor thread owns all
    /// sockets; workers handle individual requests. The default.
    Event,
    /// One worker thread per in-flight connection (the pre-event
    /// implementation); excess connections wait in an accept queue.
    Blocking,
}

impl IoMode {
    /// The CLI / stats spelling: `event` or `blocking`.
    pub fn as_str(self) -> &'static str {
        match self {
            IoMode::Event => "event",
            IoMode::Blocking => "blocking",
        }
    }
}

impl std::str::FromStr for IoMode {
    type Err = String;

    fn from_str(s: &str) -> Result<IoMode, String> {
        match s {
            "event" => Ok(IoMode::Event),
            "blocking" => Ok(IoMode::Blocking),
            other => Err(format!(
                "unknown io mode {other:?} (expected event or blocking)"
            )),
        }
    }
}

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`; port `0` picks an
    /// ephemeral port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool size; `0` means one worker per available core. In
    /// blocking mode this also bounds the number of concurrently
    /// served connections; in event mode it bounds concurrently
    /// *executing* requests only.
    pub threads: usize,
    /// I/O layer; see [`IoMode`].
    pub io: IoMode,
    /// Backpressure-queue capacity — waiting request lines (event
    /// mode) or waiting connections (blocking mode) past which the
    /// server answers `overloaded`. `0` means auto: `threads × 16` in
    /// event mode, `threads × 4` in blocking mode.
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
    /// Localhost port 7878, event I/O, auto-sized pool and queue, no
    /// default deadline, 1 MiB request cap.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: 0,
            io: IoMode::Event,
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
        ctx.io = config.io;
        ctx.journal_dir = config.journal;
        ctx.queue_capacity = if config.queue_capacity > 0 {
            config.queue_capacity
        } else {
            match config.io {
                // Event workers turn over per request, not per
                // connection, so the queue can afford to be deeper
                // before a queued request waits unreasonably long.
                IoMode::Event => threads * 16,
                IoMode::Blocking => threads * QUEUE_DEPTH_PER_WORKER,
            }
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
                self.ctx
                    .journals
                    .lock()
                    .unwrap()
                    .insert(name.to_string(), state);
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

    /// Spawns the I/O and worker threads and returns a handle for
    /// shutdown/join.
    pub fn start(self) -> ServerHandle {
        match self.ctx.io {
            IoMode::Event => self.start_event(),
            IoMode::Blocking => self.start_blocking(),
        }
    }

    /// Event mode: one reactor thread multiplexes every socket; workers
    /// execute individual requests from a bounded job queue.
    fn start_event(self) -> ServerHandle {
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
        let reactor_thread = spawn_named("kor-reactor".to_string(), move || {
            event::run(listener, ctx, queue, bus)
        });
        ServerHandle {
            addr: self.addr,
            ctx: self.ctx,
            bus: self.bus,
            workers,
            listener_thread: reactor_thread,
        }
    }

    /// Blocking mode: the listener queues whole connections; each
    /// worker serves one connection to completion.
    fn start_blocking(self) -> ServerHandle {
        let queue = Arc::new(ConnQueue::new(self.ctx.queue_capacity));
        let mut workers = Vec::with_capacity(self.ctx.threads);
        for i in 0..self.ctx.threads {
            let queue = Arc::clone(&queue);
            let ctx = Arc::clone(&self.ctx);
            workers.push(spawn_named(format!("kor-worker-{i}"), move || {
                pool::worker_loop(&queue, &ctx)
            }));
        }
        let ctx = Arc::clone(&self.ctx);
        let listener = self.listener;
        let accept_queue = Arc::clone(&queue);
        let listener_thread = spawn_named("kor-listener".to_string(), move || {
            // Non-blocking accept with a short poll keeps the loop
            // responsive to the shutdown latch without a self-connect
            // dance; pending connections are drained before sleeping.
            let _ = listener.set_nonblocking(true);
            loop {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        ctx.connections.fetch_add(1, Ordering::Relaxed);
                        // Count before the push: the push wakes a
                        // worker whose matching decrement must not be
                        // able to outrun this increment.
                        ctx.open_connections.fetch_add(1, Ordering::Relaxed);
                        ctx.queued_requests.fetch_add(1, Ordering::Relaxed);
                        match accept_queue.push(stream) {
                            Ok(()) => {}
                            // Backpressure: every worker is busy and
                            // the wait queue is at capacity. Tell the
                            // client and hang up instead of letting
                            // open fds (and client patience) grow
                            // without bound.
                            Err(PushRefused::Full(mut stream)) => {
                                ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
                                ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
                                ctx.overloaded.fetch_add(1, Ordering::Relaxed);
                                let err = protocol::WireError::new(
                                    protocol::ErrorCode::Overloaded,
                                    "all workers busy and the connection queue is full; \
                                     retry later",
                                );
                                let line =
                                    protocol::error_response(&crate::json::JsonValue::Null, &err);
                                // Dropping a socket with unread client
                                // data pending turns the close into an
                                // RST, which would discard this
                                // response before the client reads it.
                                // Half-close, then briefly drain what
                                // the client already sent (typically
                                // one pipelined request line) so the
                                // line is delivered over an orderly
                                // FIN. Delivery is best-effort: the
                                // drain is hard-bounded because it runs
                                // on the listener thread, so a peer
                                // that trickles bytes stalls accepts
                                // ~100 ms at most, and one that
                                // pipelines more than the drain budget
                                // may still see a reset — acceptable
                                // for a path that only exists when the
                                // server is already saturated (slower
                                // accepts ARE the backpressure).
                                if pool::write_line(&mut stream, &line).is_ok() {
                                    use std::io::Read;
                                    let _ = stream.shutdown(std::net::Shutdown::Write);
                                    let _ =
                                        stream.set_read_timeout(Some(Duration::from_millis(25)));
                                    let mut sink = [0u8; 4096];
                                    for _ in 0..4 {
                                        match stream.read(&mut sink) {
                                            Ok(0) | Err(_) => break,
                                            Ok(_) => {}
                                        }
                                    }
                                }
                            }
                            Err(PushRefused::Closed) => {
                                ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
                                ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    // Back off on any error: WouldBlock is the idle
                    // case, but persistent failures (e.g. EMFILE when
                    // the fd limit is hit under a connection burst)
                    // must not hot-spin the listener against the
                    // workers it is feeding.
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
            accept_queue.close();
        });
        ServerHandle {
            addr: self.addr,
            ctx: self.ctx,
            bus: self.bus,
            workers,
            listener_thread,
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
    listener_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and waits for the listener and every worker to
    /// finish. Connections already being served run to completion
    /// (their clients must close for workers to finish).
    pub fn shutdown(self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // The event reactor may be blocked in an untimed poll; wake it
        // to see the latch.
        self.bus.wake();
        self.join();
    }

    /// Waits until the server stops — either via [`ServerHandle`] (from
    /// another thread: [`ServerHandle::shutdown`]) or a `shutdown`
    /// request over the wire.
    pub fn join(self) {
        let _ = self.listener_thread.join();
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

    fn fixture_server_mode(threads: usize, io: IoMode) -> (SocketAddr, ServerHandle) {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            io,
            ..ServeConfig::default()
        })
        .unwrap();
        server
            .registry()
            .insert(Dataset::from_graph("fig1", figure1()));
        let addr = server.local_addr();
        (addr, server.start())
    }

    fn fixture_server(threads: usize) -> (SocketAddr, ServerHandle) {
        fixture_server_mode(threads, IoMode::Event)
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
        // Across threads AND across I/O modes: the event rewrite must
        // not change a single response byte.
        let mut per_mode = Vec::new();
        for io in [IoMode::Event, IoMode::Blocking] {
            let (addr, handle) = fixture_server_mode(3, io);
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
            per_mode.push(responses[0].clone());
        }
        assert_eq!(per_mode[0], per_mode[1], "event vs blocking bytes");
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        for io in [IoMode::Event, IoMode::Blocking] {
            let (addr, handle) = fixture_server_mode(1, io);
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
        for io in [IoMode::Event, IoMode::Blocking] {
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: 1,
                io,
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
    }

    #[test]
    fn connection_burst_past_queue_capacity_gets_overloaded() {
        // Connection-level overload is the *blocking* layer's contract;
        // the event layer keeps connections and answers per-request
        // `overloaded` instead (tests/serve_overload.rs).
        let (addr, handle) = fixture_server_mode(1, IoMode::Blocking);
        // Occupy the single worker: a completed round trip proves it
        // has popped this connection and is now serving it.
        let busy = TcpStream::connect(addr).unwrap();
        {
            let mut conn = busy.try_clone().unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            conn.write_all(b"{\"method\":\"health\"}\n").unwrap();
            let mut resp = String::new();
            BufReader::new(conn).read_line(&mut resp).unwrap();
            assert!(resp.contains("\"ok\":true"), "{resp}");
        }
        // Fill the wait queue (QUEUE_DEPTH_PER_WORKER per worker)...
        let queued: Vec<TcpStream> = (0..QUEUE_DEPTH_PER_WORKER)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        // ...then one more: the listener must answer `overloaded` and
        // hang up rather than queue it indefinitely. This client uses
        // the realistic write-then-read pattern: its unread request
        // must not turn the server's close into an RST that discards
        // the overloaded response.
        let mut extra = TcpStream::connect(addr).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        extra.write_all(b"{\"method\":\"health\"}\n").unwrap();
        let mut reader = BufReader::new(extra);
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"overloaded\""), "{resp}");
        let mut next = String::new();
        assert_eq!(reader.read_line(&mut next).unwrap(), 0, "then hangs up");
        drop(queued);
        drop(busy);
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
        for io in [IoMode::Event, IoMode::Blocking] {
            let (addr, handle) = fixture_server_mode(2, io);
            let responses = roundtrip(addr, &[r#"{"id":"bye","method":"shutdown"}"#]);
            assert!(
                responses[0].contains("\"stopping\":true"),
                "{}",
                responses[0]
            );
            // join() returns because the wire request tripped the latch.
            handle.join();
        }
    }

    #[test]
    fn stats_reports_server_io_section() {
        for io in [IoMode::Event, IoMode::Blocking] {
            let (addr, handle) = fixture_server_mode(2, io);
            let responses = roundtrip(addr, &[r#"{"id":1,"method":"stats"}"#]);
            let parsed = JsonValue::parse(&responses[0]).unwrap();
            let server = parsed
                .get("result")
                .and_then(|r| r.get("server"))
                .expect("server section");
            assert_eq!(
                server.get("io").and_then(JsonValue::as_str),
                Some(io.as_str())
            );
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
}
