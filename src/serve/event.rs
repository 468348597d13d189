//! The readiness-driven I/O layer: one multiplexing reactor thread
//! feeding the worker pool through a bounded request queue.
//!
//! Parking one worker per connection would let the worker count cap
//! the number of *connections* the server can hold open — the wrong
//! shape for many mostly-idle keep-alive clients. This layer decouples
//! the two: a single reactor thread owns every socket in non-blocking
//! mode, assembles complete newline-delimited request lines, and hands
//! each line to the worker pool as an independent job. Workers never
//! touch a socket; they return the rendered response to the reactor,
//! which writes responses back **in request order per connection** no
//! matter which worker finished first. Connections are kept alive
//! across requests and may pipeline freely (up to [`MAX_PIPELINE`]
//! requests in flight each — past that the reactor simply stops reading
//! the socket, so TCP backpressure does the throttling).
//!
//! The reactor sleeps in POSIX `poll(2)` (declared in the private `sys`
//! module, the crate's only `unsafe`) on exactly what it waits for: the
//! listener, every socket it would read or has unflushed bytes for, and
//! the read end of a wake channel. Workers write one byte to that
//! channel when the completion list turns non-empty, and
//! [`crate::serve::ServerHandle::shutdown`] writes one too, so a
//! request, a finished response and a shutdown each wake the reactor
//! the moment they happen. The wait has no timeout unless one is due:
//! the rest of [`DRAIN_GRACE`] while draining, or [`RETRY_PAUSE`] after
//! a failed `accept` or `poll`.
//!
//! Overload is per *request* here, not per connection: when the job
//! queue is full the reactor answers that line with an `overloaded`
//! error in its proper pipeline position and keeps the connection —
//! clients see a well-formed response they can retry, and are never
//! turned away at accept time.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::json::JsonValue;
use crate::serve::handler::{handle, note_panic, ServerContext};
use crate::serve::protocol::{error_response, ok_response, parse_request, ErrorCode, WireError};

/// Per-connection cap on requests dispatched to workers but not yet
/// answered. A connection that pipelines past this depth stops being
/// read until responses drain, so one client cannot monopolise the
/// request queue or make the server buffer unbounded responses.
pub(crate) const MAX_PIPELINE: usize = 64;

/// Bytes read from one socket per reactor visit.
const SCRATCH: usize = 16 * 1024;

/// After shutdown, connections that cannot flush their remaining
/// responses within this grace period are dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// Pause before retrying after a failed `accept` (e.g. EMFILE) or a
/// failed `poll`. A listener with a backlog stays readable, so without
/// the pause a persistent error would spin the reactor.
const RETRY_PAUSE: Duration = Duration::from_millis(10);

/// The `poll(2)` binding. `std` already links libc, so one declaration
/// is all it takes.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    /// Readable (or, on a listener, a connection to accept).
    pub(super) const POLLIN: c_short = 0x001;
    /// Writable without blocking.
    pub(super) const POLLOUT: c_short = 0x004;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        pub(super) fn new(fd: RawFd, events: c_short) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }

        /// The events the last [`poll`] reported for this descriptor.
        #[cfg(test)]
        pub(super) fn revents(&self) -> c_short {
            self.revents
        }
    }

    extern "C" {
        #[link_name = "poll"]
        fn c_poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// Blocks until a descriptor in `fds` is ready or `timeout` passes
    /// (`None` waits indefinitely); returns how many are ready. The
    /// timeout rounds up to whole milliseconds, so a due deadline is
    /// never missed by waking a little early. `EINTR` is retried.
    pub(super) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let ms = timeout.map_or(-1, |t| {
            c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
        });
        loop {
            // SAFETY: the pointer and length describe `fds`, an
            // exclusively borrowed slice of `#[repr(C)]` pollfd structs
            // that outlives the call; poll(2) writes only their
            // `revents` fields.
            let ready = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as NFds, ms) };
            if ready >= 0 {
                return Ok(ready as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// One complete request line travelling to the worker pool.
pub(crate) struct Job {
    conn: usize,
    generation: u64,
    seq: u64,
    line: Vec<u8>,
    received: Instant,
}

/// One response travelling back. Always present: a handler panic is
/// caught in the worker and rendered as an `internal_error` response,
/// so the faulty request is the only casualty — the worker, the
/// connection, and every pipelined neighbor keep going.
pub(crate) struct Completion {
    conn: usize,
    generation: u64,
    seq: u64,
    response: String,
}

/// Bounded multi-producer multi-consumer queue of request jobs.
pub(crate) struct JobQueue {
    state: Mutex<JobState>,
    ready: Condvar,
    capacity: usize,
}

struct JobState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    /// A queue holding at most `capacity` waiting jobs.
    pub(crate) fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(JobState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job, or hands it back when the queue is full (the
    /// reactor answers `overloaded`) or closed.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and
    /// drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Closes the queue and wakes every blocked worker.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Completed responses flowing back to the reactor, plus the wake
/// channel the reactor polls. A push that makes the list non-empty
/// writes one byte to the channel, so a finished request wakes the
/// reactor at once; later pushes find the reactor already due to wake.
pub(crate) struct CompletionBus {
    done: Mutex<Vec<Completion>>,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl CompletionBus {
    /// An empty bus with a fresh non-blocking wake channel.
    pub(crate) fn new() -> io::Result<CompletionBus> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(CompletionBus {
            done: Mutex::new(Vec::new()),
            wake_rx,
            wake_tx,
        })
    }

    fn push(&self, completion: Completion) {
        let mut done = self.done.lock().expect("completion list lock poisoned");
        let was_empty = done.is_empty();
        done.push(completion);
        drop(done);
        if was_empty {
            self.wake();
        }
    }

    /// Makes the reactor's next (or current) poll return. A full
    /// channel (`WouldBlock`) already guarantees that, so errors are
    /// ignored.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Consumes pending wake bytes. The reactor calls this after each
    /// poll and *before* [`CompletionBus::drain`]: a push landing
    /// between the two then finds its byte unconsumed, so no wake-up
    /// is lost.
    fn clear_wake(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
    }

    /// Takes every pending completion, in push order.
    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.done.lock().expect("completion list lock poisoned"))
    }
}

/// One worker: answer request jobs until the queue closes.
pub(crate) fn worker_loop(queue: &JobQueue, bus: &CompletionBus, ctx: &ServerContext) {
    while let Some(job) = queue.pop() {
        ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
        let response = respond(ctx, &job);
        bus.push(Completion {
            conn: job.conn,
            generation: job.generation,
            seq: job.seq,
            response,
        });
    }
}

/// Parses and routes one request line. A handler panic is confined to
/// the request that caused it: parsing happens outside the unwind guard
/// so the client's `id` survives into the `internal_error` response.
fn respond(ctx: &ServerContext, job: &Job) -> String {
    let text = String::from_utf8_lossy(&job.line);
    match parse_request(text.trim()) {
        Err(e) => error_response(&JsonValue::Null, &e),
        Ok(req) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle(ctx, &req, job.received)
            })) {
                Ok(Ok(result)) => ok_response(&req.id, result),
                Ok(Err(e)) => error_response(&req.id, &e),
                Err(_) => error_response(&req.id, &note_panic(ctx)),
            }
        }
    }
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    /// Distinguishes this connection from earlier users of the same
    /// slot, so a late completion for a dropped connection can never be
    /// delivered to its successor.
    generation: u64,
    /// Bytes received but not yet parsed into lines.
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already scanned for a newline.
    scanned: usize,
    /// Rendered responses awaiting the socket, in order.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    write_pos: usize,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    /// Sequence number the next written response must have.
    next_write: u64,
    /// Requests dispatched to workers and not yet completed.
    in_flight: usize,
    /// A write request is in flight: no later line is dispatched (or
    /// read) until it completes. See [`is_write`].
    barrier: bool,
    /// Completed responses that arrived out of order.
    pending: BTreeMap<u64, String>,
    /// Peer closed its write side; parse what remains, then close.
    eof: bool,
    /// Stop reading; close once every outstanding response is flushed.
    closing: bool,
    /// Drop now, discarding anything outstanding.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_write: 0,
            in_flight: 0,
            barrier: false,
            pending: BTreeMap::new(),
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// Whether the reactor reads this socket. Both the poll set and
    /// [`service_conn`] ask this one predicate, so a socket is never
    /// polled for bytes the reactor would then refuse to read (which
    /// would spin) nor read without being polled.
    fn wants_read(&self) -> bool {
        !self.dead && !self.closing && !self.eof && !self.barrier && self.in_flight < MAX_PIPELINE
    }

    /// Whether response bytes are waiting for the socket to drain.
    fn wants_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// The poll events this connection waits for; `0` leaves it out of
    /// the poll set.
    fn interest(&self) -> std::os::raw::c_short {
        let mut events = 0;
        if self.wants_read() {
            events |= sys::POLLIN;
        }
        if self.wants_write() {
            events |= sys::POLLOUT;
        }
        events
    }

    /// Whether any accepted request still awaits its response bytes on
    /// the wire.
    fn outstanding(&self) -> bool {
        self.next_write < self.next_seq || self.wants_write()
    }

    /// Moves completed in-order responses into the write buffer.
    fn promote(&mut self) {
        while let Some(response) = self.pending.remove(&self.next_write) {
            self.write_buf.extend_from_slice(response.as_bytes());
            self.write_buf.push(b'\n');
            self.next_write += 1;
        }
    }

    /// Queues a `request_too_large` response in pipeline order and
    /// stops reading: the error is answered, then the connection
    /// closes.
    fn reject_too_large(&mut self, max: usize) {
        let err = WireError::new(
            ErrorCode::RequestTooLarge,
            format!("request line exceeds {max} bytes"),
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending
            .insert(seq, error_response(&JsonValue::Null, &err));
        self.closing = true;
        self.read_buf.clear();
        self.scanned = 0;
    }

    /// Whether `read_buf` already holds at least one complete line.
    fn has_complete_line(&self) -> bool {
        self.read_buf.contains(&b'\n')
    }
}

/// The reactor: owns the listener and every connection.
struct Reactor {
    listener: TcpListener,
    ctx: Arc<ServerContext>,
    queue: Arc<JobQueue>,
    bus: Arc<CompletionBus>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    generation: u64,
}

/// Runs the reactor until the shutdown latch trips and every
/// connection has drained (or the grace period expires). Closes the
/// job queue on exit so the workers terminate.
pub(crate) fn run(
    listener: TcpListener,
    ctx: Arc<ServerContext>,
    queue: Arc<JobQueue>,
    bus: Arc<CompletionBus>,
) {
    let _ = listener.set_nonblocking(true);
    let mut reactor = Reactor {
        listener,
        ctx,
        queue,
        bus,
        conns: Vec::new(),
        free: Vec::new(),
        generation: 0,
    };
    let mut draining_since: Option<Instant> = None;
    // Set after a failed accept: the listener leaves the poll set until
    // this instant.
    let mut accept_retry: Option<Instant> = None;
    let mut fds = Vec::new();
    loop {
        for completion in reactor.bus.drain() {
            reactor.apply(completion);
        }
        if draining_since.is_none() && reactor.ctx.shutdown.load(Ordering::SeqCst) {
            draining_since = Some(Instant::now());
            // Stop reading everywhere: in-flight requests complete and
            // flush, new bytes are ignored.
            for conn in reactor.conns.iter_mut().flatten() {
                conn.closing = true;
            }
        }
        if draining_since.is_none() && accept_retry.is_none_or(|at| Instant::now() >= at) {
            accept_retry = reactor
                .accept_new()
                .err()
                .map(|_| Instant::now() + RETRY_PAUSE);
        }
        reactor.service_conns();
        reactor.reap();
        let timeout = match draining_since {
            Some(since) => {
                if reactor.open_count() == 0 {
                    break;
                }
                let Some(left) = DRAIN_GRACE.checked_sub(since.elapsed()) else {
                    reactor.drop_all();
                    break;
                };
                Some(left)
            }
            None => accept_retry.map(|at| at.saturating_duration_since(Instant::now())),
        };
        let listen = draining_since.is_none() && accept_retry.is_none();
        reactor.wait(&mut fds, listen, timeout);
    }
    reactor.queue.close();
}

impl Reactor {
    fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Blocks in `poll(2)` until the wake channel, the listener (when
    /// `listen`) or a connection the reactor waits on is ready, or
    /// `timeout` passes, then consumes the wake bytes. `fds` is scratch
    /// space reused across calls.
    fn wait(&mut self, fds: &mut Vec<sys::PollFd>, listen: bool, timeout: Option<Duration>) {
        fds.clear();
        fds.push(sys::PollFd::new(self.bus.wake_rx.as_raw_fd(), sys::POLLIN));
        if listen {
            fds.push(sys::PollFd::new(self.listener.as_raw_fd(), sys::POLLIN));
        }
        for conn in self.conns.iter().flatten() {
            let events = conn.interest();
            if events != 0 {
                fds.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
            }
        }
        if sys::poll(fds, timeout).is_err() {
            // Readiness is unknowable (e.g. ENOMEM): pace the loop so it
            // degrades to periodic re-scans instead of spinning.
            std::thread::sleep(RETRY_PAUSE);
        }
        self.bus.clear_wake();
    }

    /// Accepts every pending connection; non-blocking. An error other
    /// than `WouldBlock` (e.g. EMFILE under fd exhaustion) is returned
    /// so the caller can pause accepting instead of hot-spinning on a
    /// listener that stays readable.
    fn accept_new(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.ctx.connections.fetch_add(1, Ordering::Relaxed);
                    self.ctx.open_connections.fetch_add(1, Ordering::Relaxed);
                    self.generation += 1;
                    let conn = Conn::new(stream, self.generation);
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Delivers one worker completion to its connection, unless the
    /// connection is gone or the slot was reused.
    fn apply(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get_mut(completion.conn).and_then(Option::as_mut) else {
            return;
        };
        if conn.generation != completion.generation {
            return;
        }
        conn.in_flight -= 1;
        conn.barrier &= conn.in_flight > 0;
        conn.pending.insert(completion.seq, completion.response);
    }

    /// Flush + read + parse every connection once.
    fn service_conns(&mut self) {
        for (slot, conn) in self.conns.iter_mut().enumerate() {
            if let Some(conn) = conn {
                service_conn(&self.ctx, &self.queue, conn, slot);
            }
        }
    }

    /// Drops connections that are dead or fully drained.
    fn reap(&mut self) {
        for slot in 0..self.conns.len() {
            let done = match &self.conns[slot] {
                Some(c) => {
                    c.dead
                        || (c.closing && !c.outstanding())
                        || (c.eof && !c.has_complete_line() && !c.outstanding())
                }
                None => false,
            };
            if done {
                self.conns[slot] = None;
                self.free.push(slot);
                self.ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops every connection (shutdown grace expired).
    fn drop_all(&mut self) {
        for slot in 0..self.conns.len() {
            if self.conns[slot].take().is_some() {
                self.ctx.open_connections.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Whether a request line may swap a dataset (`update_edges`,
/// `load_dataset`). Such a line is dispatched only once every earlier
/// request of its connection has finished, and no later one is
/// dispatched before it finishes, so a pipelined query never sees a
/// mutation sent after it, nor misses one sent before it. The check is
/// a byte search, not a parse: a false positive (say, a keyword of that
/// name) only serializes the line.
fn is_write(line: &[u8]) -> bool {
    (0..line.len()).filter(|&i| line[i] == b'"').any(|i| {
        let rest = &line[i..];
        rest.starts_with(b"\"update_edges\"") || rest.starts_with(b"\"load_dataset\"")
    })
}

/// One reactor visit to one connection: promote completed responses,
/// flush, read, parse lines, dispatch jobs.
fn service_conn(ctx: &ServerContext, queue: &JobQueue, conn: &mut Conn, slot: usize) {
    conn.promote();

    // Flush as much of the write buffer as the socket accepts.
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.write_pos > 0 && conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }

    // Read once; backpressure by simply not reading when the pipeline
    // is full.
    if conn.wants_read() {
        let mut scratch = [0u8; SCRATCH];
        match conn.stream.read(&mut scratch) {
            Ok(0) => conn.eof = true,
            Ok(n) => conn.read_buf.extend_from_slice(&scratch[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => conn.dead = true,
        }
    }

    // Parse complete lines. A line is "committed" only once its newline
    // arrived, so segment boundaries can never change how a request
    // parses.
    while !conn.dead && !conn.closing && !conn.barrier && conn.in_flight < MAX_PIPELINE {
        let Some(rel) = conn.read_buf[conn.scanned..]
            .iter()
            .position(|&b| b == b'\n')
        else {
            conn.scanned = conn.read_buf.len();
            if conn.read_buf.len() > ctx.max_request_bytes {
                conn.reject_too_large(ctx.max_request_bytes);
            }
            break;
        };
        let pos = conn.scanned + rel;
        if pos > ctx.max_request_bytes {
            conn.reject_too_large(ctx.max_request_bytes);
            break;
        }
        let writes = is_write(&conn.read_buf[..pos]);
        if writes && conn.in_flight > 0 {
            break; // runs once every earlier request has finished
        }
        let line: Vec<u8> = conn.read_buf[..pos].to_vec();
        conn.read_buf.drain(..=pos);
        conn.scanned = 0;
        // Blank lines keep interactive nc sessions pleasant (and get no
        // response).
        if String::from_utf8_lossy(&line).trim().is_empty() {
            continue;
        }
        ctx.requests.fetch_add(1, Ordering::Relaxed);
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let job = Job {
            conn: slot,
            generation: conn.generation,
            seq,
            line,
            received: Instant::now(),
        };
        // Count the request as queued *before* the push: the push wakes
        // a worker, and that worker's matching decrement must never be
        // able to run ahead of this increment (stats would transiently
        // read an underflowed counter).
        ctx.queued_requests.fetch_add(1, Ordering::Relaxed);
        match queue.push(job) {
            Ok(()) => {
                conn.in_flight += 1;
                conn.barrier = writes;
            }
            Err(_refused) => {
                // Backpressure is per request: answer `overloaded` in
                // this request's pipeline slot and keep the connection.
                ctx.queued_requests.fetch_sub(1, Ordering::Relaxed);
                ctx.overloaded.fetch_add(1, Ordering::Relaxed);
                let err =
                    WireError::new(ErrorCode::Overloaded, "request queue is full; retry later");
                conn.pending
                    .insert(seq, error_response(&JsonValue::Null, &err));
            }
        }
    }

    conn.promote();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seq: u64) -> Job {
        Job {
            conn: 0,
            generation: 1,
            seq,
            line: Vec::new(),
            received: Instant::now(),
        }
    }

    #[test]
    fn job_queue_bounds_and_closes() {
        let q = JobQueue::new(2);
        assert!(q.push(job(0)).is_ok());
        assert!(q.push(job(1)).is_ok());
        let refused = q.push(job(2));
        assert!(refused.is_err(), "third push must be refused");
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.push(job(2)).is_ok(), "pop frees a slot");
        q.close();
        assert!(q.push(job(3)).is_err(), "closed queue refuses");
        assert_eq!(q.pop().unwrap().seq, 1, "drains after close");
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn completion_bus_wakes_a_waiter() {
        let bus = Arc::new(CompletionBus::new().unwrap());
        let b2 = Arc::clone(&bus);
        let pusher = std::thread::spawn(move || {
            // Usually lands while the main thread blocks in poll; every
            // assertion below holds in either order.
            std::thread::sleep(Duration::from_millis(20));
            for seq in [7, 3, 9] {
                b2.push(Completion {
                    conn: 3,
                    generation: 1,
                    seq,
                    response: "x".into(),
                });
            }
        });
        let mut fds = [sys::PollFd::new(bus.wake_rx.as_raw_fd(), sys::POLLIN)];
        let ready = sys::poll(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(ready, 1, "a push must make the wake fd readable");
        assert_ne!(fds[0].revents() & sys::POLLIN, 0);
        pusher.join().unwrap();
        bus.clear_wake();
        let seqs: Vec<u64> = bus.drain().iter().map(|c| c.seq).collect();
        assert_eq!(seqs, [7, 3, 9], "drain keeps push order");
        assert_eq!(
            sys::poll(&mut fds, Some(Duration::ZERO)).unwrap(),
            0,
            "one wake byte per empty-to-non-empty push, all consumed"
        );
    }

    #[test]
    fn promote_respects_request_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream, 1);
        conn.next_seq = 3;
        // Responses 2 and 0 completed; 1 is still in a worker.
        conn.pending.insert(2, "two".into());
        conn.pending.insert(0, "zero".into());
        conn.promote();
        assert_eq!(conn.write_buf, b"zero\n", "stops at the gap");
        conn.pending.insert(1, "one".into());
        conn.promote();
        assert_eq!(conn.write_buf, b"zero\none\ntwo\n");
        assert!(!conn.pending.is_empty() || conn.next_write == 3);
        assert!(conn.outstanding(), "bytes still unflushed");
    }

    #[test]
    fn only_dataset_swaps_are_writes() {
        assert!(is_write(
            br#"{"method":"update_edges","params":{"mutations":[]}}"#
        ));
        assert!(is_write(br#"{"id":1,"method":"load_dataset"}"#));
        for read in [
            &br#"{"method":"query","params":{"from":0,"to":7}}"#[..],
            br#"{"method":"stats"}"#,
            b"update_edges",
        ] {
            assert!(!is_write(read), "{}", String::from_utf8_lossy(read));
        }
    }

    #[test]
    fn too_large_reply_takes_its_pipeline_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream, 1);
        conn.read_buf = vec![b'x'; 100];
        conn.reject_too_large(50);
        assert!(conn.closing);
        assert!(conn.read_buf.is_empty());
        conn.promote();
        let text = String::from_utf8(conn.write_buf.clone()).unwrap();
        assert!(text.contains("request_too_large"), "{text}");
        assert!(text.contains("exceeds 50 bytes"), "{text}");
    }
}
