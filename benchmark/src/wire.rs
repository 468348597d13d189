//! The `kor serve` child process and the closed-loop clients that drive
//! it over TCP.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use kor::graph::EdgeMutation;

use crate::workload::{update_line, QuerySpec};

/// A socket read or write that takes longer than this is a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `kor serve --threads 2` child. Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The address the server announced.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin serve` on an ephemeral port with `world` loaded as
    /// dataset `bench` (journaling into `journal` when given) and waits
    /// for its `listening` line. The server's stderr goes to `log`.
    pub fn spawn(
        bin: &Path,
        world: &Path,
        journal: Option<&Path>,
        log: &Path,
    ) -> io::Result<Server> {
        let mut cmd = Command::new(bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--dataset",
        ])
        .arg(format!("bench={}", world.display()));
        if let Some(dir) = journal {
            cmd.arg("--journal").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(File::create(log)?))
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line).and_then(|_| {
            line.split_whitespace()
                .last()
                .filter(|_| line.contains("listening"))
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| {
                    io::Error::other(format!(
                        "no listening line (got {line:?}); see {}",
                        log.display()
                    ))
                })
        });
        match announced {
            Ok(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// The server's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Asks the server to shut down and waits for it to exit (killing it
    /// after 10 s).
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = Conn::connect(self.addr)?;
        let mut reply = String::new();
        conn.call("{\"id\":\"bye\",\"method\":\"shutdown\"}\n", &mut reply)?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("kor serve exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("kor serve did not stop within 10 s"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One keep-alive connection with one request in flight at a time.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` set, so that a request line leaves in
    /// one segment without waiting for a delayed ACK.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Sends one request line (newline included, written with a single
    /// `write_all`) and reads its reply into `reply`; returns the time
    /// from send to full reply in ms.
    pub fn call(&mut self, line: &str, reply: &mut String) -> io::Result<f64> {
        let start = Instant::now();
        self.stream.write_all(line.as_bytes())?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }
}

/// Outcome counts and latencies of one phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Replies with `"ok":true`.
    pub ok: u64,
    /// Error replies and I/O failures.
    pub failed: u64,
    /// `(query index, latency ms)` of every reply.
    pub samples: Vec<(usize, f64)>,
    /// When each of those replies arrived.
    pub ends: Vec<Instant>,
    /// Time from the phase start to its last reply, in seconds.
    pub elapsed_s: f64,
    /// The first failure, verbatim.
    pub first_error: Option<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// Folds another tally (a concurrent connection's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.samples.extend(other.samples);
        self.ends.extend(other.ends);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// Distinct `ok` query replies with how often each arrived; replies
/// carry their query's index as `id`, so a reply identifies its query.
pub type Replies = HashMap<String, (usize, u64)>;

/// Sends `stream[order[pos % n]]` for `pos = start, start+1, …` until
/// `stop(sent)` says so, one request in flight. Between requests,
/// `between` may use the connection (the churn updater does).
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    conn: &mut Conn,
    stream: &[QuerySpec],
    order: &[usize],
    start: usize,
    mut stop: impl FnMut(u64) -> bool,
    mut between: impl FnMut(&mut Conn),
    tally: &mut Tally,
    replies: &mut Replies,
) {
    let began = Instant::now();
    let mut reply = String::new();
    let mut pos = start;
    while !stop(tally.sent) {
        let q = order[pos % order.len()];
        pos += 1;
        tally.sent += 1;
        match conn.call(&stream[q].line, &mut reply) {
            Ok(ms) => {
                tally.samples.push((q, ms));
                tally.ends.push(Instant::now());
                let reply = reply.trim_end();
                if reply.contains("\"ok\":true") {
                    tally.ok += 1;
                    match replies.get_mut(reply) {
                        Some(seen) => seen.1 += 1,
                        None => {
                            replies.insert(reply.to_string(), (q, 1));
                        }
                    }
                } else {
                    tally.fail(format!("query {q}: {reply}"));
                }
            }
            Err(e) => {
                tally.fail(format!("query {q}: {e}"));
                break;
            }
        }
        between(conn);
    }
    tally.elapsed_s = began.elapsed().as_secs_f64();
}

/// Sends the traffic script's batches in order, one every `interval`.
pub struct Updater<'a> {
    script: &'a [Vec<EdgeMutation>],
    interval: Duration,
    next_due: Instant,
    /// Batches sent so far (the next batch's index).
    pub sent: usize,
    /// Acknowledgement latencies in ms.
    pub acks_ms: Vec<f64>,
    /// When each acknowledgement arrived.
    pub acked_at: Vec<Instant>,
    /// Failed updates (error replies, wrong epochs, I/O errors).
    pub failed: u64,
    /// The first failure, verbatim.
    pub first_error: Option<String>,
}

impl<'a> Updater<'a> {
    /// An updater whose first batch is due one interval from now.
    pub fn new(script: &'a [Vec<EdgeMutation>], interval: Duration) -> Self {
        Updater {
            script,
            interval,
            next_due: Instant::now() + interval,
            sent: 0,
            acks_ms: Vec::new(),
            acked_at: Vec::new(),
            failed: 0,
            first_error: None,
        }
    }

    fn done(&self) -> bool {
        self.failed > 0 || self.sent == self.script.len()
    }

    /// Sends the next batch if it is due; the one after is due an
    /// interval later, so a pause (the spin before the capacity phase)
    /// never causes a burst. After a failure the server's world no longer
    /// matches the script, so nothing more is sent.
    pub fn poll(&mut self, conn: &mut Conn) {
        let now = Instant::now();
        if self.done() || now < self.next_due {
            return;
        }
        self.next_due = now + self.interval;
        let index = self.sent;
        self.sent += 1;
        let mut reply = String::new();
        let expected = format!("\"epoch\":{},", index + 1);
        match conn.call(&update_line(index, &self.script[index]), &mut reply) {
            Ok(ms)
                if reply.contains("\"ok\":true")
                    && reply.contains(&expected)
                    && reply.contains("\"journaled\":true") =>
            {
                self.acks_ms.push(ms);
                self.acked_at.push(Instant::now());
            }
            outcome => {
                self.failed += 1;
                let what = match outcome {
                    Ok(_) => reply.trim_end().to_string(),
                    Err(e) => e.to_string(),
                };
                self.first_error
                    .get_or_insert(format!("update {index}: {what}"));
            }
        }
    }

    /// Polls until `until`, sleeping between due times.
    pub fn run_until(&mut self, conn: &mut Conn, until: Instant) {
        loop {
            let wake = if self.done() {
                until
            } else {
                self.next_due.min(until)
            };
            let now = Instant::now();
            if wake > now {
                std::thread::sleep(wake - now);
            }
            if Instant::now() >= until {
                return;
            }
            self.poll(conn);
        }
    }
}
