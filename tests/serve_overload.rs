//! Backpressure tests for the event-driven I/O layer: saturating the
//! job queue must yield well-formed `overloaded` error responses (in
//! their proper pipeline slots), count them in `stats`, and leave the
//! server fully serviceable afterwards — and churning connections must
//! not leak file descriptors.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use kor::data::{generate_world, GenConfig};
use kor::graph::fixtures::figure1;
use kor::graph::KeywordId;
use kor::json::JsonValue;
use kor::serve::registry::Dataset;
use kor::serve::{ServeConfig, Server};

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(conn.try_clone().unwrap());
    (conn, reader)
}

fn read_json(reader: &mut BufReader<TcpStream>) -> JsonValue {
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    JsonValue::parse(resp.trim()).unwrap_or_else(|e| panic!("bad reply {resp:?}: {e:?}"))
}

fn error_code(v: &JsonValue) -> Option<&str> {
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
}

/// One worker, a one-slot queue, and a worker pinned down by an exact
/// search that runs to its deadline: a 40-request burst must get
/// exactly one real answer (the queued slot) and 39 well-formed
/// `overloaded` errors — then the server must recover completely.
#[test]
fn saturated_queue_answers_overloaded_and_recovers() {
    // A query hard enough that exact labeling cannot finish before the
    // deadline: the 12 rarest keywords with a near-threshold budget
    // keep the label search alive past 2 s even in release builds
    // (measured ~4 s unbounded), so the deadline — not the graph —
    // decides how long the worker stays busy.
    let world = generate_world(&GenConfig::grid(30, 30, 99));
    let nodes = world.graph.node_count();
    let vlen = world.graph.vocab().len();
    let keywords: Vec<String> = (0..12.min(vlen))
        .filter_map(|i| {
            world
                .graph
                .vocab()
                .resolve(KeywordId((vlen - 1 - i) as u32))
                .map(str::to_string)
        })
        .collect();
    assert!(!keywords.is_empty(), "generated world must carry keywords");

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert(Dataset::from_graph("grid", world.graph.clone()));
    let addr = server.local_addr();
    let handle = server.start();

    // Pin down the only worker for ~2 s.
    let kw_json: Vec<String> = keywords.iter().map(|k| format!("\"{k}\"")).collect();
    let slow = format!(
        r#"{{"id":"slow","method":"query","params":{{"dataset":"grid","from":0,"to":{},"keywords":[{}],"budget":150,"algo":"exact","deadline_ms":2000}}}}"#,
        nodes - 1,
        kw_json.join(","),
    );
    let (mut busy_conn, mut busy_reader) = connect(addr);
    busy_conn.write_all(slow.as_bytes()).unwrap();
    busy_conn.write_all(b"\n").unwrap();
    // Let the worker pop the slow job so the queue is empty but busy.
    std::thread::sleep(Duration::from_millis(400));

    // Burst 40 quick requests: seq 0 takes the one queue slot, the
    // other 39 must be refused per-request, not per-connection.
    let burst: String = (0..40)
        .map(|i| format!("{{\"id\":{i},\"method\":\"health\"}}\n"))
        .collect();
    let (mut conn, mut reader) = connect(addr);
    conn.write_all(burst.as_bytes()).unwrap();

    let mut overloaded = 0;
    let mut served = 0;
    for seq in 0..40 {
        let v = read_json(&mut reader);
        match v.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => {
                served += 1;
                assert_eq!(seq, 0, "only the queued request may succeed, got seq {seq}");
            }
            Some(false) => {
                assert_eq!(error_code(&v), Some("overloaded"), "seq {seq}: {v:?}");
                assert!(
                    matches!(v.get("id"), Some(JsonValue::Null)),
                    "an overloaded line is never parsed, so its id must be null"
                );
                overloaded += 1;
            }
            None => panic!("response without ok field: {v:?}"),
        }
    }
    assert_eq!(served, 1);
    assert_eq!(overloaded, 39);

    // The pinned worker ran to its deadline.
    let slow_reply = read_json(&mut busy_reader);
    assert_eq!(error_code(&slow_reply), Some("deadline_exceeded"));

    // Stats counted every refusal, and the queue drains back to empty.
    let (mut conn, mut reader) = connect(addr);
    conn.write_all(b"{\"method\":\"stats\"}\n").unwrap();
    let stats = read_json(&mut reader);
    let server_stats = stats
        .get("result")
        .and_then(|r| r.get("server"))
        .expect("stats.server");
    assert_eq!(
        server_stats.get("overloaded").and_then(JsonValue::as_u64),
        Some(39)
    );
    assert_eq!(
        server_stats
            .get("queued_requests")
            .and_then(JsonValue::as_u64),
        Some(0)
    );

    // Full recovery: a real query on the same connection succeeds.
    conn.write_all(
        b"{\"id\":\"after\",\"method\":\"query\",\"params\":{\"dataset\":\"grid\",\"from\":0,\"to\":1,\"budget\":1000000}}\n",
    )
    .unwrap();
    let v = read_json(&mut reader);
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{v:?}"
    );
    handle.shutdown();
}

fn open_fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("proc fd dir")
        .count()
}

/// 100 connect/use/drop cycles (plus some mid-line abandons) must not
/// leak file descriptors: the reactor has to reap every dead
/// connection and return its slab slot.
#[test]
fn connection_churn_does_not_leak_fds() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert(Dataset::from_graph("fig1", figure1()));
    let addr = server.local_addr();
    let handle = server.start();

    // Warm up (lazy fds: epoll-free, but the first connection may still
    // allocate) and take the baseline.
    for _ in 0..3 {
        let (mut conn, mut reader) = connect(addr);
        conn.write_all(b"{\"method\":\"health\"}\n").unwrap();
        read_json(&mut reader);
    }
    std::thread::sleep(Duration::from_millis(100));
    let before = open_fd_count();

    for cycle in 0..100 {
        let (mut conn, mut reader) = connect(addr);
        if cycle % 3 == 0 {
            // Abandon mid-line: the server holds a partial buffer when
            // the peer vanishes.
            conn.write_all(b"{\"method\":\"hea").unwrap();
        } else {
            conn.write_all(b"{\"method\":\"health\"}\n").unwrap();
            read_json(&mut reader);
        }
        drop(conn);
        drop(reader);
    }

    // Give the reactor time to notice every hangup and reap.
    std::thread::sleep(Duration::from_millis(500));
    let after = open_fd_count();
    assert!(
        after <= before + 4,
        "fd leak: {before} fds before churn, {after} after"
    );

    // And the server still answers.
    let (mut conn, mut reader) = connect(addr);
    conn.write_all(b"{\"method\":\"health\"}\n").unwrap();
    let v = read_json(&mut reader);
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
    handle.shutdown();
}
