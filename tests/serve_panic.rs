//! Per-request panic isolation over real sockets.
//!
//! The `serve-request` fault point injects a panic into the handler for
//! exactly one request. The contract: the poisoned request gets a
//! structured `internal_error` response with its id preserved, the SAME
//! connection keeps answering (no dropped socket, no dead worker), and
//! `stats.server.panics` counts the event.
//!
//! The fault-point registry is process-global, so this battery lives in
//! its own integration-test binary (own process) and arms its spec, which
//! fires exactly once, inside one `#[test]`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use kor::json::JsonValue;
use kor::serve::registry::Dataset;
use kor::serve::{ServeConfig, Server, ServerHandle};

fn start_server() -> (SocketAddr, ServerHandle) {
    // One worker: the one-shot panic fires on whichever pipelined
    // request a worker reaches first, so with a single worker that is
    // always the first line written — the victim query.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        queue_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert(Dataset::from_graph("fig1", kor::graph::fixtures::figure1()));
    let addr = server.local_addr();
    (addr, server.start())
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(conn.try_clone().unwrap());
    (conn, reader)
}

fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> JsonValue {
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    assert!(resp.ends_with('\n'), "response must be a full line");
    JsonValue::parse(resp.trim_end()).expect("response is valid JSON")
}

#[test]
fn a_panicking_request_costs_one_response_not_the_connection() {
    let (addr, handle) = start_server();
    let (mut conn, mut reader) = connect(addr);

    // Arm a one-shot panic for the NEXT handled request, then pipeline
    // three requests in one write: the poisoned one and two healthy
    // neighbors. All three must be answered, in order, on this one
    // connection — the panic costs exactly one response.
    kor::data::faultpoint::arm("serve-request:panic").expect("arm fault point");
    let query = r#"{"id":"victim","method":"query","params":{"dataset":"fig1","from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#;
    let health = r#"{"id":"alive","method":"health"}"#;
    conn.write_all(format!("{query}\n{health}\n{health}\n").as_bytes())
        .unwrap();
    let poisoned = {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("poisoned response");
        JsonValue::parse(resp.trim_end()).expect("valid JSON")
    };
    assert_eq!(
        poisoned.get("ok").and_then(JsonValue::as_bool),
        Some(false),
        "poisoned request must fail structurally: {poisoned:?}"
    );
    assert_eq!(
        poisoned.get("id").and_then(JsonValue::as_str),
        Some("victim"),
        "the id survives the panic"
    );
    assert_eq!(
        poisoned
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(JsonValue::as_str),
        Some("internal_error"),
        "{poisoned:?}"
    );

    for _ in 0..2 {
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("pipelined neighbor");
        let v = JsonValue::parse(resp.trim_end()).unwrap();
        assert_eq!(
            v.get("ok").and_then(JsonValue::as_bool),
            Some(true),
            "the connection must survive the panic: {v:?}"
        );
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some("alive"));
    }

    // The same query succeeds now that the fault point is spent, and
    // the panic counter recorded exactly one event.
    let retried = roundtrip(&mut conn, &mut reader, query);
    assert_eq!(retried.get("ok").and_then(JsonValue::as_bool), Some(true));
    let stats = roundtrip(&mut conn, &mut reader, r#"{"id":"s","method":"stats"}"#);
    assert_eq!(
        stats
            .get("result")
            .and_then(|r| r.get("server"))
            .and_then(|s| s.get("panics"))
            .and_then(JsonValue::as_u64),
        Some(1),
        "{stats:?}"
    );

    drop(conn);
    handle.shutdown();
}
