//! `update_edges` over real sockets.
//!
//! The dynamic-world serve battery: a live dataset is mutated
//! mid-stream on an open pipelined connection, while concurrent
//! connections keep querying. The contract under test:
//!
//! * mutations apply atomically — every response carries the graph
//!   `epoch` it was answered on, and the answer always matches a cold
//!   engine built for exactly that epoch (no torn graphs, ever);
//! * the connection survives the mutation and malformed payloads alike
//!   (structured `bad_request`, never a dropped socket).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use kor::json::JsonValue;
use kor::prelude::*;
use kor::serve::registry::Dataset;
use kor::serve::{ServeConfig, Server, ServerHandle};

fn start_server(dataset: Dataset) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_capacity: 256,
        ..ServeConfig::default()
    })
    .expect("bind");
    server.registry().insert(dataset);
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
    read_line(reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> JsonValue {
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    assert!(resp.ends_with('\n'), "response must be a full line");
    JsonValue::parse(resp.trim_end()).expect("response is valid JSON")
}

fn error_code(resp: &JsonValue) -> Option<String> {
    resp.get("error")?.get("code")?.as_str().map(str::to_string)
}

fn result_field<'a>(resp: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    resp.get("result")?.get(key)
}

fn assert_ok(resp: &JsonValue, what: &str) {
    assert_eq!(
        resp.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{what}: expected success, got {resp:?}"
    );
}

/// Figure 1 query ⟨v0, v7, {t1, t2}, 10⟩ — OS 6 on the pristine graph.
const QUERY: &str = r#"{"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#;

/// Answers the figure-1 query on a cold engine for `graph`, reduced to
/// comparable bits.
fn expected_answer(graph: &Graph) -> Option<(Vec<u64>, u64, u64)> {
    let engine = KorEngine::new(graph);
    let query = KorQuery::from_terms(graph, NodeId(0), NodeId(7), vec!["t1", "t2"], 10.0).unwrap();
    engine
        .os_scaling(&query, &OsScalingParams::with_epsilon(0.5))
        .unwrap()
        .route
        .map(|r| {
            (
                r.route.nodes().iter().map(|n| u64::from(n.0)).collect(),
                r.objective.to_bits(),
                r.budget.to_bits(),
            )
        })
}

/// Reduces a wire query response to the same comparable bits.
fn wire_answer(resp: &JsonValue) -> Option<(Vec<u64>, u64, u64)> {
    let routes = result_field(resp, "routes")?.as_arr()?;
    let r = routes.first()?;
    Some((
        r.get("nodes")?
            .as_arr()?
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect(),
        r.get("objective")?.as_f64()?.to_bits(),
        r.get("budget")?.as_f64()?.to_bits(),
    ))
}

#[test]
fn update_edges_is_atomic_midstream_event_io() {
    let (addr, handle) = start_server(Dataset::from_graph("fig1", kor::graph::fixtures::figure1()));
    let (mut conn, mut reader) = connect(addr);

    // Pipeline three requests in one write: query, mutation, query. The
    // server must answer all three in order on the same connection —
    // the mutation lands between the two queries.
    let mutation = r#"{"method":"update_edges","params":{"dataset":"fig1","mutations":[{"from":5,"to":7,"op":"close"}]}}"#;
    conn.write_all(format!("{QUERY}\n{mutation}\n{QUERY}\n").as_bytes())
        .unwrap();
    let before = read_line(&mut reader);
    let mutated = read_line(&mut reader);
    let after = read_line(&mut reader);

    assert_ok(&before, "pre-mutation query");
    assert_eq!(
        result_field(&before, "epoch").and_then(JsonValue::as_u64),
        Some(0)
    );
    assert_ok(&mutated, "update_edges");
    assert_eq!(
        result_field(&mutated, "epoch").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(
        result_field(&mutated, "edges").and_then(JsonValue::as_u64),
        Some(11)
    );
    assert_ok(&after, "post-mutation query");
    assert_eq!(
        result_field(&after, "epoch").and_then(JsonValue::as_u64),
        Some(1)
    );

    // Both answers must match cold engines for their respective epochs.
    let g0 = kor::graph::fixtures::figure1();
    let g1 = g0
        .apply_mutations(&[EdgeMutation::close(NodeId(5), NodeId(7))])
        .unwrap();
    assert_eq!(wire_answer(&before), expected_answer(&g0));
    assert_eq!(wire_answer(&after), expected_answer(&g1));

    // Malformed payloads: structured bad_request, connection survives.
    for line in [
        r#"{"method":"update_edges","params":{"dataset":"fig1","mutations":[{"from":5,"to":7,"op":"close"}]}}{"#,
        r#"{"method":"update_edges","params":{"mutations":[]}}"#,
        r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"widen"}]}}"#,
        r#"{"method":"update_edges","params":{"mutations":[{"from":0,"to":1,"op":"scale","objective":1.0,"budget":-2.0}]}}"#,
    ] {
        let resp = roundtrip(&mut conn, &mut reader, line);
        let code = error_code(&resp);
        assert!(
            matches!(code.as_deref(), Some("bad_request") | Some("parse_error")),
            "{line}: {resp:?}"
        );
    }

    // Reopening with the original weights restores the epoch-0 answer
    // on the same still-open connection.
    let reopen = r#"{"method":"update_edges","params":{"dataset":"fig1","mutations":[{"from":5,"to":7,"op":"reopen","objective":4.0,"budget":1.0}]}}"#;
    assert_ok(&roundtrip(&mut conn, &mut reader, reopen), "reopen");
    let restored = roundtrip(&mut conn, &mut reader, QUERY);
    assert_eq!(
        result_field(&restored, "epoch").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert_eq!(wire_answer(&restored), expected_answer(&g0));

    drop(conn);
    handle.shutdown();
}

/// Concurrent clients hammer queries while the main thread flips an
/// edge weight back and forth. Every response must be internally
/// consistent: the answer bit-matches the cold engine for the exact
/// epoch the response claims — a torn graph (old edges, new epoch, or
/// any mix) cannot produce that.
#[test]
fn concurrent_queries_never_observe_a_torn_graph() {
    let (addr, handle) = start_server(Dataset::from_graph("fig1", kor::graph::fixtures::figure1()));

    // One expected answer per epoch, from cold engines on the exact
    // cumulative mutation sequence the server will apply. Alternating
    // ×3.0 / ×⅓ budget scalings on edge 3 → 4 flip the Example 2
    // optimum back and forth (the scaled budgets are not bit-identical
    // to the originals, so each epoch gets its own cold graph).
    const MUTATIONS: u64 = 6;
    let batches: Vec<EdgeMutation> = (0..MUTATIONS)
        .map(|i| {
            let factor = if i % 2 == 0 { 3.0 } else { 1.0 / 3.0 };
            EdgeMutation::scale(NodeId(3), NodeId(4), 1.0, factor)
        })
        .collect();
    let mut graphs = vec![kor::graph::fixtures::figure1()];
    for m in &batches {
        let next = graphs
            .last()
            .unwrap()
            .apply_mutations(std::slice::from_ref(m))
            .unwrap();
        graphs.push(next);
    }
    let expected: Vec<_> = graphs.iter().map(expected_answer).collect();
    assert_ne!(
        expected[0], expected[1],
        "the mutation must change the answer or the check is vacuous"
    );
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let done = &done;
        let expected = &expected;
        let mut workers = Vec::new();
        for _ in 0..3 {
            workers.push(scope.spawn(move || {
                let (mut conn, mut reader) = connect(addr);
                let mut checked = 0u64;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = roundtrip(&mut conn, &mut reader, QUERY);
                    assert_ok(&resp, "concurrent query");
                    let epoch = result_field(&resp, "epoch")
                        .and_then(JsonValue::as_u64)
                        .expect("query responses carry the epoch");
                    assert!(epoch <= MUTATIONS, "epoch {epoch} out of range");
                    assert_eq!(
                        wire_answer(&resp),
                        expected[epoch as usize],
                        "epoch {epoch}: answer does not match that epoch's graph"
                    );
                    checked += 1;
                }
                checked
            }));
        }

        let (mut conn, mut reader) = connect(addr);
        for (i, m) in batches.iter().enumerate() {
            let i = i as u64;
            let (MutationKind::Scale { budget, .. } | MutationKind::Reopen { budget, .. }) = m.kind
            else {
                unreachable!("batches are scalings")
            };
            let line = format!(
                r#"{{"method":"update_edges","params":{{"mutations":[{{"from":3,"to":4,"op":"scale","objective":1.0,"budget":{budget}}}]}}}}"#
            );
            let resp = roundtrip(&mut conn, &mut reader, &line);
            assert_ok(&resp, "mutation");
            assert_eq!(
                result_field(&resp, "epoch").and_then(JsonValue::as_u64),
                Some(i + 1)
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0, "no concurrent query was ever checked");
        eprintln!("torn-graph check: {total} concurrent answers validated");
    });
    handle.shutdown();
}
