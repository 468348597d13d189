//! Seeded protocol fuzzer for `kor serve`: deterministic per seed, it
//! throws split/merged frames, mid-line disconnects, oversized lines,
//! interleaved blank lines, and binary garbage at a live server and
//! asserts the server never dies, every well-formed request line gets
//! exactly one well-formed JSON reply (with its id echoed), and
//! malformed input yields `parse_error` — not silence, not a dropped
//! connection. Fuzzed queries cycle through every algorithm, and no
//! fuzzed line may make a handler panic.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kor::graph::fixtures::figure1;
use kor::json::JsonValue;
use kor::serve::registry::Dataset;
use kor::serve::{ServeConfig, Server, ServerHandle};

fn fixture_server() -> (SocketAddr, ServerHandle) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        // Deep queue: this suite pins framing/parsing behavior, so no
        // fuzzed line may be answered `overloaded` (that would change
        // the expected reply).
        queue_capacity: 4096,
        ..ServeConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert(Dataset::from_graph("fig1", figure1()));
    let addr = server.local_addr();
    (addr, server.start())
}

/// What one fuzzed line must produce.
enum Expect {
    /// A well-formed JSON reply echoing this numeric id.
    Reply(u64),
    /// A `parse_error` reply (with a null id — the line never parsed).
    ParseError,
    /// Nothing: blank lines are skipped.
    Silence,
}

/// One fuzzed line (newline NOT included) plus its expectation.
struct FuzzLine {
    bytes: Vec<u8>,
    expect: Expect,
}

/// The wire names of every search algorithm.
const ALGOS: [&str; 4] = ["os-scaling", "bucket-bound", "exact", "greedy"];

fn gen_line(rng: &mut StdRng, next_id: &mut u64) -> FuzzLine {
    match rng.gen_range(0..6u32) {
        // Valid query with randomized endpoints/keywords/budget; any
        // outcome (ok or structured error) is a well-formed reply.
        0 | 1 => {
            let id = *next_id;
            *next_id += 1;
            let from = rng.gen_range(0..8u32);
            let to = rng.gen_range(0..8u32);
            let n_kw = rng.gen_range(0..3usize);
            let kws: Vec<String> = (0..n_kw)
                .map(|_| format!("\"t{}\"", rng.gen_range(1..6u32)))
                .collect();
            let budget = rng.gen_range(3..15u32);
            // Picked by id, so the RNG stream (and every other fuzzed
            // line) is what it was before queries named an algorithm.
            let algo = ALGOS[id as usize % ALGOS.len()];
            let line = format!(
                r#"{{"id":{id},"method":"query","params":{{"from":{from},"to":{to},"keywords":[{}],"budget":{budget},"algo":"{algo}"}}}}"#,
                kws.join(",")
            );
            FuzzLine {
                bytes: line.into_bytes(),
                expect: Expect::Reply(id),
            }
        }
        // Valid health request.
        2 => {
            let id = *next_id;
            *next_id += 1;
            FuzzLine {
                bytes: format!(r#"{{"id":{id},"method":"health"}}"#).into_bytes(),
                expect: Expect::Reply(id),
            }
        }
        // Printable garbage (never valid JSON: starts with a letter).
        3 => {
            let len = rng.gen_range(1..60usize);
            let mut s = String::from("g");
            for _ in 0..len {
                s.push((b' ' + (rng.gen_range(0..95u32) as u8)) as char);
            }
            FuzzLine {
                bytes: s.into_bytes(),
                expect: Expect::ParseError,
            }
        }
        // Binary garbage: arbitrary non-newline bytes, at least one of
        // them clearly non-whitespace and non-JSON.
        4 => {
            let len = rng.gen_range(1..80usize);
            let mut bytes = vec![0xFFu8];
            for _ in 0..len {
                let b = loop {
                    let b = rng.gen_range(0..256u32) as u8;
                    if b != b'\n' {
                        break b;
                    }
                };
                bytes.push(b);
            }
            FuzzLine {
                bytes,
                expect: Expect::ParseError,
            }
        }
        // Blank line: empty or whitespace-only.
        _ => {
            let pad = rng.gen_range(0..4usize);
            FuzzLine {
                bytes: vec![b' '; pad],
                expect: Expect::Silence,
            }
        }
    }
}

/// Writes `payload` in randomly-sized chunks with occasional pauses, so
/// the server sees split and merged frames in every combination.
fn write_chunked(rng: &mut StdRng, conn: &mut TcpStream, payload: &[u8]) {
    let mut at = 0;
    while at < payload.len() {
        let n = rng.gen_range(1..64usize).min(payload.len() - at);
        conn.write_all(&payload[at..at + n]).expect("chunk write");
        at += n;
        if rng.gen_bool(0.15) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// One fuzzed connection: a random script of lines, a random framing,
/// and (sometimes) a trailing partial line followed by a disconnect.
/// Returns how many well-formed replies were checked.
fn fuzz_connection(rng: &mut StdRng, addr: SocketAddr, next_id: &mut u64) -> usize {
    let n_lines = rng.gen_range(1..10usize);
    let lines: Vec<FuzzLine> = (0..n_lines).map(|_| gen_line(rng, next_id)).collect();
    let mut payload = Vec::new();
    for line in &lines {
        payload.extend_from_slice(&line.bytes);
        payload.push(b'\n');
    }
    // Mid-line disconnect: a committed-looking prefix with no newline.
    // The server must not answer it and must not die.
    let partial = rng.gen_bool(0.3);
    if partial {
        payload.extend_from_slice(br#"{"id":999999,"method":"hea"#);
    }

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    write_chunked(rng, &mut conn, &payload);

    let mut checked = 0;
    for line in &lines {
        match line.expect {
            Expect::Silence => continue,
            Expect::Reply(id) => {
                let mut resp = String::new();
                reader.read_line(&mut resp).expect("reply for valid line");
                let v = JsonValue::parse(resp.trim()).unwrap_or_else(|e| {
                    panic!("malformed reply {resp:?}: {e:?}");
                });
                assert_eq!(
                    v.get("id").and_then(JsonValue::as_u64),
                    Some(id),
                    "id must echo in {resp}"
                );
                assert!(v.get("ok").and_then(JsonValue::as_bool).is_some());
                checked += 1;
            }
            Expect::ParseError => {
                let mut resp = String::new();
                reader.read_line(&mut resp).expect("reply for garbage line");
                let v = JsonValue::parse(resp.trim())
                    .unwrap_or_else(|e| panic!("malformed reply {resp:?}: {e:?}"));
                assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
                assert_eq!(
                    v.get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(JsonValue::as_str),
                    Some("parse_error"),
                    "garbage must yield parse_error, got {resp}"
                );
                checked += 1;
            }
        }
    }
    // Drop with the partial line unanswered (if any): an uncommitted
    // request must simply vanish.
    drop(conn);
    checked
}

fn run_fuzz(seed: u64, connections: usize) {
    let (addr, handle) = fixture_server();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u64;
    let mut checked = 0;
    for _ in 0..connections {
        checked += fuzz_connection(&mut rng, addr, &mut next_id);
    }
    assert!(checked > connections, "fuzz exercised too few replies");

    // The server survived everything above: a fresh connection gets
    // normal service.
    let mut conn = TcpStream::connect(addr).expect("server still accepts");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(b"{\"id\":424242,\"method\":\"health\"}\n")
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("424242"), "{resp}");

    // No fuzzed line reached a panic in any handler.
    conn.write_all(b"{\"id\":424243,\"method\":\"stats\"}\n")
        .unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let stats = JsonValue::parse(resp.trim_end()).expect("stats reply is JSON");
    let panics = stats
        .get("result")
        .and_then(|r| r.get("server"))
        .and_then(|s| s.get("panics"))
        .and_then(JsonValue::as_u64);
    assert_eq!(panics, Some(0), "{resp}");
    handle.shutdown();
}

#[test]
fn fuzz_event_io() {
    run_fuzz(0x6b07, 30);
}

#[test]
fn fuzz_event_io_alternate_seed() {
    run_fuzz(20120807, 30);
}

/// One seeded malformed `update_edges` line. Every variant is invalid
/// in a different layer: JSON shape, unknown fields, bad ops, bad
/// multiplier domains (including `1e999`, which parses to infinity),
/// edges or nodes that do not exist, duplicates, and self-loops.
fn malformed_update_edges(rng: &mut StdRng, id: u64) -> Vec<u8> {
    let body = match rng.gen_range(0..12u32) {
        0 => r#"{}"#.to_string(),
        1 => r#"{"mutations":[]}"#.to_string(),
        2 => r#"{"mutations":42}"#.to_string(),
        3 => r#"{"mutations":["close"]}"#.to_string(),
        4 => format!(
            r#"{{"mutations":[{{"from":{},"to":{},"op":"demolish"}}]}}"#,
            rng.gen_range(0..8u32),
            rng.gen_range(0..8u32)
        ),
        5 => r#"{"mutations":[{"from":0,"to":1,"op":"close","objective":1.0,"budget":1.0}]}"#
            .to_string(),
        6 => r#"{"mutations":[{"from":0,"to":1,"op":"scale","objective":1.0}]}"#.to_string(),
        // 1e999 overflows to +inf — must be a typed rejection, not a
        // served infinity.
        7 => r#"{"mutations":[{"from":0,"to":1,"op":"scale","objective":1e999,"budget":1.0}]}"#
            .to_string(),
        8 => format!(
            r#"{{"mutations":[{{"from":0,"to":1,"op":"scale","objective":{},"budget":1.0}}]}}"#,
            ["0.0", "-1.5", "-0.0"][rng.gen_range(0..3usize)]
        ),
        // (7, 0) and (1, 0) are not edges of figure 1; node 99 is not a
        // node at all.
        9 => format!(
            r#"{{"mutations":[{{"from":{},"to":0,"op":"close"}}]}}"#,
            [7u32, 1, 99][rng.gen_range(0..3usize)]
        ),
        10 => r#"{"mutations":[{"from":0,"to":1,"op":"close"},{"from":0,"to":1,"op":"close"}]}"#
            .to_string(),
        _ => format!(
            r#"{{"mutations":[{{"from":{0},"to":{0},"op":"close"}}]}}"#,
            rng.gen_range(0..8u32)
        ),
    };
    format!(r#"{{"id":{id},"method":"update_edges","params":{body}}}"#).into_bytes()
}

/// A storm of malformed `update_edges` lines (chunk-framed, interleaved
/// with valid queries) must produce one structured `bad_request` per
/// line, leave the dataset at epoch 0 — no partial batch may ever
/// apply — and leave the server serving.
#[test]
fn fuzz_update_edges_event_io() {
    let (addr, handle) = fixture_server();
    let mut rng = StdRng::seed_from_u64(0xED6E5);

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    let mut checked = 0;
    for id in 0..120u64 {
        let payload = if id % 5 == 4 {
            // Interleave a valid query so real traffic flows throughout.
            format!(
                r#"{{"id":{id},"method":"query","params":{{"from":0,"to":7,"keywords":["t1"],"budget":10}}}}"#
            )
            .into_bytes()
        } else {
            malformed_update_edges(&mut rng, id)
        };
        let mut framed = payload.clone();
        framed.push(b'\n');
        write_chunked(&mut rng, &mut conn, &framed);

        let mut resp = String::new();
        reader.read_line(&mut resp).expect("reply");
        let v = JsonValue::parse(resp.trim())
            .unwrap_or_else(|e| panic!("malformed reply {resp:?}: {e:?}"));
        assert_eq!(v.get("id").and_then(JsonValue::as_u64), Some(id), "{resp}");
        if id % 5 == 4 {
            assert_eq!(
                v.get("ok").and_then(JsonValue::as_bool),
                Some(true),
                "{resp}"
            );
        } else {
            assert_eq!(
                v.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(JsonValue::as_str),
                Some("bad_request"),
                "line {:?} must be a structured rejection, got {resp}",
                String::from_utf8_lossy(&payload)
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 120);

    // Not one of the rejected batches may have touched the graph.
    conn.write_all(b"{\"id\":9000,\"method\":\"stats\"}\n")
        .unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let stats = JsonValue::parse(resp.trim()).unwrap();
    let ds = stats
        .get("result")
        .and_then(|r| r.get("datasets"))
        .and_then(JsonValue::as_arr)
        .and_then(|d| d.first())
        .expect("dataset stats");
    assert_eq!(ds.get("epoch").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(ds.get("edges").and_then(JsonValue::as_u64), Some(12));

    handle.shutdown();
}

/// Oversized lines are their own terminal case: the server must answer
/// `request_too_large` and close — even when the oversized line never
/// ends (no newline arrives before the cap trips).
#[test]
fn oversized_lines_are_rejected_not_buffered() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        max_request_bytes: 256,
        ..ServeConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert(Dataset::from_graph("fig1", figure1()));
    let addr = server.local_addr();
    let handle = server.start();

    // Terminated oversized line.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(&vec![b'x'; 600]).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("request_too_large"), "{resp}",);
    let mut next = String::new();
    assert_eq!(reader.read_line(&mut next).unwrap(), 0, "then hangs up");

    // Unterminated oversized line: the cap must trip on buffered
    // bytes alone, not wait forever for a newline.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(&vec![b'y'; 2048]).unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("request_too_large"), "{resp}",);

    // The server is unharmed.
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(b"{\"method\":\"health\"}\n").unwrap();
    let mut resp = String::new();
    BufReader::new(conn).read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    handle.shutdown();
}
