//! Pipelining and framing tests for `kor serve`: N requests written in
//! one burst must return N in-order responses byte-identical to the
//! same requests sent one-connection-each, and a request line arriving
//! in many TCP segments (including segments straddling the reactor's
//! read-buffer boundary) must parse identically to a single-segment
//! arrival.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use kor::graph::fixtures::figure1;
use kor::serve::registry::Dataset;
use kor::serve::{ServeConfig, Server, ServerHandle};

fn fixture_server(threads: usize) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        // Deep queue: these tests pin ordering and byte-equivalence,
        // not backpressure (tests/serve_overload.rs covers that), so
        // no burst here may ever be answered `overloaded`.
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

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = BufReader::new(conn.try_clone().unwrap());
    (conn, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    assert!(resp.ends_with('\n'), "response must be a full line");
    resp.trim_end().to_string()
}

/// Deterministic request lines: queries and protocol errors only — no
/// `health`/`stats`, whose `uptime_ms` varies run to run.
fn canned_lines() -> Vec<String> {
    let mut lines = vec![
        r#"{"id":1,"method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#.to_string(),
        r#"{"id":2,"method":"query","params":{"from":0,"to":7,"keywords":["t1"],"budget":10,"algo":"bucket-bound","k":2}}"#.to_string(),
        "definitely not json".to_string(),
        r#"{"id":4,"method":"teleport"}"#.to_string(),
        r#"{"id":5,"method":"query","params":{"from":0,"to":7}}"#.to_string(),
        r#"{"id":6,"method":"query","params":{"from":0,"to":7,"budget":5,"dataset":"mars"}}"#.to_string(),
        r#"{"id":7,"method":"query","params":{"from":3,"to":5,"keywords":["t2"],"budget":9,"algo":"greedy"}}"#.to_string(),
        r#"{"id":8,"method":"query","params":{"from":0,"to":7,"keywords":["t3"],"budget":12,"algo":"exact"}}"#.to_string(),
    ];
    // Pad to a depth that exercises reordering under a multi-worker
    // pool (quick errors complete before slow queries dispatched
    // earlier; the reactor must still answer in request order).
    for i in 0..24 {
        lines.push(format!(
            r#"{{"id":{},"method":"query","params":{{"from":0,"to":7,"keywords":["t{}","t{}"],"budget":{},"algo":"os-scaling"}}}}"#,
            100 + i,
            1 + i % 5,
            1 + (i + 2) % 5,
            8 + i % 6,
        ));
    }
    lines
}

/// One connection per request: the non-pipelined reference bytes.
fn one_each(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|line| {
            let (mut conn, mut reader) = connect(addr);
            conn.write_all(line.as_bytes()).unwrap();
            conn.write_all(b"\n").unwrap();
            read_response(&mut reader)
        })
        .collect()
}

/// All requests in one burst on one connection.
fn one_burst(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let (mut conn, mut reader) = connect(addr);
    let mut payload = String::new();
    for line in lines {
        payload.push_str(line);
        payload.push('\n');
    }
    conn.write_all(payload.as_bytes()).unwrap();
    (0..lines.len())
        .map(|_| read_response(&mut reader))
        .collect()
}

#[test]
fn pipelined_burst_equals_one_connection_each() {
    let (addr, handle) = fixture_server(4);
    let lines = canned_lines();
    let reference = one_each(addr, &lines);
    let burst = one_burst(addr, &lines);
    assert_eq!(
        burst, reference,
        "pipelined burst must be byte-identical to one-connection-each",
    );
    handle.shutdown();
}

#[test]
fn eight_concurrent_pipelined_clients_agree() {
    let (addr, handle) = fixture_server(4);
    let lines = canned_lines();
    let reference = one_each(addr, &lines);
    let mut clients = Vec::new();
    for _ in 0..8 {
        let lines = lines.clone();
        clients.push(std::thread::spawn(move || one_burst(addr, &lines)));
    }
    for client in clients {
        let got = client.join().expect("client thread");
        assert_eq!(got, reference, "concurrent pipelined client diverged",);
    }
    handle.shutdown();
}

/// Graceful drain: a query pipelined IN FRONT of `shutdown` — both in
/// one TCP write, so the query is in flight when the shutdown lands —
/// still gets its full answer, in order, before the acknowledgement and
/// the server's exit. An in-flight request is never dropped by a
/// graceful stop.
#[test]
fn pipelined_query_in_flight_at_shutdown_is_still_answered() {
    let (addr, handle) = fixture_server(2);
    let query = r#"{"id":"last-query","method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#;
    // The reference answer, from a calm server.
    let reference = {
        let (mut conn, mut reader) = connect(addr);
        conn.write_all(query.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        read_response(&mut reader)
    };

    let (mut conn, mut reader) = connect(addr);
    conn.write_all(format!("{query}\n{{\"id\":\"bye\",\"method\":\"shutdown\"}}\n").as_bytes())
        .unwrap();
    let answered = read_response(&mut reader);
    assert_eq!(
        answered, reference,
        "the in-flight query must drain with its full answer",
    );
    let bye = read_response(&mut reader);
    assert!(
        bye.contains("\"stopping\":true"),
        "shutdown acknowledged after the drain: {bye}",
    );
    drop(conn);
    // The server actually stops — join() returns instead of hanging.
    handle.join();
}

/// Regression: a request line trickled in many small TCP segments —
/// with pauses, so every reactor read sees a partial line — must parse
/// identically to the same line arriving whole.
#[test]
fn segmented_request_parses_like_single_segment() {
    let (addr, handle) = fixture_server(2);
    let line = r#"{"id":"seg","method":"query","params":{"from":0,"to":7,"keywords":["t1","t2"],"budget":10,"algo":"os-scaling"}}"#;

    let whole = {
        let (mut conn, mut reader) = connect(addr);
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        read_response(&mut reader)
    };

    let (mut conn, mut reader) = connect(addr);
    for (i, chunk) in line.as_bytes().chunks(3).enumerate() {
        conn.write_all(chunk).unwrap();
        conn.flush().unwrap();
        if i % 8 == 0 {
            // Long enough that the reactor is guaranteed to have
            // polled the socket mid-line several times.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    std::thread::sleep(Duration::from_millis(5));
    conn.write_all(b"\n").unwrap();
    let segmented = read_response(&mut reader);
    assert_eq!(segmented, whole, "segmented arrival changed the response",);
    handle.shutdown();
}

/// Regression: a single request line larger than the reactor's 16 KiB
/// scratch read buffer straddles several reads; it must parse (and
/// answer) identically to the same line sent in one segment, and the
/// id — however large — must round-trip.
#[test]
fn line_straddling_read_buffer_boundary_parses_identically() {
    let (addr, handle) = fixture_server(2);
    // ~40 KB id: the line cannot fit in one 16 KiB reactor read.
    let big_id = "x".repeat(40_000);
    let line = format!(
        r#"{{"id":"{big_id}","method":"query","params":{{"from":0,"to":7,"keywords":["t1"],"budget":10}}}}"#
    );

    let whole = {
        let (mut conn, mut reader) = connect(addr);
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        read_response(&mut reader)
    };
    assert!(whole.contains(&big_id), "id must round-trip");
    assert!(whole.contains("\"ok\":true"), "{}", &whole[..120]);

    // The same line dribbled in 1000-byte segments with pauses at
    // scratch-buffer-sized strides.
    let (mut conn, mut reader) = connect(addr);
    for (i, chunk) in line.as_bytes().chunks(1000).enumerate() {
        conn.write_all(chunk).unwrap();
        if i % 16 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    conn.write_all(b"\n").unwrap();
    let segmented = read_response(&mut reader);
    assert_eq!(
        segmented, whole,
        "buffer-straddling arrival changed the response",
    );
    handle.shutdown();
}
