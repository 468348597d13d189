//! Shard fault injection over real sockets.
//!
//! A sharded dataset is served, then one shard is poisoned mid-stream:
//! queries owned by the poisoned shard (or crossing into it) must fail
//! with the structured `shard_unavailable` error while the connection
//! stays open and queries wholly owned by healthy shards keep
//! answering. `stats` must account the poisoned flag and the rejected
//! counter; `revive_shard` must restore service.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use kor::json::JsonValue;
use kor::prelude::*;
use kor::serve::registry::Dataset;
use kor::serve::{ServeConfig, Server, ServerHandle};

/// A deterministic sharded world, plus one node pair per shard and one
/// cross-shard pair (all picked from the same layout the server uses).
fn sharded_world() -> (Snapshot, ShardingInfo) {
    let mut world = generate_world(&GenConfig::grid(6, 5, 3));
    let info = compute_sharding(&world.graph, 2);
    world.sharding = Some(info.clone());
    (world, info)
}

fn pair_in_shard(graph: &Graph, info: &ShardingInfo, shard: u32) -> (u32, u32) {
    let mut owned = graph
        .nodes()
        .filter(|&v| info.shard_of(v) == shard)
        .map(|v| v.0);
    let a = owned.next().expect("shard is non-empty");
    let b = owned.next().expect("shard has at least two nodes");
    (a, b)
}

fn start_server(world: Snapshot) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_capacity: 256,
        ..ServeConfig::default()
    })
    .expect("bind");
    server
        .registry()
        .insert(Dataset::from_snapshot("world", world));
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

/// Sends one request line and parses the one-line JSON response.
fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> JsonValue {
    conn.write_all(line.as_bytes()).unwrap();
    conn.write_all(b"\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    assert!(resp.ends_with('\n'), "response must be a full line");
    JsonValue::parse(resp.trim_end()).expect("response is valid JSON")
}

fn query_line(from: u32, to: u32) -> String {
    format!(
        r#"{{"method":"query","params":{{"from":{from},"to":{to},"budget":1000000,"algo":"os-scaling"}}}}"#
    )
}

fn error_code(resp: &JsonValue) -> Option<String> {
    resp.get("error")?.get("code")?.as_str().map(str::to_string)
}

fn assert_ok(resp: &JsonValue, what: &str) {
    assert_eq!(
        resp.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{what}: expected success, got {resp:?}"
    );
}

#[test]
fn poisoned_shard_yields_typed_errors_event_io() {
    let (world, info) = sharded_world();
    let graph_nodes = world.graph.node_count();
    let (s0a, s0b) = pair_in_shard(&world.graph, &info, 0);
    let (s1a, s1b) = pair_in_shard(&world.graph, &info, 1);
    assert!(graph_nodes >= 4, "world too small to pick pairs");
    let (addr, handle) = start_server(world);
    let (mut conn, mut reader) = connect(addr);

    // Healthy: both shards answer; a cross-shard query fans out fine.
    for (from, to) in [(s0a, s0b), (s1a, s1b), (s0a, s1a)] {
        assert_ok(
            &roundtrip(&mut conn, &mut reader, &query_line(from, to)),
            "pre-poison query",
        );
    }

    // Poison shard 0 mid-stream, on the same connection.
    let p = roundtrip(
        &mut conn,
        &mut reader,
        r#"{"method":"poison_shard","params":{"dataset":"world","shard":0}}"#,
    );
    assert_ok(&p, "poison_shard");
    assert_eq!(
        p.get("result")
            .and_then(|r| r.get("poisoned"))
            .and_then(JsonValue::as_bool),
        Some(true)
    );

    // Shard-0-owned and cross-shard queries now fail with the typed
    // error — and the connection stays open throughout.
    for (from, to) in [(s0a, s0b), (s0a, s1a), (s1b, s0b)] {
        let resp = roundtrip(&mut conn, &mut reader, &query_line(from, to));
        assert_eq!(
            error_code(&resp).as_deref(),
            Some("shard_unavailable"),
            "query {from}->{to} against poisoned shard: {resp:?}"
        );
    }
    // Queries wholly owned by shard 1 keep answering.
    assert_ok(
        &roundtrip(&mut conn, &mut reader, &query_line(s1a, s1b)),
        "healthy-shard query during poisoning",
    );

    // Stats account the failure: poisoned flag up, 3 rejections, and
    // the healthy shard's counters still moving.
    let stats = roundtrip(&mut conn, &mut reader, r#"{"method":"stats"}"#);
    let shards = stats
        .get("result")
        .and_then(|r| r.get("datasets"))
        .and_then(JsonValue::as_arr)
        .and_then(|d| d.first())
        .and_then(|d| d.get("shards"))
        .expect("sharded dataset stats carry a shards section")
        .clone();
    assert_eq!(shards.get("count").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(shards.get("rejected").and_then(JsonValue::as_u64), Some(3));
    let per_shard = shards
        .get("per_shard")
        .and_then(JsonValue::as_arr)
        .expect("per_shard array");
    assert_eq!(
        per_shard[0].get("poisoned").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        per_shard[1].get("poisoned").and_then(JsonValue::as_bool),
        Some(false)
    );
    assert!(
        per_shard[1].get("queries").and_then(JsonValue::as_u64) >= Some(2),
        "healthy shard kept serving: {per_shard:?}"
    );

    // Revive restores full service on the same connection.
    assert_ok(
        &roundtrip(
            &mut conn,
            &mut reader,
            r#"{"method":"revive_shard","params":{"dataset":"world","shard":0}}"#,
        ),
        "revive_shard",
    );
    assert_ok(
        &roundtrip(&mut conn, &mut reader, &query_line(s0a, s0b)),
        "post-revive query",
    );

    // Misuse is rejected with bad_request, not a hang or a crash.
    for line in [
        r#"{"method":"poison_shard","params":{"dataset":"world","shard":99}}"#,
        r#"{"method":"poison_shard","params":{"dataset":"world"}}"#,
    ] {
        let resp = roundtrip(&mut conn, &mut reader, line);
        assert_eq!(error_code(&resp).as_deref(), Some("bad_request"), "{line}");
    }

    drop(conn);
    handle.shutdown();
}

/// `poison_shard` against an unsharded dataset is a `bad_request`, and
/// sharded snapshots round-trip through the wire-level `load_dataset`
/// (the response reports the shard count).
#[test]
fn load_dataset_reports_shards_and_unsharded_poison_is_rejected() {
    let dir = std::env::temp_dir().join(format!("kor-shard-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sharded.korbin");
    let (world, _) = sharded_world();
    write_snapshot(&path, &world).unwrap();

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    server.registry().insert(Dataset::from_graph(
        "plain",
        kor::graph::fixtures::figure1(),
    ));
    let addr = server.local_addr();
    let handle = server.start();
    let (mut conn, mut reader) = connect(addr);

    let resp = roundtrip(
        &mut conn,
        &mut reader,
        r#"{"method":"poison_shard","params":{"dataset":"plain","shard":0}}"#,
    );
    assert_eq!(error_code(&resp).as_deref(), Some("bad_request"));

    let load = roundtrip(
        &mut conn,
        &mut reader,
        &format!(
            r#"{{"method":"load_dataset","params":{{"path":{}}}}}"#,
            JsonValue::from(path.to_str().unwrap()).render()
        ),
    );
    assert_ok(&load, "load_dataset of a sharded snapshot");
    let result = load.get("result").expect("result");
    assert_eq!(result.get("shards").and_then(JsonValue::as_u64), Some(2));
    // The freshly loaded sharded dataset answers queries.
    let resp = roundtrip(
        &mut conn,
        &mut reader,
        r#"{"method":"query","params":{"dataset":"sharded","from":0,"to":5,"budget":1000000}}"#,
    );
    assert_ok(&resp, "query against the loaded sharded dataset");

    drop(conn);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
