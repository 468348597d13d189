//! The write-ahead journal over real sockets.
//!
//! The crash-safety contract under test, without crashing anything
//! (the fault-injected crash smoke lives in `tests/crash_recovery.rs`):
//!
//! * a journaled `update_edges` acknowledges only after the batch is
//!   durable (`journaled: true` on the wire), and a fresh server
//!   pointed at the same journal directory recovers the exact world —
//!   query responses byte-identical across the restart;
//! * `stats` exposes the journal (epoch, records, what recovery
//!   replayed) and the server-wide `journaling` flag;
//! * `update_edges` racing `load_dataset` on the same name never tears
//!   state: epochs stay monotone per name, every answer matches the
//!   epoch it claims, and the journal ends at exactly the number of
//!   acknowledged batches.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use kor::json::JsonValue;
use kor::prelude::*;
use kor::serve::{ServeConfig, Server, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kor-serve-journal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_journaled(journal: &Path, world_path: &Path) -> (SocketAddr, ServerHandle) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        queue_capacity: 256,
        journal: Some(journal.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind");
    server
        .attach_dataset("world", world_path)
        .expect("attach dataset");
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

fn assert_ok(resp: &JsonValue, what: &str) {
    assert_eq!(
        resp.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "{what}: expected success, got {resp:?}"
    );
}

fn result_u64(resp: &JsonValue, key: &str) -> Option<u64> {
    resp.get("result")?.get(key)?.as_u64()
}

/// A mutation line scaling the budget of a real edge of `graph`.
fn scale_line(graph: &Graph, factor: f64) -> String {
    let (u, w) = graph
        .nodes()
        .flat_map(|u| graph.out_edges(u).map(move |e| (u, e.node)))
        .next()
        .expect("the world has edges");
    format!(
        r#"{{"id":"mut","method":"update_edges","params":{{"dataset":"world","mutations":[{{"from":{},"to":{},"op":"scale","objective":1.0,"budget":{factor}}}]}}}}"#,
        u.0, w.0
    )
}

/// A canned-query request line with a fixed id, rendered once so the
/// pre- and post-restart responses are byte-comparable.
fn query_line(world: &Snapshot, i: usize) -> String {
    let q = &world.query_sets[0].queries[i % world.query_sets[0].queries.len()];
    let terms: Vec<JsonValue> = q
        .keywords
        .iter()
        .map(|k| JsonValue::from(world.graph.vocab().resolve(*k).unwrap()))
        .collect();
    format!(
        r#"{{"id":"q","method":"query","params":{{"dataset":"world","from":{},"to":{},"keywords":{},"budget":{},"algo":"os-scaling"}}}}"#,
        q.source.0,
        q.target.0,
        JsonValue::Arr(terms).render(),
        JsonValue::from(q.budget).render(),
    )
}

#[test]
fn journaled_mutations_survive_a_restart_event_io() {
    let dir = temp_dir("restart-event");
    let world = generate_world(&GenConfig::grid(6, 5, 3));
    let world_path = dir.join("world.korbin");
    write_snapshot(&world_path, &world).unwrap();
    let jdir = dir.join("journal");

    let (addr, handle) = start_journaled(&jdir, &world_path);
    let (mut conn, mut reader) = connect(addr);

    // Three acknowledged, journaled batches.
    for (i, factor) in [1.5, 2.0, 0.25].into_iter().enumerate() {
        let resp = roundtrip(&mut conn, &mut reader, &scale_line(&world.graph, factor));
        assert_ok(&resp, "journaled update_edges");
        assert_eq!(
            resp.get("result").unwrap().get("journaled"),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(result_u64(&resp, "epoch"), Some(i as u64 + 1));
    }

    // Capture post-mutation answers to replay after the restart.
    let queries: Vec<String> = (0..4).map(|i| query_line(&world, i)).collect();
    let before: Vec<String> = queries
        .iter()
        .map(|q| roundtrip(&mut conn, &mut reader, q).render())
        .collect();

    // The stats section tells the whole journal story.
    let stats = roundtrip(&mut conn, &mut reader, r#"{"id":"s","method":"stats"}"#);
    assert_ok(&stats, "stats");
    let server = stats.get("result").unwrap().get("server").unwrap();
    assert_eq!(server.get("journaling"), Some(&JsonValue::Bool(true)));
    let ds = &stats
        .get("result")
        .unwrap()
        .get("datasets")
        .unwrap()
        .as_arr()
        .unwrap()[0];
    let journal = ds.get("journal").expect("journaled dataset stats");
    assert_eq!(journal.get("epoch").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(journal.get("records").and_then(JsonValue::as_u64), Some(3));
    assert_eq!(
        journal.get("recovered_batches").and_then(JsonValue::as_u64),
        Some(0),
        "a fresh journal has nothing to recover"
    );

    drop(conn);
    handle.shutdown();

    // A cold server on the same journal directory: recovery replays the
    // three batches and every answer is byte-identical.
    let (addr, handle) = start_journaled(&jdir, &world_path);
    let (mut conn, mut reader) = connect(addr);
    let stats = roundtrip(&mut conn, &mut reader, r#"{"id":"s","method":"stats"}"#);
    let ds = &stats
        .get("result")
        .unwrap()
        .get("datasets")
        .unwrap()
        .as_arr()
        .unwrap()[0];
    assert_eq!(ds.get("epoch").and_then(JsonValue::as_u64), Some(3));
    let journal = ds.get("journal").expect("journaled dataset stats");
    assert_eq!(
        journal.get("recovered_batches").and_then(JsonValue::as_u64),
        Some(3)
    );
    assert_eq!(
        journal.get("recovered_epoch").and_then(JsonValue::as_u64),
        Some(3)
    );
    for (q, want) in queries.iter().zip(&before) {
        let got = roundtrip(&mut conn, &mut reader, q).render();
        assert_eq!(&got, want, "answers must survive the restart bit-for-bit");
    }

    drop(conn);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `update_edges` racing `load_dataset` on the same name, under
/// concurrent query load: no torn state, epochs monotone, and the
/// journal ends at exactly the acknowledged batch count.
#[test]
fn update_edges_racing_load_dataset_keeps_epochs_monotone() {
    let dir = temp_dir("race");
    let world = generate_world(&GenConfig::grid(6, 5, 3));
    let world_path = dir.join("world.korbin");
    write_snapshot(&world_path, &world).unwrap();
    let jdir = dir.join("journal");

    let (addr, handle) = start_journaled(&jdir, &world_path);

    const BATCHES: u64 = 12;
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let done = &done;
        let world = &world;
        let world_path = &world_path;

        // Queriers: every response must be ok and carry a sane epoch.
        let mut queriers = Vec::new();
        for _ in 0..2 {
            queriers.push(scope.spawn(move || {
                let (mut conn, mut reader) = connect(addr);
                let mut checked = 0u64;
                let mut i = 0;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = roundtrip(&mut conn, &mut reader, &query_line(world, i));
                    assert_ok(&resp, "concurrent query");
                    let epoch = result_u64(&resp, "epoch").expect("epoch on query");
                    assert!(epoch <= BATCHES, "epoch {epoch} out of range");
                    checked += 1;
                    i += 1;
                }
                checked
            }));
        }

        // Reloader: re-attach the same dataset by name, over and over.
        // Every load replays the journal, so its reported recovered
        // epoch can never exceed the batches acknowledged so far.
        let reloader = scope.spawn(move || {
            let (mut conn, mut reader) = connect(addr);
            let load = format!(
                r#"{{"id":"load","method":"load_dataset","params":{{"name":"world","path":{}}}}}"#,
                JsonValue::from(world_path.to_str().unwrap()).render()
            );
            let mut loads = 0u64;
            let mut last_recovered = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let resp = roundtrip(&mut conn, &mut reader, &load);
                assert_ok(&resp, "concurrent load_dataset");
                let recovered = result_u64(&resp, "recovered_epoch").expect("recovered_epoch");
                assert!(
                    recovered >= last_recovered,
                    "recovery went backwards: {recovered} < {last_recovered}"
                );
                assert!(recovered <= BATCHES);
                last_recovered = recovered;
                loads += 1;
                std::thread::sleep(Duration::from_millis(3));
            }
            loads
        });

        // Mutator: acknowledged batches must see strictly increasing
        // epochs even though loads keep swapping the dataset under it.
        let (mut conn, mut reader) = connect(addr);
        let mut last_epoch = 0u64;
        for i in 0..BATCHES {
            let factor = if i % 2 == 0 { 2.0 } else { 0.5 };
            let resp = roundtrip(&mut conn, &mut reader, &scale_line(&world.graph, factor));
            assert_ok(&resp, "racing update_edges");
            assert_eq!(
                resp.get("result").unwrap().get("journaled"),
                Some(&JsonValue::Bool(true))
            );
            let epoch = result_u64(&resp, "epoch").expect("epoch on update");
            assert!(
                epoch > last_epoch,
                "epoch must be strictly monotone: {epoch} after {last_epoch}"
            );
            last_epoch = epoch;
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(last_epoch, BATCHES, "every batch advanced the epoch once");

        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = queriers.into_iter().map(|w| w.join().unwrap()).sum();
        let loads = reloader.join().unwrap();
        assert!(total > 0, "no concurrent query was ever checked");
        assert!(loads > 0, "no concurrent load ever raced the mutator");
        eprintln!("race check: {total} queries, {loads} reloads, {BATCHES} batches");

        // Final state: the journal holds exactly the acknowledged
        // batches and a fresh load replays all of them.
        let load = format!(
            r#"{{"id":"final","method":"load_dataset","params":{{"name":"world","path":{}}}}}"#,
            JsonValue::from(world_path.to_str().unwrap()).render()
        );
        let resp = roundtrip(&mut conn, &mut reader, &load);
        assert_ok(&resp, "final load_dataset");
        assert_eq!(result_u64(&resp, "recovered_epoch"), Some(BATCHES));
        assert_eq!(result_u64(&resp, "recovered_batches"), Some(BATCHES));
    });

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
