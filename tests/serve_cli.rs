//! End-to-end test for `kor serve`: spawn the real binary on an
//! ephemeral port, talk to it over real TCP sockets — concurrent
//! queries, runtime dataset loading, malformed requests, deadlines —
//! and check that query results are identical to the equivalent
//! single-shot `kor query` CLI invocation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use kor::json::JsonValue;

fn kor_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kor"))
}

fn kor(args: &[&str]) -> std::process::Output {
    kor_cmd().args(args).output().expect("spawn kor binary")
}

/// Kills the server child on drop so a failing assertion never leaks a
/// listening process.
struct ServerGuard {
    child: Child,
    addr: String,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(args: &[&str]) -> ServerGuard {
    let mut child = kor_cmd()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kor serve");
    // The server prints exactly one stdout line before serving:
    // `kor serve: listening on 127.0.0.1:PORT`.
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut line = String::new();
        let _ = BufReader::new(stdout).read_line(&mut line);
        let _ = tx.send(line);
    });
    let line = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("server must announce its address");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address token")
        .to_string();
    assert!(
        line.contains("listening on") && addr.contains(':'),
        "unexpected announcement {line:?}"
    );
    ServerGuard { child, addr }
}

/// Sends request lines over one connection and returns one trimmed
/// response line per request, in order.
fn roundtrip(addr: &str, lines: &[&str]) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut out = Vec::new();
    for line in lines {
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read response");
        assert!(resp.ends_with('\n'), "response must be one full line");
        out.push(resp.trim_end().to_string());
    }
    out
}

fn parse_ok(resp: &str) -> JsonValue {
    let v = JsonValue::parse(resp).expect("response parses");
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "expected ok:true in {resp}"
    );
    v.get("result").expect("result present").clone()
}

fn error_code(resp: &str) -> String {
    let v = JsonValue::parse(resp).expect("response parses");
    assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(false));
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
        .expect("error.code present")
        .to_string()
}

/// First route of a query result as `(nodes, objective, budget)`.
fn first_route(result: &JsonValue) -> (Vec<u64>, f64, f64) {
    let route = &result.get("routes").unwrap().as_arr().unwrap()[0];
    let nodes = route
        .get("nodes")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|n| n.as_u64().unwrap())
        .collect();
    (
        nodes,
        route.get("objective").and_then(JsonValue::as_f64).unwrap(),
        route.get("budget").and_then(JsonValue::as_f64).unwrap(),
    )
}

/// Parses `kor query` CLI stdout: the `#1 OS x BS y (n stops)` line and
/// the `v0[...] -> v1 -> …` route line.
fn parse_cli_route(stdout: &str) -> Option<(Vec<u64>, String, String)> {
    if stdout.contains("no feasible route") {
        return None;
    }
    let mut lines = stdout.lines();
    let head = lines.next().expect("result line");
    let toks: Vec<&str> = head.split_whitespace().collect();
    assert_eq!(toks[0], "#1", "unexpected CLI output: {stdout}");
    let os = toks[2].to_string();
    let bs = toks[4].to_string();
    let route_line = lines.next().expect("route line");
    let nodes = route_line
        .trim()
        .split(" -> ")
        .map(|tok| {
            let digits: String = tok
                .trim_start_matches('v')
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().expect("node id")
        })
        .collect();
    Some((nodes, os, bs))
}

#[test]
fn serve_end_to_end() {
    let dir = std::env::temp_dir().join(format!("kor-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let city: PathBuf = dir.join("city.korg");
    let second: PathBuf = dir.join("second.korg");

    for (path, seed) in [(&city, "5"), (&second, "9")] {
        let gen = kor(&[
            "generate",
            "road",
            "--nodes",
            "200",
            "--seed",
            seed,
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(gen.status.success(), "generate failed");
    }

    // A keyword that certainly occurs in the dataset.
    let graph = kor::data::load_graph(&city).unwrap();
    let kw = graph
        .vocab()
        .iter()
        .find(|(id, _)| graph.nodes().any(|n| graph.node_has_keyword(n, *id)))
        .map(|(_, t)| t.to_string())
        .unwrap();

    let mut server = spawn_server(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "3",
        "--dataset",
        &format!("city={}", city.to_str().unwrap()),
    ]);
    let addr = server.addr.clone();

    // --- health + stats ---
    let responses = roundtrip(&addr, &[r#"{"id":1,"method":"health"}"#]);
    let health = parse_ok(&responses[0]);
    assert_eq!(health.get("status").and_then(JsonValue::as_str), Some("ok"));
    assert_eq!(health.get("datasets").and_then(JsonValue::as_u64), Some(1));

    let responses = roundtrip(&addr, &[r#"{"id":2,"method":"stats"}"#]);
    let stats = parse_ok(&responses[0]);
    let ds = &stats.get("datasets").unwrap().as_arr().unwrap()[0];
    assert_eq!(ds.get("name").and_then(JsonValue::as_str), Some("city"));
    assert_eq!(ds.get("nodes").and_then(JsonValue::as_u64), Some(200));

    // --- concurrent identical queries must produce identical bytes ---
    let query_line = format!(
        r#"{{"id":7,"method":"query","params":{{"dataset":"city","from":0,"to":100,"keywords":[{}],"budget":1000,"algo":"bucket-bound"}}}}"#,
        JsonValue::from(kw.as_str()).render()
    );
    let mut workers = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        let line = query_line.clone();
        workers.push(std::thread::spawn(move || {
            roundtrip(&addr, &[&line]).remove(0)
        }));
    }
    let concurrent: Vec<String> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for resp in &concurrent {
        assert_eq!(
            resp, &concurrent[0],
            "concurrent responses must be byte-identical"
        );
    }
    let served = parse_ok(&concurrent[0]);

    // --- the served result equals the single-shot CLI invocation ---
    let cli = kor(&[
        "query",
        city.to_str().unwrap(),
        "--from",
        "0",
        "--to",
        "100",
        "--keywords",
        &kw,
        "--budget",
        "1000",
        "--algo",
        "bucket-bound",
    ]);
    assert!(cli.status.success());
    let cli_stdout = String::from_utf8_lossy(&cli.stdout);
    match parse_cli_route(&cli_stdout) {
        None => {
            assert_eq!(
                served.get("feasible").and_then(JsonValue::as_bool),
                Some(false)
            );
        }
        Some((cli_nodes, cli_os, cli_bs)) => {
            assert_eq!(
                served.get("feasible").and_then(JsonValue::as_bool),
                Some(true)
            );
            let (nodes, objective, budget) = first_route(&served);
            assert_eq!(nodes, cli_nodes, "route node sequences must agree");
            // The CLI prints scores at 4 decimal places; the server
            // returns full-precision numbers. Formatted identically,
            // the bytes must match.
            assert_eq!(format!("{objective:.4}"), cli_os);
            assert_eq!(format!("{budget:.4}"), cli_bs);
        }
    }

    // The same query again (empty keywords, exact algorithm) — both
    // feasibility and scores must agree with the CLI.
    let exact_line = r#"{"id":8,"method":"query","params":{"from":0,"to":100,"keywords":[],"budget":1000,"algo":"exact"}}"#;
    let served_exact = parse_ok(&roundtrip(&addr, &[exact_line])[0]);
    let cli = kor(&[
        "query",
        city.to_str().unwrap(),
        "--from",
        "0",
        "--to",
        "100",
        "--budget",
        "1000",
        "--algo",
        "exact",
    ]);
    let cli_stdout = String::from_utf8_lossy(&cli.stdout);
    let (cli_nodes, cli_os, _) = parse_cli_route(&cli_stdout).expect("empty-keyword WCSPP route");
    let (nodes, objective, _) = first_route(&served_exact);
    assert_eq!(nodes, cli_nodes);
    assert_eq!(format!("{objective:.4}"), cli_os);

    // --- structured errors ---
    let responses = roundtrip(
        &addr,
        &[
            "this is not json",
            r#"{"id":10,"method":"teleport"}"#,
            r#"{"id":11,"method":"query","params":{"from":0,"to":100}}"#,
            r#"{"id":12,"method":"query","params":{"from":0,"to":100,"budget":5,"dataset":"mars"}}"#,
            r#"{"id":13,"method":"query","params":{"from":0,"to":100,"budget":5,"bogus_key":1}}"#,
        ],
    );
    assert_eq!(error_code(&responses[0]), "parse_error");
    assert_eq!(error_code(&responses[1]), "unknown_method");
    assert_eq!(error_code(&responses[2]), "bad_request");
    assert_eq!(error_code(&responses[3]), "unknown_dataset");
    assert_eq!(error_code(&responses[4]), "bad_request");
    // Error responses echo the request id.
    assert!(responses[1].starts_with(r#"{"id":10,"#), "{}", responses[1]);

    // --- deadlines: an already-expired deadline aborts the search ---
    let deadline_line = format!(
        r#"{{"id":14,"method":"query","params":{{"from":0,"to":100,"keywords":[{}],"budget":1000,"algo":"os-scaling","deadline_ms":0}}}}"#,
        JsonValue::from(kw.as_str()).render()
    );
    let responses = roundtrip(&addr, &[&deadline_line]);
    assert_eq!(error_code(&responses[0]), "deadline_exceeded");

    // --- load a second dataset at runtime and query it ---
    let load_line = format!(
        r#"{{"id":15,"method":"load_dataset","params":{{"name":"second","path":{}}}}}"#,
        JsonValue::from(second.to_str().unwrap()).render()
    );
    let responses = roundtrip(
        &addr,
        &[
            load_line.as_str(),
            r#"{"id":16,"method":"query","params":{"dataset":"second","from":3,"to":50,"keywords":[],"budget":1000}}"#,
            r#"{"id":17,"method":"stats"}"#,
        ],
    );
    let loaded = parse_ok(&responses[0]);
    assert_eq!(
        loaded.get("name").and_then(JsonValue::as_str),
        Some("second")
    );
    assert_eq!(loaded.get("nodes").and_then(JsonValue::as_u64), Some(200));
    assert_eq!(
        loaded.get("replaced").and_then(JsonValue::as_bool),
        Some(false)
    );
    let q2 = parse_ok(&responses[1]);
    assert_eq!(
        q2.get("dataset").and_then(JsonValue::as_str),
        Some("second")
    );
    let stats2 = parse_ok(&responses[2]);
    assert_eq!(stats2.get("datasets").unwrap().as_arr().unwrap().len(), 2);

    // --- graceful shutdown over the wire ---
    let responses = roundtrip(&addr, &[r#"{"id":"bye","method":"shutdown"}"#]);
    let bye = parse_ok(&responses[0]);
    assert_eq!(bye.get("stopping").and_then(JsonValue::as_bool), Some(true));
    let mut exited = false;
    for _ in 0..300 {
        if let Some(status) = server.child.try_wait().unwrap() {
            assert!(status.success(), "server must exit cleanly: {status}");
            exited = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(exited, "server must exit after a shutdown request");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_loads_generated_korbin_snapshots() {
    let dir = std::env::temp_dir().join(format!("kor-serve-korbin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let world_path = dir.join("world.korbin");
    let gen = kor(&[
        "gen",
        "--topology",
        "grid",
        "--width",
        "7",
        "--height",
        "6",
        "--seed",
        "21",
        "--out",
        world_path.to_str().unwrap(),
    ]);
    assert!(gen.status.success(), "gen failed");
    let world = kor::data::read_snapshot(&world_path).expect("snapshot reads");

    let server = spawn_server(&["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
    let addr = server.addr.clone();

    // Load the binary snapshot over the wire.
    let load_line = format!(
        r#"{{"id":1,"method":"load_dataset","params":{{"path":{}}}}}"#,
        JsonValue::from(world_path.to_str().unwrap()).render()
    );
    let loaded = parse_ok(&roundtrip(&addr, &[&load_line])[0]);
    assert_eq!(
        loaded.get("name").and_then(JsonValue::as_str),
        Some("world")
    );
    assert_eq!(loaded.get("nodes").and_then(JsonValue::as_u64), Some(42));

    // Replay every canned query: ask twice over the wire — the repeat
    // hits the warm pre-processing cache — and also against a fresh
    // in-process engine built from the same snapshot. All three answers
    // must agree byte for byte (the wire uses shortest-round-trip float
    // formatting, so equal bit patterns render identically).
    let engine = kor::core::KorEngine::new(&world.graph);
    let mut checked = 0;
    for set in &world.query_sets {
        for canned in &set.queries {
            let terms: Vec<JsonValue> = canned
                .keywords
                .iter()
                .map(|k| JsonValue::from(world.graph.vocab().resolve(*k).unwrap()))
                .collect();
            let line = format!(
                r#"{{"id":2,"method":"query","params":{{"from":{},"to":{},"keywords":{},"budget":{},"algo":"os-scaling"}}}}"#,
                canned.source.0,
                canned.target.0,
                JsonValue::Arr(terms).render(),
                JsonValue::from(canned.budget).render(),
            );
            let responses = roundtrip(&addr, &[&line, &line]);
            assert_eq!(
                responses[0], responses[1],
                "cold and warm responses must be byte-identical"
            );
            let served = parse_ok(&responses[0]);

            let query = kor::core::KorQuery::new(
                &world.graph,
                canned.source,
                canned.target,
                canned.keywords.clone(),
                canned.budget,
            )
            .unwrap();
            let fresh = engine
                .os_scaling(&query, &kor::core::OsScalingParams::default())
                .unwrap();
            match fresh.route {
                None => assert_eq!(
                    served.get("feasible").and_then(JsonValue::as_bool),
                    Some(false),
                    "server disagrees on infeasibility"
                ),
                Some(expect) => {
                    let (nodes, objective, budget) = first_route(&served);
                    let expect_nodes: Vec<u64> = expect
                        .route
                        .nodes()
                        .iter()
                        .map(|n| u64::from(n.0))
                        .collect();
                    assert_eq!(nodes, expect_nodes, "route must match a fresh engine");
                    assert_eq!(objective.to_bits(), expect.objective.to_bits());
                    assert_eq!(budget.to_bits(), expect.budget.to_bits());
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "no feasible canned query exercised the check");

    // The warm cache must actually have been hit by the repeats.
    let stats = parse_ok(&roundtrip(&addr, &[r#"{"id":3,"method":"stats"}"#])[0]);
    let prep = stats.get("datasets").unwrap().as_arr().unwrap()[0]
        .get("prep_cache")
        .expect("prep_cache present");
    assert!(
        prep.get("ctx_hits").and_then(JsonValue::as_u64) > Some(0),
        "repeat queries must hit the pre-processing cache"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_unknown_io_mode() {
    // `--io` is not a serve flag: naming any mode must fail, not start
    // the server with the option silently ignored.
    for mode in ["event", "blocking"] {
        let out = kor(&["serve", "--addr", "127.0.0.1:0", "--io", mode]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --io"), "stderr: {stderr}");
    }
}

#[test]
fn serve_reports_bind_failure() {
    // An unresolvable listen address must fail fast with a nonzero
    // exit, not hang.
    let out = kor(&["serve", "--addr", "not-an-address"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bind"), "stderr: {stderr}");
}
