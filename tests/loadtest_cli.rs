//! End-to-end test for `kor loadtest`: generate a snapshot, run the
//! smoke profile through the real binary, and check the emitted
//! `BENCH_serve.json` carries the documented schema with sane numbers.

use std::path::PathBuf;
use std::process::Command;

use kor::json::JsonValue;

fn kor(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_kor"))
        .args(args)
        .output()
        .expect("spawn kor binary")
}

#[test]
fn loadtest_smoke_writes_schema_complete_report() {
    let dir = std::env::temp_dir().join(format!("kor-loadtest-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let world_path: PathBuf = dir.join("world.korbin");
    let out_path: PathBuf = dir.join("bench.json");

    let gen = kor(&[
        "gen",
        "--topology",
        "grid",
        "--width",
        "6",
        "--height",
        "5",
        "--seed",
        "17",
        "--out",
        world_path.to_str().unwrap(),
    ]);
    assert!(gen.status.success(), "gen failed");

    let out = kor(&[
        "loadtest",
        world_path.to_str().unwrap(),
        "--smoke",
        "--threads",
        "2",
        "--clients",
        "8",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "loadtest failed: {stderr}");
    assert!(stderr.contains("loadtest: "), "stderr: {stderr}");
    assert!(stderr.contains(" qps, p50 "), "stderr: {stderr}");

    let raw = std::fs::read_to_string(&out_path).expect("report written");
    let report = JsonValue::parse(raw.trim()).expect("report parses");

    assert_eq!(
        report.get("created_by").and_then(JsonValue::as_str),
        Some("kor loadtest")
    );
    let dataset = report.get("dataset").expect("dataset section");
    assert_eq!(dataset.get("nodes").and_then(JsonValue::as_u64), Some(30));
    assert!(dataset.get("canned_queries").and_then(JsonValue::as_u64) > Some(0));

    let config = report.get("config").expect("config section");
    assert_eq!(config.get("threads").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(config.get("clients").and_then(JsonValue::as_u64), Some(8));

    // One run: its fields sit at the top level.
    assert!(report.get("modes").is_none(), "no per-mode sections");
    assert!(
        report.get("qps").and_then(JsonValue::as_f64) > Some(0.0),
        "the server must serve requests"
    );
    assert!(report.get("requests_ok").and_then(JsonValue::as_u64) > Some(0));
    assert_eq!(
        report.get("other_errors").and_then(JsonValue::as_u64),
        Some(0),
        "only `overloaded` errors are acceptable under load"
    );
    let latency = report.get("latency_ms").expect("latency section");
    let p50 = latency.get("p50").and_then(JsonValue::as_f64).unwrap();
    let p99 = latency.get("p99").and_then(JsonValue::as_f64).unwrap();
    let max = latency.get("max").and_then(JsonValue::as_f64).unwrap();
    assert!(p50 <= p99 && p99 <= max, "{p50} {p99} {max}");
    // The report snapshots the server's own view of the run.
    let server = report.get("server").expect("server section");
    assert!(server.get("queue_capacity").and_then(JsonValue::as_u64) > Some(0));
    assert!(server.get("io").is_none(), "one I/O layer, no mode field");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadtest_requires_a_snapshot_argument() {
    let out = kor(&["loadtest"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot"), "stderr: {stderr}");
}

#[test]
fn loadtest_rejects_a_missing_snapshot_file() {
    let out = kor(&["loadtest", "/nonexistent/world.korbin", "--smoke"]);
    assert!(!out.status.success());
}
