//! End-to-end smoke test for the `kor batch` subcommand: generate a tiny
//! Flickr-like dataset with the CLI, run a batch over it, and check that
//! the JSON summary actually parses and carries sane numbers.
//!
//! Validation uses the strict RFC 8259 parser in [`kor::json`] (the
//! same module the `kor serve` wire protocol is built on), so the
//! summary is genuinely parsed rather than grepped for substrings.

use std::path::PathBuf;
use std::process::Command;

use kor::json::JsonValue;

fn num(v: &JsonValue, key: &str) -> f64 {
    match v.get(key) {
        Some(JsonValue::Num(n)) => *n,
        other => panic!("expected number at {key:?}, got {other:?}"),
    }
}

fn kor(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_kor"))
        .args(args)
        .output()
        .expect("spawn kor binary")
}

#[test]
fn batch_subcommand_end_to_end() {
    let dir = std::env::temp_dir().join(format!("kor-batch-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph: PathBuf = dir.join("tiny.korg");
    let summary: PathBuf = dir.join("summary.json");

    let gen = kor(&[
        "generate",
        "flickr",
        "--small",
        "--seed",
        "7",
        "--out",
        graph.to_str().unwrap(),
    ]);
    assert!(
        gen.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let run = kor(&[
        "batch",
        graph.to_str().unwrap(),
        "--budget",
        "20",
        "--keywords",
        "1,2",
        "--per-set",
        "8",
        "--threads",
        "2",
        "--seed",
        "3",
        "--quiet",
        "--json-out",
        summary.to_str().unwrap(),
    ]);
    assert!(
        run.status.success(),
        "batch failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The JSON summary is both written to --json-out and printed as the
    // last stdout line; both must parse to the same tree.
    let from_file = std::fs::read_to_string(&summary).unwrap();
    let parsed = JsonValue::parse(&from_file).expect("summary JSON must parse");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last_line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
    assert_eq!(JsonValue::parse(last_line.trim()).unwrap(), parsed);

    assert_eq!(
        parsed.get("algo"),
        Some(&JsonValue::Str("bucket-bound".into()))
    );
    assert_eq!(num(&parsed, "queries"), 16.0);
    assert_eq!(num(&parsed, "threads"), 2.0);
    assert_eq!(num(&parsed, "errors"), 0.0);
    assert!(
        num(&parsed, "feasible") >= 1.0,
        "expected some feasible routes"
    );
    assert!(num(&parsed, "wall_ms") > 0.0);
    assert!(num(&parsed, "throughput_qps") > 0.0);

    let latency = parsed.get("latency_us").expect("latency_us present");
    for key in ["min", "mean", "p50", "p95", "p99", "max"] {
        assert!(num(latency, key) > 0.0, "latency {key} must be positive");
    }
    assert!(num(latency, "min") <= num(latency, "p50"));
    assert!(num(latency, "p50") <= num(latency, "max"));

    let Some(JsonValue::Arr(sets)) = parsed.get("per_set") else {
        panic!("per_set must be an array");
    };
    assert_eq!(sets.len(), 2);
    let counts: Vec<f64> = sets.iter().map(|s| num(s, "keywords")).collect();
    assert_eq!(counts, vec![1.0, 2.0]);
    assert_eq!(
        sets.iter()
            .map(|s| num(s, "queries") as usize)
            .sum::<usize>(),
        16
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_parser_rejects_malformed_input() {
    for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"unterminated"] {
        assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
    }
    // And accepts the shapes the summary uses.
    let ok = r#"{"a":"x\"y","b":[1,2.5,null],"c":{"d":true}}"#;
    assert!(JsonValue::parse(ok).is_ok());
}

/// A reader that closes stdout early (`kor batch … | head -1`) must not
/// crash the CLI: output past the close is dropped and the command exits
/// normally. The workload prints more than a pipe buffer (64 KiB) of
/// per-query lines, so some write is certain to hit the closed pipe.
#[test]
fn closed_stdout_ends_quietly() {
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("kor-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("tiny.korg");
    let gen = kor(&[
        "generate",
        "flickr",
        "--small",
        "--seed",
        "7",
        "--out",
        graph.to_str().unwrap(),
    ]);
    assert!(gen.status.success());

    let mut child = Command::new(env!("CARGO_BIN_EXE_kor"))
        .args([
            "batch",
            graph.to_str().unwrap(),
            "--budget",
            "2",
            "--keywords",
            "1",
            "--per-set",
            "2000",
            "--threads",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kor binary");
    // Close the read end before the batch prints anything.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for kor");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "kor panicked:\n{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}:\n{stderr}", out.status);
    assert!(stderr.contains("batch: 2000 queries"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}
