//! End to end: the `--smoke` profile runs all four workloads against a
//! real `kor serve`, passes the checker, and reports exactly the metrics
//! `BENCHMARK.json` names — the end-to-end ones untraced, the per-layer
//! ones traced.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use kor::json::JsonValue;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap()
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    v.get(key).unwrap_or_else(|| panic!("missing {key:?}"))
}

/// `workload.metric` → unit, for every workload and every metric of
/// `section` in `BENCHMARK.json`.
fn expected(section: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).unwrap();
    let bench = JsonValue::parse(&text).unwrap();
    let mut out = BTreeMap::new();
    for w in field(&bench, "workloads").as_arr().unwrap() {
        let workload = field(w, "name").as_str().unwrap();
        for m in field(&bench, section).as_arr().unwrap() {
            let name = field(m, "name").as_str().unwrap();
            let unit = field(m, "unit").as_str().unwrap();
            out.insert(format!("{workload}.{name}"), unit.to_string());
        }
    }
    out
}

/// Runs the benchmark; returns its stdout and the parsed last line.
fn smoke(trace: &str) -> (String, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_kor-benchmark"))
        .args(["--smoke", "--seed", "5", "--trace", trace])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result =
        JsonValue::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    (stdout, result)
}

fn check_result(result: &JsonValue, section: &str) {
    assert_eq!(field(result, "correct").as_bool(), Some(true));
    assert_eq!(field(result, "failed").as_u64(), Some(0));
    assert!(field(result, "attempted").as_u64().unwrap() >= 1);
    let JsonValue::Obj(metrics) = field(result, "metrics") else {
        panic!("metrics is not an object")
    };
    let reported: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                field(m, "value").as_f64().is_some_and(f64::is_finite),
                "{name}"
            );
            (name.clone(), field(m, "unit").as_str().unwrap().to_string())
        })
        .collect();
    assert_eq!(reported, expected(section));
}

#[test]
fn smoke_profile_reports_every_metric_in_both_modes() {
    // Build the server first, so the timed run below measures the
    // benchmark rather than compilation.
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "kor",
            "--manifest-path",
        ])
        .arg(repo().join("Cargo.toml"))
        .current_dir(repo())
        .status()
        .unwrap();
    assert!(status.success());

    let start = Instant::now();
    let (stdout, result) = smoke("0");
    let took = start.elapsed();
    assert!(took <= Duration::from_secs(15), "smoke run took {took:?}");
    check_result(&result, "end_to_end");
    for header in [
        "commit ",
        "nproc ",
        "cpu ",
        "seed 5",
        "feasible share",
        "phase capacity",
    ] {
        assert!(stdout.contains(header), "report lacks {header:?}");
    }

    let (_, result) = smoke("1");
    check_result(&result, "per_layer");
    let spans = std::fs::read_to_string(repo().join("target/benchmark/trace.jsonl")).unwrap();
    let mut names = std::collections::BTreeSet::new();
    for line in spans.lines() {
        let span = JsonValue::parse(line).unwrap();
        let (start, end) = (
            field(&span, "start_ns").as_u64().unwrap(),
            field(&span, "end_ns").as_u64().unwrap(),
        );
        assert!(start <= end && field(&span, "self_ns").as_u64().unwrap() <= end - start);
        names.insert(field(&span, "name").as_str().unwrap().to_string());
    }
    for name in [
        "request",
        "serve.parse",
        "core.context",
        "core.search",
        "serve.render",
        "data.journal_append",
    ] {
        assert!(names.contains(name), "no {name} span");
    }
}
