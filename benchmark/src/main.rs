//! `kor-benchmark` — the benchmark of record for `kor serve`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload warm-mix|cold-targets|light-wire|traffic-churn|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Untraced (`--trace 0`), it builds `kor`, generates the benchmark
//! world, launches `kor serve --threads 2` as a child process, drives it
//! over TCP with closed-loop clients, checks every reply, and prints the
//! end-to-end metrics. Traced (`--trace 1`), it runs a shorter wire pass
//! and then replays the workload in-process with spans around each
//! layer's public calls, printing the per-layer metrics and writing
//! `target/benchmark/trace.jsonl`. The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `benchmark/README.md`.

mod check;
mod measure;
mod replay;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use kor::core::{KorEngine, KorQuery};
use kor::graph::{EdgeMutation, Graph};
use kor::json::JsonValue;

use measure::{Profile, WireRun};
use stats::{median, supports, Samples};
use trace::Span;
use workload::{QuerySpec, SplitMix, Workload, GRID, WORLD_SEED};

/// One workload, generated and ready to run.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The world graph at epoch 0.
    pub graph: Graph,
    /// The distinct queries.
    pub queries: Vec<QuerySpec>,
    /// Exact optimum objective per query (`None`: infeasible).
    pub optimum: Vec<Option<f64>>,
    /// The seeded order the request stream cycles through.
    pub order: Vec<usize>,
    /// Where the first capacity connection starts in `order`; the
    /// second starts half the stream later.
    pub capacity_start: usize,
    /// The traffic script: the update stream of `traffic-churn`, and the
    /// traced replay's mutation probe on the other workloads.
    pub script: Vec<Vec<EdgeMutation>>,
    /// The world snapshot the server loads.
    pub korbin: PathBuf,
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: WORLD_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                parsed.workloads =
                    vec![Workload::from_name(value).ok_or(format!("unknown workload {value:?}"))?]
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        if !parsed.smoke {
            return Err("--workload is required".into());
        }
        parsed.workloads = Workload::ALL.to_vec();
    }
    Ok(parsed)
}

impl Args {
    /// Untraced: five launches, then two thirds of `--seconds`
    /// single-caller and one third capacity. Traced: one launch and the
    /// single-caller phase only. Smoke: one launch, 1 s phases, no spin.
    fn profile(&self) -> Profile {
        let (single, capacity) = if self.smoke {
            (1.0, 1.0)
        } else {
            (self.seconds * 2.0 / 3.0, self.seconds / 3.0)
        };
        Profile {
            launches: if self.smoke || self.trace { 1 } else { 5 },
            single: Duration::from_secs_f64(single),
            capacity: (!self.trace).then(|| Duration::from_secs_f64(capacity)),
            spin: !self.smoke,
        }
    }
}

/// The repository checkout this benchmark belongs to.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

/// Builds the `kor` binary from the checkout's sources and returns its
/// path (under `CARGO_TARGET_DIR` when set, else `target/`).
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "kor",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building kor failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    Ok(target.join("release").join("kor"))
}

/// The checked-out commit, read from `.git` inside the checkout.
fn commit(root: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = root.join(".git");
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The exact optimum's objective of every query (`None`: infeasible),
/// solved on two threads, one taking the even and one the odd indices.
fn optima(graph: &Graph, queries: &[QuerySpec]) -> Result<Vec<Option<f64>>, String> {
    let engine = KorEngine::new(graph);
    let solve = |q: &QuerySpec| -> Result<Option<f64>, String> {
        let query = KorQuery::new(graph, q.source, q.target, q.keywords.clone(), q.budget)
            .map_err(|e| e.to_string())?;
        Ok(engine
            .exact(&query)
            .map_err(|e| e.to_string())?
            .route
            .map(|r| r.objective))
    };
    let half = |first: usize| {
        queries
            .iter()
            .skip(first)
            .step_by(2)
            .map(solve)
            .collect::<Result<Vec<_>, _>>()
    };
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(|| half(1));
        (
            half(0),
            odd.join().expect("the exact solver does not panic"),
        )
    });
    let (even, odd) = (even?, odd?);
    Ok((0..queries.len())
        .map(|i| if i % 2 == 0 { even[i / 2] } else { odd[i / 2] })
        .collect())
}

/// Generates the workload, writes its world snapshot, and computes the
/// exact optimum of every distinct query (untimed).
fn prepare(
    workload: Workload,
    seed: u64,
    profile: &Profile,
    out: &Path,
) -> Result<Prepared, String> {
    let (world, queries) = workload.generate();
    let korbin = out.join(format!("world-{}.korbin", workload.name()));
    kor::data::write_snapshot(&korbin, &world)
        .map_err(|e| format!("writing {}: {e}", korbin.display()))?;
    let graph = world.graph;
    let optimum = optima(&graph, &queries)?;
    let mut rng = SplitMix::new(seed);
    let order = rng.permutation(queries.len());
    let capacity_start = rng.below(queries.len());
    // Read-only workloads apply the first batches in their traced
    // replay's mutation probe.
    let script = workload::traffic(&graph, profile.batches().max(replay::PROBE_BATCHES));
    Ok(Prepared {
        workload,
        graph,
        queries,
        optimum,
        order,
        capacity_start,
        script,
        korbin,
    })
}

/// One workload's result.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    spans: Vec<Span>,
}

fn print_wire(prep: &Prepared, run: &WireRun) {
    let setups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.4} s")).collect();
    println!(
        "set-up: {} launch(es): {}",
        run.setup_s.len(),
        setups.join(", ")
    );
    let phase = |name: &str, t: &wire::Tally| {
        println!(
            "phase {name}: sent {}, ok {}, failed {}",
            t.sent, t.ok, t.failed
        );
    };
    phase("warm-up", &run.warmup);
    phase("single-caller (1 connection, 1 in flight)", &run.single);
    let split = |feasible: Option<bool>| {
        let ms = run
            .single
            .samples
            .iter()
            .filter(|&&(q, _)| feasible.is_none_or(|f| prep.optimum[q].is_some() == f))
            .map(|&(_, ms)| ms)
            .collect();
        Samples::new(ms).describe("ms")
    };
    println!("  latency, all: {}", split(None));
    println!("  latency, feasible queries: {}", split(Some(true)));
    println!("  latency, infeasible queries: {}", split(Some(false)));
    if let Some(cap) = &run.capacity {
        phase("capacity (2 connections, 1 in flight each)", cap);
        let windows: Vec<String> = run
            .capacity_window_qps
            .iter()
            .map(|q| format!("{q:.1}"))
            .collect();
        println!(
            "  {:.4} successful queries/s over {:.4} s; per window: {} queries/s",
            cap.ok as f64 / cap.elapsed_s,
            cap.elapsed_s,
            windows.join(", ")
        );
    }
    if let Some(u) = &run.updates {
        println!(
            "updates: sent {}, acknowledged {}, failed {}; single-caller-phase acks {}",
            u.sent,
            u.acked,
            u.failed,
            Samples::new(u.single_acks_ms.clone()).describe("ms")
        );
    }
    let rss: Vec<String> = run
        .warm_rss_mb
        .iter()
        .map(|mb| format!("{mb:.4} MB"))
        .collect();
    println!(
        "server peak RSS: end of warm-up per launch {}; after the single-caller phase {:.4} MB",
        rss.join(", "),
        run.single_rss_mb
    );
    println!(
        "checker: {} distinct replies up to epoch {}, {} failed; objective ratio over {} feasible (query, algo) pairs",
        run.check.distinct, run.check.max_epoch, run.check.failed, run.check.ratio_pairs
    );
}

fn run_workload(
    workload: Workload,
    args: &Args,
    server: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let profile = args.profile();
    let prep = prepare(workload, args.seed, &profile, out)?;
    let feasible = prep.optimum.iter().filter(|o| o.is_some()).count();
    println!(
        "== {} == {} distinct queries, feasible share {:.4} ({feasible}/{})",
        workload.name(),
        prep.queries.len(),
        feasible as f64 / prep.queries.len() as f64,
        prep.queries.len()
    );
    let run = measure::run(&prep, server, out, &profile, args.trace)?;
    print_wire(&prep, &run);
    let single = Samples::new(run.single.samples.iter().map(|&(_, ms)| ms).collect());
    let mut outcome = Outcome {
        metrics: Vec::new(),
        attempted: run.attempted(),
        failed: run.failed(),
        first_error: run.first_error().map(str::to_string),
        spans: Vec::new(),
    };
    if !supports(single.len(), 0.95) {
        outcome.failed += 1;
        outcome.first_error.get_or_insert(format!(
            "{} single-caller samples cannot support a p95",
            single.len()
        ));
    }
    if args.trace {
        let layers = replay::per_layer(&prep, &out.join("replay-journal"), &run);
        println!(
            "shard probe: fused-engine search p50 on the same shard-local queries {:.4} us",
            layers.fused_p50_on_local_us
        );
        outcome.attempted += layers.attempted;
        outcome.failed += layers.failed;
        if outcome.first_error.is_none() {
            outcome.first_error = layers.first_error;
        }
        outcome.metrics = layers
            .metrics
            .into_iter()
            .map(|(name, value)| (name, value, unit_of(name)))
            .collect();
        outcome.spans = layers.spans;
    } else {
        outcome.metrics = vec![
            ("setup_s", median(&run.setup_s), "s"),
            ("query_p50_ms", single.pct(0.5), "ms"),
            ("query_p95_ms", single.pct(0.95), "ms"),
            (
                "capacity_qps",
                median(&run.capacity_window_qps),
                "queries/s",
            ),
            ("rss_peak_mb", median(&run.warm_rss_mb), "MB"),
            ("objective_ratio", run.check.objective_ratio, "ratio"),
        ];
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "operations: attempted {}, failed {}, failed share {:.4} ratio",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    if let Some(e) = &outcome.first_error {
        println!("first failure: {e}");
    }
    Ok(outcome)
}

/// Units of the per-layer metrics, from their names.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_share") || name.ends_with("_ratio") || name.ends_with("_rate") {
        "ratio"
    } else {
        "count"
    }
}

fn metric_json(value: f64, unit: &str) -> JsonValue {
    JsonValue::obj([("value", value.into()), ("unit", unit.into())])
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, JsonValue)>,
) -> String {
    JsonValue::obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", JsonValue::Obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kor-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kor-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every requested workload; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, String> {
    let root = repo_root();
    let out = root.join("target").join("benchmark");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let server = build_server(&root)?;
    let profile = args.profile();
    println!(
        "kor-benchmark | commit {} | nproc {} | cpu {} | seed {} | {} | {} launch(es), single-caller {:.4} s, capacity {}",
        commit(&root),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        profile.launches,
        profile.single.as_secs_f64(),
        profile.capacity.map_or("skipped".into(), |c| format!("{:.4} s", c.as_secs_f64())),
    );
    println!(
        "world: grid {}x{}, world seed {WORLD_SEED}; server: kor serve --threads 2",
        GRID.0, GRID.1
    );
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        outcomes.push((workload, run_workload(workload, args, &server, &out)?));
    }
    if args.trace {
        let traces: Vec<(&str, Vec<Span>)> = outcomes
            .iter_mut()
            .map(|(w, o)| (w.name(), std::mem::take(&mut o.spans)))
            .collect();
        let path = out.join("trace.jsonl");
        trace::write_jsonl(&path, &traces)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let attempted = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed = outcomes.iter().map(|(_, o)| o.failed).sum();
    let correct = failed == 0;
    let single = outcomes.len() == 1;
    let metrics = outcomes
        .iter()
        .flat_map(|(w, o)| {
            o.metrics.iter().map(move |&(name, value, unit)| {
                let key = if single {
                    name.to_string()
                } else {
                    format!("{}.{name}", w.name())
                };
                (key, metric_json(value, unit))
            })
        })
        .collect();
    println!("{}", result_json(correct, attempted, failed, metrics));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn command_line_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "light-wire",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workloads, vec![Workload::LightWire]);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 10.0, true, false)
        );
        let p = a.profile();
        assert_eq!((p.launches, p.capacity), (1, None));
        let smoke = parse_args(&strings(&["--smoke"])).unwrap();
        assert_eq!(smoke.workloads.len(), 4);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &[],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let bench = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let bench = JsonValue::parse(&bench).unwrap();
        let ok = |s: &str, max: usize, extra: &str| {
            s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        for section in ["end_to_end", "per_layer"] {
            for m in bench.get(section).and_then(JsonValue::as_arr).unwrap() {
                let name = m.get("name").and_then(JsonValue::as_str).unwrap();
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap();
                assert!(ok(name, 64, ""), "{name}");
                assert!(ok(unit, 16, "/%"), "{unit}");
                if section == "per_layer" {
                    assert_eq!(unit, unit_of(name), "{name}");
                }
            }
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
