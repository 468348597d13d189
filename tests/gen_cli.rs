//! End-to-end determinism of the dataset pipeline: `kor gen --seed N`
//! must be byte-reproducible, and the generated snapshot must flow
//! through `kor ingest`, `kor stats`, and `kor batch --canned`.

use std::path::Path;
use std::process::Command;

fn kor(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_kor"))
        .args(args)
        .output()
        .expect("spawn kor binary")
}

fn kor_ok(args: &[&str]) -> std::process::Output {
    let out = kor(args);
    assert!(
        out.status.success(),
        "kor {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn gen_is_byte_reproducible_per_seed() {
    let dir = std::env::temp_dir().join(format!("kor-gen-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.korbin");
    let b = dir.join("b.korbin");
    let c = dir.join("c.korbin");

    let flags = |out: &Path, seed: &str| -> Vec<String> {
        [
            "gen",
            "--topology",
            "ring",
            "--nodes",
            "30",
            "--chords",
            "5",
            "--seed",
            seed,
            "--out",
        ]
        .iter()
        .map(|s| s.to_string())
        .chain([out.to_str().unwrap().to_string()])
        .collect()
    };
    let run = |args: Vec<String>| {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        kor_ok(&refs);
    };
    run(flags(&a, "42"));
    run(flags(&b, "42"));
    run(flags(&c, "43"));

    let (bytes_a, bytes_b, bytes_c) = (
        std::fs::read(&a).unwrap(),
        std::fs::read(&b).unwrap(),
        std::fs::read(&c).unwrap(),
    );
    assert_eq!(
        bytes_a, bytes_b,
        "same seed and knobs must produce byte-identical snapshots"
    );
    assert_ne!(bytes_a, bytes_c, "different seeds must differ");

    // The documented seed contract is in the CLI help.
    let help = kor_ok(&["help"]);
    let text = String::from_utf8_lossy(&help.stdout).to_string();
    assert!(
        text.contains("Seed contract") && text.contains("byte-identical"),
        "help must document the seed contract:\n{text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generated_snapshot_feeds_every_front_end() {
    let dir = std::env::temp_dir().join(format!("kor-gen-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let world = dir.join("world.korbin");
    let world_str = world.to_str().unwrap();
    kor_ok(&[
        "gen",
        "--topology",
        "grid",
        "--width",
        "8",
        "--height",
        "6",
        "--seed",
        "7",
        "--out",
        world_str,
    ]);

    // stats sniffs the binary format.
    let stats = kor_ok(&["stats", world_str]);
    assert!(
        String::from_utf8_lossy(&stats.stdout).contains("48"),
        "stats must report the 48 nodes"
    );

    // ingest converts to text and back.
    let text = dir.join("world.korg");
    kor_ok(&["ingest", world_str, "--out", text.to_str().unwrap()]);
    let back = dir.join("back.korbin");
    kor_ok(&[
        "ingest",
        text.to_str().unwrap(),
        "--out",
        back.to_str().unwrap(),
    ]);
    let g1 = kor::data::load_graph_auto(&world).unwrap();
    let g2 = kor::data::load_graph_auto(&back).unwrap();
    assert_eq!(g1.node_count(), g2.node_count());
    assert_eq!(g1.edge_count(), g2.edge_count());

    // batch replays the canned workload, emitting a parsable summary.
    let batch = kor_ok(&["batch", world_str, "--canned", "--quiet"]);
    let stdout = String::from_utf8_lossy(&batch.stdout);
    let json = kor::json::JsonValue::parse(stdout.trim()).expect("batch summary parses");
    let expected = kor::data::read_snapshot(&world).unwrap().query_count() as u64;
    assert_eq!(
        json.get("queries").and_then(kor::json::JsonValue::as_u64),
        Some(expected)
    );
    assert_eq!(
        json.get("errors").and_then(kor::json::JsonValue::as_u64),
        Some(0)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn misspelled_query_flags_fail_instead_of_being_ignored() {
    let dir = std::env::temp_dir().join(format!("kor-flags-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("r.korg");
    let graph = graph.to_str().unwrap();
    kor_ok(&["generate", "road", "--nodes", "200", "--out", graph]);

    // `--keyword` and `--epsilonn` are typos of `--keywords` and
    // `--epsilon`; ignoring them would answer a different query.
    let out = kor(&[
        "query",
        graph,
        "--from",
        "0",
        "--to",
        "100",
        "--budget",
        "1000",
        "--keyword",
        "nosuchword",
        "--epsilonn",
        "0.9",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --keyword"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no route may be printed");

    // The removed subcommands and options fail the same way, and so do
    // the knobs `kor serve` answers with `bad_request`, with its text.
    let world = dir.join("w.korbin");
    let world = world.to_str().unwrap();
    kor_ok(&["gen", "--out", world]);
    let query = |extra: &[&'static str]| -> Vec<&str> {
        let mut args = vec!["query", graph, "--from", "0", "--to", "100"];
        args.extend(["--keywords", "jazz,food", "--budget", "60"]);
        args.extend(extra);
        args
    };
    for (args, why) in [
        (vec!["index", graph], "unknown subcommand"),
        (vec!["bench", graph, "--smoke"], "unknown subcommand"),
        (vec!["loadtest", world, "--smoke"], "unknown subcommand"),
        (vec!["shard", world, "--shards", "2"], "unknown subcommand"),
        (
            vec!["batch", graph, "--mode", "both"],
            "unknown flag --mode",
        ),
        (
            query(&["--algo", "exact", "--k", "3"]),
            "\"exact\" does not support k > 1",
        ),
        (
            query(&["--algo", "greedy", "--beam", "0"]),
            "\"beam\" must be ≥ 1",
        ),
        (
            query(&["--algo", "exact", "--epsilon", "0.9"]),
            "\"epsilon\" does not apply to algo \"exact\"",
        ),
        (
            query(&["--algo", "os-scaling", "--k", "0"]),
            "\"k\" must be ≥ 1",
        ),
        (
            vec![
                "batch", world, "--canned", "--algo", "greedy", "--beam", "0",
            ],
            "\"beam\" must be ≥ 1",
        ),
    ] {
        let args = &args[..];
        let out = kor(args);
        assert_eq!(out.status.code(), Some(1), "kor {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "kor {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "kor {args:?}: nothing may be printed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
