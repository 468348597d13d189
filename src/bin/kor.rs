//! `kor` — command-line keyword-aware optimal route search.
//!
//! ```bash
//! kor generate flickr --out city.korg --seed 7
//! kor generate road --nodes 2000 --out road.korg
//! kor stats city.korg
//! kor query city.korg --from 12 --to 99 --keywords jazz,imax --budget 9 \
//!       --algo bucket-bound --k 3
//! ```
//!
//! Subcommands:
//!
//! * `generate flickr|road` — build a synthetic dataset and save it in
//!   the text interchange format of `kor_data::io`;
//! * `gen` — build a seeded scenario world (grid/ring topology, Zipf
//!   keywords, canned query sets) and save it as a binary `.korbin`
//!   snapshot (byte-reproducible per seed; see `docs/DATASETS.md`):
//!
//! ```bash
//! kor gen --topology grid --width 12 --height 10 --seed 42 --out world.korbin
//! ```
//!
//! * `ingest` — convert between the text `.korg` and binary `.korbin`
//!   formats (optionally canning a query workload along the way);
//! * `stats` — print graph statistics;
//! * `query` — answer a KOR/KkR query with any of the paper's
//!   algorithms;
//! * `batch` — generate a query workload over a dataset and answer it in
//!   parallel over one shared engine, printing per-query latencies and a
//!   JSON summary:
//!
//! ```bash
//! kor batch city.korg --budget 25 --per-set 50 --keywords 2,4,6,8,10 \
//!       --algo bucket-bound --threads 8 --json-out summary.json
//! ```
//!
//! * `serve` — run the TCP query service (newline-delimited JSON; see
//!   `docs/PROTOCOL.md`) with warm engines for the given datasets:
//!
//! ```bash
//! kor serve --addr 127.0.0.1:7878 --threads 8 --dataset city=city.korg
//! ```

use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use kor::batch::{run_batch, BatchConfig};
use kor::data::gen::{generate_world, GenConfig, Topology};
use kor::data::snapshot::{read_snapshot, write_snapshot};
use kor::data::{generate_traffic, TrafficConfig};
use kor::mutate::{run_mutate, MutateConfig};
use kor::prelude::*;
use kor::recover::{run_recover_to_file, RecoverConfig};
use kor::serve::registry::Dataset;
use kor::serve::{ServeConfig, Server};

/// `println!` for command output: writes through [`write_out`] and
/// returns its error from the enclosing function.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))?
    };
}

/// Writes one line of command output. Once the reader closes stdout
/// early (`kor stats world.korbin | head -1`), the rest of the output is
/// dropped and the command runs on to its normal exit instead of
/// panicking; any other write error fails the command.
fn write_out(line: std::fmt::Arguments) -> Result<(), String> {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mut stdout = std::io::stdout().lock();
    match writeln!(stdout, "{line}").and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        other => other.map_err(|e| format!("writing to stdout: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `kor help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("ingest") => ingest(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("query") => query(&args[1..]),
        Some("batch") => batch(&args[1..]),
        Some("mutate") => mutate(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("recover") => recover(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            outln!("{}", usage().trim_end_matches('\n'));
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown subcommand {other:?} (expected one of: {SUBCOMMANDS})"
        )),
    }
}

/// Every subcommand, for the usage screen and error messages.
const SUBCOMMANDS: &str =
    "generate, gen, ingest, stats, query, batch, mutate, serve, recover, help";

fn usage() -> &'static str {
    "kor — keyword-aware optimal route search (Cao et al., VLDB 2012)\n\
     \n\
     usage:\n\
     \x20 kor generate flickr [--out FILE] [--seed N] [--small]\n\
     \x20 kor generate road [--nodes N] [--out FILE] [--seed N]\n\
     \x20 kor gen [--topology grid|ring] [--width W --height H | --nodes N]\n\
     \x20         [--chords C] [--seed N] [--vocab V] [--zipf S] [--max-tags T]\n\
     \x20         [--jitter J] [--keywords 2,3] [--per-set N] [--tightness X]\n\
     \x20         [--out world.korbin]\n\
     \x20 kor ingest FILE [--out FILE] [--per-set N] [--keywords 2,4]\n\
     \x20         [--budget X] [--seed N]\n\
     \x20 kor stats FILE\n\
     \x20 kor query FILE --from ID --to ID --keywords a,b,c --budget X\n\
     \x20           [--algo os-scaling|bucket-bound|greedy|exact] [--k N]\n\
     \x20           [--epsilon E] [--beta B] [--alpha A] [--beam N]\n\
     \x20 kor batch FILE (--budget X | --canned) [--keywords 2,4,6,8,10]\n\
     \x20           [--per-set N] [--algo os-scaling|bucket-bound|greedy|exact]\n\
     \x20           [--threads N] [--seed N] [--epsilon E] [--beta B]\n\
     \x20           [--alpha A] [--beam N] [--json-out FILE] [--quiet]\n\
     \x20 kor mutate FILE [--out FILE.korbin] [--script FILE.json]\n\
     \x20           [--traffic-seed N] [--phases N] [--closures N]\n\
     \x20           [--slowdowns N] [--multiplier-lo X] [--multiplier-hi X]\n\
     \x20           [--no-reopen] [--verify] [--emit-script FILE.json]\n\
     \x20           [--algo os-scaling|bucket-bound|greedy|exact] [--epsilon E]\n\
     \x20           [--beta B] [--alpha A] [--beam N] [--json-out FILE] [--quiet]\n\
     \x20 kor serve [--addr HOST:PORT] [--threads N] [--queue N]\n\
     \x20           [--dataset [NAME=]FILE]... [--deadline-ms N]\n\
     \x20           [--max-request-bytes N] [--journal DIR]\n\
     \x20 kor recover FILE --journal DIR [--name NAME] [--verify] [--compact]\n\
     \x20           [--algo os-scaling|bucket-bound|greedy|exact] [--epsilon E]\n\
     \x20           [--beta B] [--alpha A] [--beam N] [--json-out FILE]\n\
     \x20 kor help\n\
     \n\
     Graph FILE arguments accept both the text .korg format and binary\n\
     .korbin snapshots (sniffed by content, not extension).\n\
     \n\
     Seed contract: `kor gen` output is a pure function of its flags —\n\
     the same knobs and --seed always produce a byte-identical .korbin\n\
     snapshot; changing any knob (not just the seed) may change every\n\
     sampled value. Layout and knobs are documented in docs/DATASETS.md.\n\
     \n\
     `kor serve` speaks newline-delimited JSON over TCP; the wire\n\
     protocol is documented in docs/PROTOCOL.md.\n"
}

/// Parsed command line: positional arguments plus `--name value` flags.
type ParsedArgs = (Vec<String>, Vec<(String, String)>);

/// Minimal `--flag value` parser: returns (positional args, flag map).
/// `accepted` names, space-separated, every flag the subcommand reads;
/// any other flag is an error, so a misspelled option fails instead of
/// being ignored.
fn parse_flags(args: &[String], accepted: &str) -> Result<ParsedArgs, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if !accepted.split_whitespace().any(|a| a == name) {
                return Err(format!("unknown flag --{name}"));
            }
            if matches!(
                name,
                "small" | "quiet" | "canned" | "verify" | "no-reopen" | "compact"
            ) {
                // boolean flags
                flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            flags.push((name.to_string(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// All values of a repeatable flag, in order (`--dataset a --dataset b`).
fn flag_all<'a>(flags: &'a [(String, String)], name: &str) -> Vec<&'a str> {
    flags
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
        .collect()
}

fn parse_num<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(opt_num(flags, name)?.unwrap_or(default))
}

fn opt_num<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    flag(flags, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}"))
        })
        .transpose()
}

/// The `--algo` choice with its `--epsilon`/`--beta`/`--alpha`/`--beam`
/// knobs. Omitted knobs take kor-core's defaults, and a knob the
/// algorithm never reads is an error with the same text `kor serve`
/// answers.
fn algo_flags(flags: &[(String, String)], default: &str) -> Result<Algo, String> {
    Algo::from_knobs(
        flag(flags, "algo").unwrap_or(default),
        opt_num(flags, "epsilon")?,
        opt_num(flags, "beta")?,
        opt_num(flags, "alpha")?,
        opt_num(flags, "beam")?,
    )
    .map_err(|e| e.to_string())
}

fn generate(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args, "seed out small nodes")?;
    let kind = positional
        .first()
        .ok_or("generate needs a dataset kind: flickr or road")?;
    let seed: u64 = parse_num(&flags, "seed", 2012)?;
    let out = PathBuf::from(flag(&flags, "out").unwrap_or("graph.korg"));
    let graph = match kind.as_str() {
        "flickr" => {
            let mut cfg = if flag(&flags, "small").is_some() {
                FlickrConfig::small()
            } else {
                FlickrConfig::paper_scale()
            };
            cfg.seed = seed;
            let (graph, stats) = generate_flickr(&cfg);
            outln!(
                "generated flickr-like graph: {} locations, {} edges ({} photos, {} trips)",
                stats.locations,
                stats.edges,
                stats.photos,
                stats.total_trips
            );
            graph
        }
        "road" => {
            let nodes: usize = parse_num(&flags, "nodes", 5000)?;
            let mut cfg = RoadNetConfig::with_nodes(nodes);
            cfg.seed = seed;
            let graph = generate_roadnet(&cfg);
            outln!(
                "generated road network: {} nodes, {} edges",
                graph.node_count(),
                graph.edge_count()
            );
            graph
        }
        other => return Err(format!("unknown dataset kind {other:?}")),
    };
    kor::data::save_graph(&out, &graph).map_err(|e| e.to_string())?;
    outln!("saved to {}", out.display());
    Ok(())
}

fn load(path: &str) -> Result<Graph, String> {
    kor::data::load_graph_auto(Path::new(path)).map_err(|e| e.to_string())
}

/// Parses a `--keywords 2,4,6` list of per-set keyword counts.
fn parse_keyword_counts(
    flags: &[(String, String)],
    default: Vec<usize>,
) -> Result<Vec<usize>, String> {
    let counts = match flag(flags, "keywords") {
        None => default,
        Some(s) => s
            .split(',')
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse()
                    .map_err(|_| format!("--keywords: bad count {t:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    if counts.is_empty() {
        return Err("--keywords needs at least one count".into());
    }
    Ok(counts)
}

/// `kor gen`: build a seeded scenario world and save it as a `.korbin`
/// binary snapshot.
///
/// Seed contract: the output is a pure function of every flag below —
/// identical flags (including `--seed`) produce a byte-identical file.
fn gen(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(
        args,
        "seed topology width height nodes chords vocab zipf max-tags \
         jitter keywords per-set tightness out",
    )?;
    if let Some(stray) = positional.first() {
        return Err(format!("gen takes no positional arguments (saw {stray:?})"));
    }
    let seed: u64 = parse_num(&flags, "seed", 2012)?;
    let topology = match flag(&flags, "topology").unwrap_or("grid") {
        "grid" => Topology::Grid {
            width: parse_num(&flags, "width", 12)?,
            height: parse_num(&flags, "height", 10)?,
        },
        "ring" => {
            let nodes: usize = parse_num(&flags, "nodes", 100)?;
            Topology::Ring {
                nodes,
                chords: parse_num(&flags, "chords", nodes / 10)?,
            }
        }
        other => return Err(format!("unknown --topology {other:?} (grid or ring)")),
    };
    let base = GenConfig::grid(2, 2, seed);
    let config = GenConfig {
        topology,
        seed,
        vocab_size: parse_num(&flags, "vocab", base.vocab_size)?,
        tag_exponent: parse_num(&flags, "zipf", base.tag_exponent)?,
        max_tags_per_node: parse_num(&flags, "max-tags", base.max_tags_per_node)?,
        weight_jitter: parse_num(&flags, "jitter", base.weight_jitter)?,
        keyword_counts: parse_keyword_counts(&flags, base.keyword_counts)?,
        queries_per_set: parse_num(&flags, "per-set", base.queries_per_set)?,
        budget_tightness: parse_num(&flags, "tightness", base.budget_tightness)?,
    };
    config.validate()?;
    let out = PathBuf::from(flag(&flags, "out").unwrap_or("world.korbin"));
    let world = generate_world(&config);
    write_snapshot(&out, &world).map_err(|e| e.to_string())?;
    outln!(
        "generated {} world: {} nodes, {} edges, {} keywords, {} canned queries (seed {seed})",
        config.topology.name(),
        world.graph.node_count(),
        world.graph.edge_count(),
        world.graph.vocab().len(),
        world.query_count(),
    );
    outln!("saved to {}", out.display());
    Ok(())
}

/// `kor ingest`: convert a dataset between the text `.korg` format and
/// binary `.korbin` snapshots. Output format follows the `--out`
/// extension (`.korg` → text, anything else → snapshot). For text
/// output, canned queries are dropped (the text format carries only the
/// graph); for snapshot output from a text graph, `--per-set N` cans a
/// generated workload (`--keywords`, `--budget`, `--seed`) so the
/// artifact replays identically everywhere.
fn ingest(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(args, "out per-set budget keywords seed")?;
    let input = positional.first().ok_or("ingest needs an input file")?;
    let default_out = {
        let p = Path::new(input);
        let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("dataset");
        p.with_file_name(format!("{stem}.korbin"))
    };
    let out = flag(&flags, "out")
        .map(PathBuf::from)
        .unwrap_or(default_out);
    // Canonicalize before comparing so spelling aliases (`./x` vs `x`,
    // symlinks) cannot slip past the guard and clobber the input.
    // Canonicalization needs the file to exist; a nonexistent --out
    // trivially isn't the input, and a nonexistent input fails on read
    // below with its own error.
    let same_file = match (std::fs::canonicalize(input), std::fs::canonicalize(&out)) {
        (Ok(a), Ok(b)) => a == b,
        _ => out.as_path() == Path::new(input),
    };
    if same_file {
        return Err(format!(
            "refusing to overwrite the input ({}); pass a different --out",
            out.display()
        ));
    }

    // Read (content-sniffed): snapshots keep their canned queries, text
    // graphs start bare.
    let mut world =
        kor::data::read_world_auto(Path::new(input)).map_err(|e| format!("{input}: {e}"))?;

    // Optional workload canning on the way in.
    let per_set: usize = parse_num(&flags, "per-set", 0)?;
    if per_set > 0 {
        let budget: f64 = match flag(&flags, "budget") {
            Some(v) => v.parse().map_err(|_| "--budget: not a number")?,
            None => return Err("--per-set needs --budget for the canned queries".into()),
        };
        let workload = WorkloadConfig {
            keyword_counts: parse_keyword_counts(&flags, vec![2, 4])?,
            queries_per_set: per_set,
            seed: parse_num(&flags, "seed", 42)?,
            ..WorkloadConfig::default()
        };
        let index = InvertedIndex::build(&world.graph);
        world.query_sets = kor::data::generate_workload(&world.graph, &index, &workload)
            .into_iter()
            .map(|set| kor::data::CannedQuerySet {
                keyword_count: set.keyword_count,
                queries: set
                    .queries
                    .into_iter()
                    .map(|q| kor::data::CannedQuery {
                        source: q.source,
                        target: q.target,
                        keywords: q.keywords,
                        budget,
                    })
                    .collect(),
            })
            .collect();
    }

    let is_text_out = out.extension().is_some_and(|e| e == "korg");
    if is_text_out {
        if world.query_count() > 0 {
            eprintln!(
                "note: dropping {} canned queries (the text format carries only the graph)",
                world.query_count()
            );
        }
        kor::data::save_graph(&out, &world.graph).map_err(|e| e.to_string())?;
    } else {
        write_snapshot(&out, &world).map_err(|e| e.to_string())?;
    }
    outln!(
        "ingested {}: {} nodes, {} edges, {} canned queries -> {}",
        input,
        world.graph.node_count(),
        world.graph.edge_count(),
        if is_text_out { 0 } else { world.query_count() },
        out.display()
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let (positional, _) = parse_flags(args, "")?;
    let path = positional.first().ok_or("stats needs a graph file")?;
    let graph = load(path)?;
    outln!("{}", graph.stats());
    Ok(())
}

fn query(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(
        args,
        "from to budget keywords algo k epsilon beta alpha beam",
    )?;
    let path = positional.first().ok_or("query needs a graph file")?;
    let graph = load(path)?;
    let from: u32 = parse_num(&flags, "from", u32::MAX)?;
    let to: u32 = parse_num(&flags, "to", u32::MAX)?;
    if from == u32::MAX || to == u32::MAX {
        return Err("--from and --to node ids are required".into());
    }
    let budget: f64 = match flag(&flags, "budget") {
        Some(v) => v.parse().map_err(|_| "--budget: not a number")?,
        None => return Err("--budget is required".into()),
    };
    let keywords: Vec<&str> = flag(&flags, "keywords")
        .map(|s| s.split(',').filter(|t| !t.is_empty()).collect())
        .unwrap_or_default();
    let query = KorQuery::from_terms(&graph, NodeId(from), NodeId(to), keywords, budget)
        .map_err(|e| e.to_string())?;

    let engine = KorEngine::new(&graph);
    let request = SearchRequest {
        k: parse_num(&flags, "k", 1)?,
        ..SearchRequest::new(algo_flags(&flags, "os-scaling")?)
    };
    let outcome = engine.search(&query, &request).map_err(|e| e.to_string())?;
    if let Some((covers, within)) = outcome.greedy_flags {
        if !(covers && within) {
            outln!(
                "note: greedy route violates a constraint (covers keywords: {covers}, within budget: {within})"
            );
        }
    }
    let routes = outcome.routes;

    if routes.is_empty() {
        outln!("no feasible route");
        return Ok(());
    }
    for (i, r) in routes.iter().enumerate() {
        outln!(
            "#{} OS {:.4} BS {:.4} ({} stops)",
            i + 1,
            r.objective,
            r.budget,
            r.route.len()
        );
        let described: Vec<String> = r
            .route
            .nodes()
            .iter()
            .map(|&n| {
                let tags: Vec<&str> = graph
                    .keywords(n)
                    .iter()
                    .take(3)
                    .map(|kw| graph.vocab().resolve(kw).unwrap_or("?"))
                    .collect();
                if tags.is_empty() {
                    format!("{n}")
                } else {
                    format!("{n}[{}]", tags.join(","))
                }
            })
            .collect();
        outln!("   {}", described.join(" -> "));
    }
    Ok(())
}

/// `kor batch`: generate a workload over a dataset and answer it in
/// parallel over one shared engine.
fn batch(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(
        args,
        "canned budget keywords per-set threads seed epsilon beta alpha \
         beam quiet algo json-out",
    )?;
    let path = positional.first().ok_or("batch needs a graph file")?;

    // `--canned` replays the query sets stored in a `.korbin` snapshot
    // (each with its own budget) instead of generating a workload. The
    // graph comes from the same parse, so the queries can never run
    // against a different file state than they were validated with.
    let (graph, canned) = if flag(&flags, "canned").is_some() {
        let world = read_snapshot(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        if world.query_count() == 0 {
            return Err(format!(
                "--canned: {path} holds no canned queries (generate with `kor gen` \
                 or can a workload with `kor ingest --per-set`)"
            ));
        }
        (world.graph, Some(world.query_sets))
    } else {
        (load(path)?, None)
    };

    let budget: f64 = match (flag(&flags, "budget"), &canned) {
        (Some(v), _) => v.parse().map_err(|_| "--budget: not a number")?,
        (None, Some(_)) => 0.0, // unused: canned queries carry budgets
        (None, None) => return Err("--budget is required (or pass --canned)".into()),
    };
    let keyword_counts = parse_keyword_counts(&flags, vec![2, 4, 6, 8, 10])?;
    let per_set: usize = parse_num(&flags, "per-set", 50)?;
    let threads: usize = parse_num(&flags, "threads", 0)?;
    let seed: u64 = parse_num(&flags, "seed", 42)?;
    let quiet = flag(&flags, "quiet").is_some();
    let algo = algo_flags(&flags, "bucket-bound")?;
    let config = BatchConfig {
        workload: WorkloadConfig {
            keyword_counts,
            queries_per_set: per_set,
            frequency_weighted: true,
            max_euclidean_km: None,
            min_doc_fraction: 0.0,
            seed,
        },
        delta: budget,
        canned,
        algo,
        threads,
    };

    let report = run_batch(&graph, &config);

    if !quiet {
        for o in &report.outcomes {
            let status = match (&o.error, o.objective) {
                (Some(e), _) => format!("error: {e}"),
                (None, Some(os)) => format!("OS {os:.4}"),
                (None, None) => "infeasible".to_string(),
            };
            outln!(
                "q{:04} {}kw {:>10.1}us  {status}",
                o.id,
                o.keyword_count,
                o.latency.as_secs_f64() * 1e6,
            );
        }
    }
    eprintln!(
        "batch: {} queries on {} threads in {:.1} ms ({:.0} q/s), {} feasible, {} errors",
        report.outcomes.len(),
        report.threads,
        report.wall.as_secs_f64() * 1e3,
        report.throughput_qps(),
        report.feasible(),
        report.errors(),
    );
    let json = report.to_json();
    if let Some(out) = flag(&flags, "json-out") {
        std::fs::write(out, &json).map_err(|e| format!("--json-out {out}: {e}"))?;
        eprintln!("wrote JSON summary to {out}");
    }
    outln!("{json}");
    Ok(())
}

/// `kor mutate`: replay a mutation script (loaded from `--script` or
/// generated from seeded traffic-profile flags) against a warm engine
/// and write the mutated snapshot. `--verify` rebuilds a cold engine
/// after every phase and requires the two canned-replay answer digests
/// to match bit for bit — the offline form of the dynamic-world
/// byte-identity contract. `--emit-script` saves the script JSON so the
/// exact same incidents replay offline or over `update_edges`.
fn mutate(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(
        args,
        "out script traffic-seed phases closures slowdowns multiplier-lo \
         multiplier-hi no-reopen verify emit-script algo epsilon beta \
         alpha beam json-out quiet",
    )?;
    let input = positional
        .first()
        .ok_or("mutate needs a dataset file (.korbin or .korg)")?;
    let out = match flag(&flags, "out") {
        Some(o) => PathBuf::from(o),
        None => {
            let p = Path::new(input);
            let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("dataset");
            p.with_file_name(format!("{stem}-mutated.korbin"))
        }
    };
    // Same clobber guard as `ingest`.
    let same_file = match (std::fs::canonicalize(input), std::fs::canonicalize(&out)) {
        (Ok(a), Ok(b)) => a == b,
        _ => out.as_path() == Path::new(input),
    };
    if same_file {
        return Err(format!(
            "refusing to overwrite the input ({}); pass a different --out",
            out.display()
        ));
    }
    let mut world =
        kor::data::read_world_auto(Path::new(input)).map_err(|e| format!("{input}: {e}"))?;

    let script = match flag(&flags, "script") {
        Some(path) => {
            // A script file overrides the traffic knobs; mixing the two
            // would silently ignore half the flags.
            for knob in [
                "traffic-seed",
                "phases",
                "closures",
                "slowdowns",
                "multiplier-lo",
                "multiplier-hi",
                "no-reopen",
            ] {
                if flag(&flags, knob).is_some() {
                    return Err(format!("--{knob} conflicts with --script"));
                }
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--script {path}: {e}"))?;
            kor::mutate::script_from_json(&text)?
        }
        None => {
            let base = TrafficConfig::base(parse_num(&flags, "traffic-seed", 2012)?);
            let config = TrafficConfig {
                phases: parse_num(&flags, "phases", base.phases)?,
                closures_per_phase: parse_num(&flags, "closures", base.closures_per_phase)?,
                slowdowns_per_phase: parse_num(&flags, "slowdowns", base.slowdowns_per_phase)?,
                multiplier_range: (
                    parse_num(&flags, "multiplier-lo", base.multiplier_range.0)?,
                    parse_num(&flags, "multiplier-hi", base.multiplier_range.1)?,
                ),
                reopen: flag(&flags, "no-reopen").is_none(),
                ..base
            };
            let (lo, hi) = config.multiplier_range;
            if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo) {
                return Err(format!(
                    "--multiplier-lo/--multiplier-hi must be finite, positive, \
                     and ordered (got [{lo}, {hi}])"
                ));
            }
            generate_traffic(&world.graph, &config)
        }
    };
    if let Some(path) = flag(&flags, "emit-script") {
        std::fs::write(path, kor::mutate::script_to_json(&script))
            .map_err(|e| format!("--emit-script {path}: {e}"))?;
        eprintln!("wrote mutation script to {path}");
    }

    let algo = algo_flags(&flags, "bucket-bound")?;
    let report = run_mutate(
        &mut world,
        &script,
        &MutateConfig {
            algo,
            verify: flag(&flags, "verify").is_some(),
        },
    )?;

    if flag(&flags, "quiet").is_none() {
        for (i, p) in report.phases.iter().enumerate() {
            let verdict = match (p.warm_digest, p.cold_digest) {
                (Some(w), Some(c)) if w == c => format!(", digest {w:016x} (warm == cold)"),
                _ => String::new(),
            };
            eprintln!(
                "phase {i}: {} mutations -> epoch {}, retained {}, evicted {}, repaired {}{verdict}",
                p.applied,
                p.report.epoch,
                p.report.total_retained(),
                p.report.total_evicted(),
                p.report.trees_repaired,
            );
        }
    }
    eprintln!(
        "mutate: {} phases, {} mutations, retained {}, evicted {}, repaired {}{}",
        report.phases.len(),
        report.phases.iter().map(|p| p.applied).sum::<usize>(),
        report.total_retained(),
        report.total_evicted(),
        report.total_repaired(),
        if report.verified {
            ", verified warm == cold"
        } else {
            ""
        },
    );
    let json = report.to_json();
    if let Some(path) = flag(&flags, "json-out") {
        std::fs::write(path, &json).map_err(|e| format!("--json-out {path}: {e}"))?;
        eprintln!("wrote JSON summary to {path}");
    }
    outln!("{json}");
    write_snapshot(&out, &world).map_err(|e| e.to_string())?;
    outln!("saved to {}", out.display());
    Ok(())
}

/// `kor serve`: run the TCP query service until a `shutdown` request.
fn serve(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(
        args,
        "addr threads queue deadline-ms max-request-bytes journal dataset",
    )?;
    if let Some(stray) = positional.first() {
        return Err(format!(
            "serve takes no positional arguments (saw {stray:?}); use --dataset [NAME=]FILE"
        ));
    }
    let config = ServeConfig {
        addr: flag(&flags, "addr").unwrap_or("127.0.0.1:7878").to_string(),
        threads: parse_num(&flags, "threads", 0)?,
        queue_capacity: parse_num(&flags, "queue", 0)?,
        default_deadline_ms: parse_num(&flags, "deadline-ms", 0)?,
        max_request_bytes: parse_num(&flags, "max-request-bytes", 1 << 20)?,
        journal: flag(&flags, "journal").map(PathBuf::from),
    };
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    for spec in flag_all(&flags, "dataset") {
        // `NAME=FILE` names the dataset explicitly; a bare `FILE` takes
        // its name from the file stem.
        let (name, path) = match spec.split_once('=') {
            Some((name, path)) if !name.is_empty() => (name.to_string(), path),
            _ => {
                let path = spec.strip_prefix('=').unwrap_or(spec);
                let name = Dataset::name_from_path(Path::new(path))
                    .ok_or_else(|| format!("--dataset {spec:?}: cannot derive a name"))?;
                (name, path)
            }
        };
        let recovered = server.attach_dataset(&name, Path::new(path))?;
        let dataset = server
            .registry()
            .get(&name)
            .expect("attach_dataset registered the dataset");
        let graph = dataset.engine().graph();
        eprintln!(
            "loaded dataset {name:?}: {} nodes, {} edges, {} keywords",
            graph.node_count(),
            graph.edge_count(),
            graph.vocab().len()
        );
        if let Some(info) = recovered {
            if info.batches > 0 {
                eprintln!(
                    "recovered dataset {name:?} from its journal: {} batches -> epoch {}",
                    info.batches, info.epoch
                );
            }
        }
    }
    // The e2e tests parse this line to learn the ephemeral port; keep
    // its shape stable.
    outln!("kor serve: listening on {}", server.local_addr());
    server.run();
    eprintln!("kor serve: shut down");
    Ok(())
}

/// `kor recover`: replay a mutation journal over its base world,
/// optionally verify against a never-crashed twin, optionally compact.
fn recover(args: &[String]) -> Result<(), String> {
    let (positional, flags) = parse_flags(
        args,
        "journal algo epsilon beta alpha beam name verify compact \
         json-out",
    )?;
    let dataset = positional
        .first()
        .ok_or("recover needs the dataset file the journal was created for")?;
    let journal_dir = flag(&flags, "journal")
        .ok_or("recover needs --journal DIR (the serve-side journal directory)")?;
    let algo = algo_flags(&flags, "bucket-bound")?;
    let config = RecoverConfig {
        dataset: PathBuf::from(dataset),
        journal_dir: PathBuf::from(journal_dir),
        name: flag(&flags, "name").map(str::to_string),
        verify: flag(&flags, "verify").is_some(),
        compact: flag(&flags, "compact").is_some(),
        algo,
    };
    let json_out = flag(&flags, "json-out").map(Path::new);
    let report = run_recover_to_file(&config, json_out)?;
    eprintln!(
        "recover {:?}: base epoch {}, {} batches -> epoch {}{}",
        report.name,
        report.base_epoch,
        report.batches,
        report.epoch,
        if report.torn_bytes > 0 {
            format!(" ({} torn bytes ignored)", report.torn_bytes)
        } else {
            String::new()
        },
    );
    if let Some(digest) = report.verified_digest {
        eprintln!("verified: cold-recovered answers match the never-crashed twin ({digest:016x})");
    }
    if let Some(path) = &report.checkpoint {
        eprintln!("compacted into checkpoint {}", path.display());
    }
    outln!("{}", report.to_json());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_flags_splits_positional_and_flags() {
        let (pos, flags) =
            parse_flags(&s(&["file.korg", "--from", "3", "--to", "7"]), "from to").unwrap();
        assert_eq!(pos, vec!["file.korg"]);
        assert_eq!(flag(&flags, "from"), Some("3"));
        assert_eq!(flag(&flags, "to"), Some("7"));
        assert_eq!(flag(&flags, "missing"), None);
    }

    #[test]
    fn parse_flags_rejects_dangling_flag() {
        assert!(parse_flags(&s(&["--from"]), "from").is_err());
    }

    #[test]
    fn parse_flags_rejects_unknown_flags() {
        let err = parse_flags(&s(&["--epsilonn", "0.9"]), "epsilon").unwrap_err();
        assert_eq!(err, "unknown flag --epsilonn");
        // Switches are checked too, before they could be taken as set.
        let err = parse_flags(&s(&["--smoke"]), "out").unwrap_err();
        assert_eq!(err, "unknown flag --smoke");
    }

    #[test]
    fn boolean_small_flag() {
        let (_, flags) =
            parse_flags(&s(&["flickr", "--small", "--seed", "3"]), "small seed").unwrap();
        assert_eq!(flag(&flags, "small"), Some("true"));
        assert_eq!(flag(&flags, "seed"), Some("3"));
    }

    #[test]
    fn parse_num_defaults_and_errors() {
        let (_, flags) = parse_flags(&s(&["--k", "4", "--epsilon", "zzz"]), "k epsilon").unwrap();
        assert_eq!(parse_num::<usize>(&flags, "k", 1).unwrap(), 4);
        assert_eq!(parse_num::<usize>(&flags, "absent", 9).unwrap(), 9);
        assert!(parse_num::<f64>(&flags, "epsilon", 0.5).is_err());
    }

    #[test]
    fn unknown_subcommand_is_error_listing_alternatives() {
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        for sub in [
            "generate", "gen", "ingest", "stats", "query", "batch", "mutate", "serve", "recover",
        ] {
            assert!(err.contains(sub), "error must mention {sub}: {err}");
        }
        // Retired subcommands are not offered: the benchmark of record
        // (`benchmark/`) replaced `bench` and `loadtest`, and datasets
        // are served unsharded.
        for gone in ["bench", "loadtest", "shard"] {
            assert!(!err.contains(gone), "error must not offer {gone}: {err}");
            assert!(run(&s(&[gone])).unwrap_err().contains("unknown subcommand"));
        }
    }

    #[test]
    fn help_enumerates_every_subcommand() {
        assert!(run(&s(&["help"])).is_ok());
        for sub in [
            "kor generate",
            "kor gen ",
            "kor ingest",
            "kor stats",
            "kor query",
            "kor batch",
            "kor mutate",
            "kor serve",
            "kor recover",
            "kor help",
        ] {
            assert!(usage().contains(sub), "usage must mention {sub:?}");
        }
        for gone in ["kor bench", "kor loadtest", "kor shard"] {
            assert!(!usage().contains(gone), "usage must not mention {gone:?}");
        }
        // The seed contract is part of the CLI contract.
        assert!(usage().contains("byte-identical"));
    }

    #[test]
    fn serve_rejects_positional_args_and_bad_datasets() {
        assert!(serve(&s(&["stray.korg"])).is_err());
        assert!(serve(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--dataset",
            "/nonexistent/file.korg"
        ]))
        .is_err());
    }

    #[test]
    fn flag_all_collects_repeats_in_order() {
        let (_, flags) = parse_flags(
            &s(&["--dataset", "a=1.korg", "--dataset", "b=2.korg"]),
            "dataset",
        )
        .unwrap();
        assert_eq!(flag_all(&flags, "dataset"), vec!["a=1.korg", "b=2.korg"]);
        assert!(flag_all(&flags, "absent").is_empty());
    }

    #[test]
    fn end_to_end_generate_stats_query() {
        let dir = std::env::temp_dir().join("kor-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("cli.korg");
        let graph_str = graph_path.to_str().unwrap().to_string();
        run(&s(&[
            "generate", "road", "--nodes", "200", "--out", &graph_str, "--seed", "5",
        ]))
        .unwrap();
        run(&s(&["stats", &graph_str])).unwrap();

        // Query with a keyword that certainly exists: read it back from
        // the saved graph.
        let graph = load(&graph_str).unwrap();
        let kw = graph
            .vocab()
            .iter()
            .find(|(id, _)| graph.nodes().any(|n| graph.node_has_keyword(n, *id)))
            .map(|(_, t)| t.to_string())
            .unwrap();
        run(&s(&[
            "query",
            &graph_str,
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
            "--k",
            "2",
        ]))
        .unwrap();
        run(&s(&[
            "query",
            &graph_str,
            "--from",
            "0",
            "--to",
            "100",
            "--keywords",
            &kw,
            "--budget",
            "1000",
            "--algo",
            "greedy",
            "--beam",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn gen_ingest_batch_round_trip() {
        let dir = std::env::temp_dir().join(format!("kor-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("world.korbin");
        let bin_str = bin.to_str().unwrap().to_string();
        run(&s(&[
            "gen",
            "--topology",
            "grid",
            "--width",
            "5",
            "--height",
            "4",
            "--seed",
            "9",
            "--out",
            &bin_str,
        ]))
        .unwrap();
        // The snapshot loads everywhere a graph file is accepted.
        run(&s(&["stats", &bin_str])).unwrap();
        let world = read_snapshot(&bin).unwrap();
        assert_eq!(world.graph.node_count(), 20);
        assert!(world.query_count() > 0);

        // korbin -> korg -> korbin; the text leg drops queries, the
        // second leg cans a fresh workload.
        let text = dir.join("world.korg");
        let text_str = text.to_str().unwrap().to_string();
        run(&s(&["ingest", &bin_str, "--out", &text_str])).unwrap();
        let back = dir.join("back.korbin");
        let back_str = back.to_str().unwrap().to_string();
        run(&s(&[
            "ingest",
            &text_str,
            "--out",
            &back_str,
            "--per-set",
            "3",
            "--keywords",
            "2",
            "--budget",
            "12",
        ]))
        .unwrap();
        let back_world = read_snapshot(&back).unwrap();
        assert_eq!(back_world.graph.node_count(), 20);
        assert_eq!(back_world.query_count(), 3);

        // Canned replay through the batch front end.
        run(&s(&["batch", &bin_str, "--canned", "--quiet"])).unwrap();
        // --canned on a query-less snapshot is a clear error.
        let empty = dir.join("empty.korbin");
        run(&s(&[
            "gen",
            "--width",
            "3",
            "--height",
            "3",
            "--per-set",
            "0",
            "--out",
            empty.to_str().unwrap(),
        ]))
        .unwrap();
        let err = run(&s(&[
            "batch",
            empty.to_str().unwrap(),
            "--canned",
            "--quiet",
        ]))
        .unwrap_err();
        assert!(err.contains("no canned queries"), "{err}");
        // Refuses to clobber its input.
        assert!(run(&s(&["ingest", &bin_str, "--out", &bin_str])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutate_verifies_emits_and_replays_scripts() {
        let dir = std::env::temp_dir().join(format!("kor-cli-mutate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("world.korbin");
        let bin_str = bin.to_str().unwrap().to_string();
        run(&s(&[
            "gen",
            "--topology",
            "grid",
            "--width",
            "6",
            "--height",
            "5",
            "--seed",
            "3",
            "--out",
            &bin_str,
        ]))
        .unwrap();

        // Generate traffic, verify warm == cold, emit the script.
        let mutated = dir.join("mutated.korbin");
        let script = dir.join("script.json");
        run(&s(&[
            "mutate",
            &bin_str,
            "--traffic-seed",
            "7",
            "--verify",
            "--quiet",
            "--out",
            mutated.to_str().unwrap(),
            "--emit-script",
            script.to_str().unwrap(),
            "--json-out",
            dir.join("summary.json").to_str().unwrap(),
        ]))
        .unwrap();
        let world = read_snapshot(&mutated).unwrap();
        assert!(world.query_count() > 0, "canned queries survive mutation");
        let summary = kor::json::JsonValue::parse(
            &std::fs::read_to_string(dir.join("summary.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(
            summary
                .get("verified")
                .and_then(kor::json::JsonValue::as_bool),
            Some(true)
        );

        // Replaying the emitted script byte-reproduces the snapshot.
        let again = dir.join("again.korbin");
        run(&s(&[
            "mutate",
            &bin_str,
            "--script",
            script.to_str().unwrap(),
            "--quiet",
            "--out",
            again.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&mutated).unwrap(),
            std::fs::read(&again).unwrap(),
            "script replay must byte-reproduce the mutated snapshot"
        );

        // Traffic knobs conflict with --script; clobbering is refused.
        assert!(run(&s(&[
            "mutate",
            &bin_str,
            "--script",
            script.to_str().unwrap(),
            "--phases",
            "2",
        ]))
        .is_err());
        assert!(run(&s(&["mutate", &bin_str, "--out", &bin_str])).is_err());
        // Bad multiplier ranges fail before any engine work.
        assert!(run(&s(&[
            "mutate",
            &bin_str,
            "--multiplier-lo",
            "2.0",
            "--multiplier-hi",
            "1.0",
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_requires_endpoints_and_budget() {
        let dir = std::env::temp_dir().join("kor-cli-tests2");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("need.korg");
        let graph_str = graph_path.to_str().unwrap().to_string();
        run(&s(&[
            "generate", "road", "--nodes", "50", "--out", &graph_str,
        ]))
        .unwrap();
        assert!(run(&s(&["query", &graph_str, "--budget", "5"])).is_err());
        assert!(run(&s(&["query", &graph_str, "--from", "0", "--to", "3"])).is_err());
    }
}
