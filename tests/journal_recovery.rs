//! Recovery oracle battery: an engine recovered cold from
//! (base snapshot + `.korj` journal on disk) answers every canned
//! query bit-for-bit identically to the warm engine that never
//! crashed.
//!
//! This is the crash-safety counterpart of `tests/mutate_oracle.rs`:
//! where that battery proves incremental invalidation equals a cold
//! rebuild, this one proves the *durable* path equals the live path.
//! Generated worlds (grid and ring topologies, multiple seeds) each
//! get a seeded traffic script. Every batch is appended to a real
//! journal file before the warm engine applies it — the write-ahead
//! order serve uses. After every phase the journal is re-read from
//! disk, replayed over the pristine base world, and the recovered
//! engine races the warm survivor on every canned query with every
//! algorithm: same feasibility, same route node ids, same
//! objective/budget f64 bit patterns, same top-k order.
//!
//! A torn-tail rider appends garbage after the last durable record and
//! proves recovery still lands on the identical world (the byte-level
//! truncation property test lives with `kor_data::journal`).

use std::path::PathBuf;
use std::sync::Arc;

mod common;

use common::{canned_queries, keys, label, requests, verify_outcome, worlds};
use kor::prelude::*;
use kor_data::journal::{graph_digest, journal_path, read_journal, replay, Journal};

/// Runs one search and reduces the answer to its exact bits.
fn run<G: AsRef<Graph>>(
    engine: &KorEngine<G>,
    query: &KorQuery,
    request: &SearchRequest,
) -> Vec<(Vec<u32>, u64, u64)> {
    keys(&engine.search(query, request).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kor-jrnl-oracle-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn recovered_engine_matches_the_never_crashed_twin_on_all_worlds() {
    let mut compared = 0usize;
    // The first three seeds of both families, so every phase replays
    // quickly.
    for (w, config) in worlds().into_iter().take(6).enumerate() {
        let world = generate_world(&config);
        let world_label = format!("{} seed {}", config.topology.name(), config.seed);
        let script = generate_traffic(&world.graph, &TrafficConfig::base(0xC0FFEE ^ config.seed));
        assert!(!script.is_empty(), "{world_label}: traffic script is empty");

        let dir = temp_dir(&format!("w{w}"));
        let jpath = journal_path(&dir, "w");
        let mut journal = Journal::create(&jpath, 0, graph_digest(&world.graph)).unwrap();

        // The never-crashed twin: warm caches, incremental invalidation.
        let mut warm = KorEngine::new(Arc::new(world.graph.clone()));
        for query in &canned_queries(warm.graph(), &world.query_sets) {
            for request in &requests() {
                let _ = run(&warm, query, request);
            }
        }

        for (phase, batch) in script.iter().enumerate() {
            let epoch = (phase + 1) as u64;
            // Write-ahead, exactly like serve: durable first, then live.
            journal.append(epoch, batch).unwrap();
            let (next, _report) = warm
                .apply_edge_mutations(batch)
                .unwrap_or_else(|e| panic!("{world_label} phase {phase}: {e}"));
            warm = next;

            // Cold recovery from the bytes on disk, every phase.
            let recovered = read_journal(&jpath).unwrap();
            assert_eq!(recovered.torn_bytes, 0, "{world_label}: clean journal");
            let (graph, applied) = replay(&world.graph, &recovered).unwrap();
            assert_eq!(
                applied, epoch,
                "{world_label} phase {phase}: batches replayed"
            );
            assert_eq!(graph.epoch(), epoch, "{world_label}: recovered epoch");
            let cold = KorEngine::new(Arc::new(graph));

            for query in &canned_queries(warm.graph(), &world.query_sets) {
                for request in &requests() {
                    let answer = warm.search(query, request).unwrap();
                    verify_outcome(warm.graph(), query, &answer, &label(request));
                    assert_eq!(
                        keys(&answer),
                        run(&cold, query, request),
                        "{world_label} phase {phase}: {} -> {} Δ {:.3} [{}]: \
                         recovered engine diverged from the never-crashed twin",
                        query.source,
                        query.target,
                        query.budget,
                        label(request)
                    );
                    compared += 1;
                }
            }
        }

        // Torn-tail rider: a crash mid-append leaves garbage after the
        // last durable record. Recovery must land on the identical
        // world and report the tail.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&jpath)
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]).unwrap();
        drop(f);
        let recovered = read_journal(&jpath).unwrap();
        assert_eq!(recovered.torn_bytes, 5, "{world_label}: torn tail measured");
        assert_eq!(
            recovered.batches.len(),
            script.len(),
            "{world_label}: the torn tail cost no durable batch"
        );
        let (graph, _) = replay(&world.graph, &recovered).unwrap();
        let cold = KorEngine::new(Arc::new(graph));
        for query in &canned_queries(warm.graph(), &world.query_sets) {
            assert_eq!(
                run(&warm, query, &requests()[2]),
                run(&cold, query, &requests()[2]),
                "{world_label}: torn-tail recovery diverged"
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(compared > 0, "the oracle never compared anything");
    eprintln!("journal recovery oracle: {compared} warm-vs-recovered comparisons");
}

/// Regression: `RecoveryInfo.epoch` is the *graph* epoch after replay,
/// which equals the replayed-batch count only while the journal's base
/// is epoch 0. After compaction the journal is empty but its base is
/// the checkpoint epoch — recovery must report that epoch, not 0.
#[test]
fn compacted_journal_recovery_reports_the_checkpoint_epoch() {
    use kor::serve::recovery::attach;
    use kor_data::Snapshot;

    let config = GenConfig {
        vocab_size: 12,
        max_tags_per_node: 2,
        keyword_counts: vec![1, 2],
        queries_per_set: 4,
        budget_tightness: 1.5,
        ..GenConfig::grid(3, 4, 0)
    };
    let world = generate_world(&config);
    let script = generate_traffic(&world.graph, &TrafficConfig::base(7));
    let n = script.len() as u64;
    assert!(n > 0, "traffic script is empty");

    let dir = temp_dir("compact");
    let wpath = dir.join("w.korbin");
    write_snapshot(&wpath, &world).unwrap();
    let jdir = dir.join("journal");

    // Fresh attach binds a journal at base epoch 0; journal every batch
    // write-ahead while tracking the world it describes.
    let (_ds, mut state) = attach(&jdir, "w", &wpath).unwrap();
    assert_eq!(state.recovered.epoch, 0);
    let mut graph = world.graph.clone();
    for (i, batch) in script.iter().enumerate() {
        state.journal.append((i + 1) as u64, batch).unwrap();
        graph = graph.apply_mutations(batch).unwrap();
    }
    drop(state);

    // Pre-compaction restart: epoch and batch count coincide (base 0).
    let (_ds, state) = attach(&jdir, "w", &wpath).unwrap();
    assert_eq!(state.recovered.batches, n);
    assert_eq!(state.recovered.epoch, n);

    // Compact, restart again: nothing left to replay, but the epoch is
    // the checkpoint's — the two counters no longer coincide.
    let mut journal = state.journal;
    journal
        .checkpoint("w", &Snapshot::graph_only(graph))
        .unwrap();
    drop(journal);
    let (ds, state) = attach(&jdir, "w", &wpath).unwrap();
    assert_eq!(state.recovered.batches, 0, "compaction emptied the journal");
    assert_eq!(
        state.recovered.epoch, n,
        "recovered epoch must be the checkpoint epoch, not the replay count"
    );
    assert_eq!(
        ds.engine().graph().epoch(),
        n,
        "the dataset serves epoch {n}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
