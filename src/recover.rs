//! Offline crash recovery: replay a mutation journal over its base
//! world, prove the result equals the engine that never crashed, and
//! optionally compact the journal into a checkpoint.
//!
//! This is the CLI twin of the recovery `kor serve --journal` performs
//! on startup (see `crate::serve::recovery` and `docs/OPERATIONS.md`),
//! as a standalone tool an operator can run against a journal
//! directory *without* starting a server:
//!
//! * the plain report says what the journal holds — base epoch, durable
//!   batches, torn bytes discarded at the tail;
//! * `--verify` replays the base world's canned queries on two engines
//!   — the **cold** recovered engine (journal replay, fresh caches) and
//!   a **warm** never-crashed twin (the base engine with every batch
//!   applied incrementally, caches carried) — and fails on any answer
//!   digest divergence, the same FNV-1a fold as `kor mutate --verify`;
//! * `--compact` checkpoints the recovered world into the journal
//!   directory and restarts the journal from it, bounding replay time.
//!
//! Without `--compact` the tool is strictly read-only: a torn tail is
//! reported but left in place (the serve-side recovery truncates it on
//! open; an investigator may want the bytes).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use kor_core::{Algo, KorEngine};
use kor_data::journal::{
    checkpoint_path, graph_digest, journal_path, read_journal, replay, Journal,
};
use kor_data::Snapshot;

use crate::json::JsonValue;
use crate::mutate::replay_digest;

/// Knobs for one [`run_recover`] pass.
#[derive(Debug, Clone)]
pub struct RecoverConfig {
    /// The dataset file the journal extends (used when the journal was
    /// never compacted; afterwards the checkpoint in the journal
    /// directory takes precedence, exactly as serve-side recovery
    /// resolves it).
    pub dataset: PathBuf,
    /// Directory holding the `.korj` journal and its checkpoints.
    pub journal_dir: PathBuf,
    /// Dataset name (journal file stem); defaults to the dataset
    /// file's stem.
    pub name: Option<String>,
    /// Replay canned queries on the recovered engine and a
    /// never-crashed twin; fail on digest divergence.
    pub verify: bool,
    /// Checkpoint the recovered world and restart the journal from it.
    pub compact: bool,
    /// Algorithm for the `--verify` replays.
    pub algo: Algo,
}

/// What one [`run_recover`] pass found (and did).
#[derive(Debug, Clone)]
pub struct RecoverReport {
    /// Dataset / journal name.
    pub name: String,
    /// Epoch of the base world the journal extends.
    pub base_epoch: u64,
    /// Graph epoch after replaying every durable batch.
    pub epoch: u64,
    /// Durable mutation batches replayed.
    pub batches: u64,
    /// Bytes of torn tail after the last durable record (0 for a
    /// cleanly written journal).
    pub torn_bytes: u64,
    /// The matching answer digest, when `--verify` ran.
    pub verified_digest: Option<u64>,
    /// The checkpoint written, when `--compact` ran.
    pub checkpoint: Option<PathBuf>,
}

impl RecoverReport {
    /// Renders the report as JSON (digests as zero-padded hex, like the
    /// batch and mutate summaries).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(&'static str, JsonValue)> = vec![
            ("name", self.name.as_str().into()),
            ("base_epoch", self.base_epoch.into()),
            ("epoch", self.epoch.into()),
            ("batches", self.batches.into()),
            ("torn_bytes", self.torn_bytes.into()),
            ("verified", self.verified_digest.is_some().into()),
        ];
        if let Some(d) = self.verified_digest {
            fields.push(("digest", format!("{d:016x}").into()));
        }
        if let Some(cp) = &self.checkpoint {
            fields.push(("checkpoint", cp.display().to_string().into()));
        }
        JsonValue::obj(fields).render()
    }
}

/// Replays the journal for `config.name` over its base world and
/// reports what it recovered; see the module docs for `--verify` and
/// `--compact`.
pub fn run_recover(config: &RecoverConfig) -> Result<RecoverReport, String> {
    let name = match &config.name {
        Some(n) => n.clone(),
        None => config
            .dataset
            .file_stem()
            .and_then(|s| s.to_str())
            .map(str::to_string)
            .ok_or("cannot derive a dataset name; pass --name")?,
    };
    let jpath = journal_path(&config.journal_dir, &name);
    let recovered =
        read_journal(&jpath).map_err(|e| format!("journal {}: {e}", jpath.display()))?;

    // Base resolution mirrors serve-side recovery: the checkpoint the
    // journal was restarted from wins; the dataset file itself is only
    // a valid base while no checkpoint was ever taken (base epoch 0).
    let cp = checkpoint_path(&config.journal_dir, &name, recovered.base_epoch);
    let base = if cp.exists() {
        cp
    } else if recovered.base_epoch == 0 {
        config.dataset.clone()
    } else {
        return Err(format!(
            "journal {} starts at epoch {} but its checkpoint {} is missing",
            jpath.display(),
            recovered.base_epoch,
            cp.display(),
        ));
    };
    let mut snapshot =
        kor_data::read_world_auto(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    if config.verify && snapshot.query_count() == 0 && base != config.dataset {
        // The checkpoint `kor serve` writes when it seeds a journal
        // holds the graph alone; the dataset file's canned queries ask
        // about the same nodes and keywords.
        snapshot.query_sets = kor_data::read_world_auto(&config.dataset)
            .map_err(|e| format!("{}: {e}", config.dataset.display()))?
            .query_sets;
    }
    let (graph, _applied) = replay(&snapshot.graph, &recovered).map_err(|e| {
        format!(
            "journal {} does not extend {}: {e}",
            jpath.display(),
            base.display()
        )
    })?;
    // The graph's own epoch, not the replayed-batch count: for a
    // compacted journal the two differ by the checkpoint's base epoch.
    let epoch = graph.epoch();

    let verified_digest = if config.verify {
        if snapshot.query_count() == 0 {
            return Err(
                "--verify needs canned queries in the base world (generate with \
                 `kor gen`, or can a workload with `kor ingest --per-set`)"
                    .into(),
            );
        }
        // The never-crashed twin: the base engine, queries answered (so
        // caches are warm, exercising the cache repair), then
        // every durable batch applied in order — the exact path a live
        // server took before it died.
        let mut warm = KorEngine::new(Arc::new(snapshot.graph.clone()));
        let _ = replay_digest(&warm, &snapshot, &config.algo)?;
        for (i, (_, batch)) in recovered.batches.iter().enumerate() {
            let (next, _) = warm
                .apply_edge_mutations(batch)
                .map_err(|e| format!("batch {i}: {e}"))?;
            warm = next;
        }
        let warm_digest = replay_digest(&warm, &snapshot, &config.algo)?;
        // The recovered engine: cold rebuild on the replayed graph,
        // exactly what a restarted server serves.
        let cold = KorEngine::new(Arc::new(graph.clone()));
        let cold_digest = replay_digest(&cold, &snapshot, &config.algo)?;
        if warm_digest != cold_digest {
            return Err(format!(
                "recovered engine diverges from the never-crashed replay: \
                 cold digest {cold_digest:016x} != warm {warm_digest:016x}"
            ));
        }
        Some(cold_digest)
    } else {
        None
    };

    let checkpoint = if config.compact {
        // Open for real — this truncates any torn tail — and fold the
        // recovered world into a checkpoint the journal restarts from.
        // Canned queries ride along so later `--verify` passes keep
        // working.
        let digest = graph_digest(&snapshot.graph);
        let (mut journal, _) = Journal::open(&jpath, digest)
            .map_err(|e| format!("journal {}: {e}", jpath.display()))?;
        let world = Snapshot {
            graph: graph.clone(),
            query_sets: snapshot.query_sets.clone(),
        };
        let path = journal
            .checkpoint(&name, &world)
            .map_err(|e| format!("compact: {e}"))?;
        Some(path)
    } else {
        None
    };

    Ok(RecoverReport {
        name,
        base_epoch: recovered.base_epoch,
        epoch,
        batches: recovered.batches.len() as u64,
        torn_bytes: recovered.torn_bytes,
        verified_digest,
        checkpoint,
    })
}

/// Convenience used by the CLI: run and also write the JSON report.
pub fn run_recover_to_file(
    config: &RecoverConfig,
    json_out: Option<&Path>,
) -> Result<RecoverReport, String> {
    let report = run_recover(config)?;
    if let Some(path) = json_out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_data::journal::Journal;
    use kor_data::{generate_traffic, generate_world, GenConfig, TrafficConfig};

    fn algo() -> Algo {
        Algo::BucketBound(kor_core::BucketBoundParams::default())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kor-recover-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Builds a world file plus a journal holding `phases` traffic
    /// batches, as a crashed server would have left them.
    fn journaled_world(dir: &Path, phases: usize) -> (PathBuf, Vec<Vec<kor_graph::EdgeMutation>>) {
        let world = generate_world(&GenConfig::grid(6, 5, 3));
        let path = dir.join("w.korbin");
        kor_data::write_snapshot(&path, &world).unwrap();
        let script = generate_traffic(&world.graph, &TrafficConfig::base(31));
        let script: Vec<_> = script.into_iter().take(phases).collect();
        let jpath = journal_path(dir, "w");
        let mut journal = Journal::create(&jpath, 0, graph_digest(&world.graph)).unwrap();
        for (i, batch) in script.iter().enumerate() {
            journal.append(i as u64 + 1, batch).unwrap();
        }
        (path, script)
    }

    #[test]
    fn recover_reports_and_verifies_a_journal() {
        let dir = temp_dir("verify");
        let (path, script) = journaled_world(&dir, 3);
        let report = run_recover(&RecoverConfig {
            dataset: path,
            journal_dir: dir.clone(),
            name: None,
            verify: true,
            compact: false,
            algo: algo(),
        })
        .unwrap();
        assert_eq!(report.base_epoch, 0);
        assert_eq!(report.epoch, script.len() as u64);
        assert_eq!(report.batches, script.len() as u64);
        assert_eq!(report.torn_bytes, 0);
        assert!(report.verified_digest.is_some());
        assert!(report.checkpoint.is_none());
        let json = report.to_json();
        assert!(json.contains("\"verified\":true"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_checkpoints_and_later_recovery_resumes_from_it() {
        let dir = temp_dir("compact");
        let (path, script) = journaled_world(&dir, 2);
        let cfg = RecoverConfig {
            dataset: path,
            journal_dir: dir.clone(),
            name: None,
            verify: true,
            compact: true,
            algo: algo(),
        };
        let report = run_recover(&cfg).unwrap();
        let cp = report.checkpoint.expect("checkpoint written");
        assert!(cp.exists());
        // A second pass resolves the checkpoint as its base, replays
        // nothing, and still verifies (queries were carried along).
        let again = run_recover(&cfg).unwrap();
        assert_eq!(again.base_epoch, script.len() as u64);
        assert_eq!(again.batches, 0);
        assert!(again.verified_digest.is_some());
        assert_eq!(report.verified_digest, again.verified_digest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_is_a_clear_error() {
        let dir = temp_dir("missing");
        let err = run_recover(&RecoverConfig {
            dataset: dir.join("nope.korbin"),
            journal_dir: dir.clone(),
            name: None,
            verify: false,
            compact: false,
            algo: algo(),
        })
        .unwrap_err();
        assert!(err.contains("nope.korj"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_journal_is_rejected_not_replayed() {
        // A journal bound to a *different* world must fail the digest
        // check, not fabricate a graph.
        let dir = temp_dir("foreign");
        let other = generate_world(&GenConfig::grid(4, 4, 2));
        let world = generate_world(&GenConfig::grid(6, 5, 3));
        let path = dir.join("w.korbin");
        kor_data::write_snapshot(&path, &world).unwrap();
        let jpath = journal_path(&dir, "w");
        let mut journal = Journal::create(&jpath, 0, graph_digest(&other.graph)).unwrap();
        let script = generate_traffic(&other.graph, &TrafficConfig::base(7));
        journal.append(1, &script[0]).unwrap();
        let err = run_recover(&RecoverConfig {
            dataset: path,
            journal_dir: dir.clone(),
            name: None,
            verify: false,
            compact: false,
            algo: algo(),
        })
        .unwrap_err();
        assert!(err.contains("does not extend"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
