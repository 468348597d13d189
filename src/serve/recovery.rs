//! Journal-backed dataset attachment: crash recovery on load, and
//! journal seeding for datasets that start journaling mid-life.
//!
//! When the server runs with `--journal DIR`, every dataset owns one
//! `.korj` write-ahead journal in that directory (see
//! `kor_data::journal` and `docs/OPERATIONS.md`). This module is the
//! glue between the registry and the journal:
//!
//! * [`attach`] loads a dataset *through* its journal — it reads the
//!   journal (tolerating a torn tail), resolves the base world (the
//!   newest checkpoint, or the dataset file itself), replays every
//!   durable mutation batch, and hands back a [`Dataset`] that is
//!   bit-identical to the engine the crashed process would have been
//!   serving — plus the journal, open and ready to append.
//! * [`seed`] starts a journal for a dataset that was loaded without
//!   one (journaling enabled after the fact, or a dataset inserted
//!   from memory). It writes a checkpoint of the current world first,
//!   so recovery never depends on how the dataset originally arrived.
//!
//! Both run under the registry's mutation guard when called from the
//! request path, so journal state and registry state replace together.

use std::path::Path;

use kor_data::journal::{graph_digest, journal_path, read_journal, replay, Journal};
use kor_data::Snapshot;

use super::registry::Dataset;

/// What replaying a journal recovered, reported in `load_dataset`
/// responses and `stats`.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryInfo {
    /// Graph epoch after replay (equals the journal's last durable
    /// epoch; the base epoch when the journal held no batches).
    pub epoch: u64,
    /// Mutation batches replayed from the journal.
    pub batches: u64,
}

/// A dataset's live journal plus what its last recovery replayed.
/// Held in the server context keyed by dataset name; replaced
/// atomically with the registry entry under the mutation guard.
#[derive(Debug)]
pub struct JournalState {
    /// The open write-ahead journal for this dataset.
    pub journal: Journal,
    /// What attaching this journal recovered (zeros for a journal that
    /// was freshly created rather than replayed).
    pub recovered: RecoveryInfo,
}

/// Loads the dataset at `path` through its journal in `dir`: replays
/// every durable mutation batch the crashed (or cleanly stopped)
/// previous process journaled, and returns the recovered dataset with
/// its journal open for further appends.
///
/// Resolution order for the base world the journal extends:
///
/// 1. a checkpoint `{name}.{base_epoch}.korbin` in `dir`, if present —
///    the compacted base the journal was restarted from;
/// 2. otherwise the dataset file itself (only valid while the journal's
///    base epoch is 0, i.e. no checkpoint was ever taken).
///
/// A journal whose header digest does not match the resolved base is a
/// hard error, not a silent skip: it means the journal belongs to a
/// different world than the file being loaded, and replaying it would
/// fabricate a graph nobody ever served. The error says which file to
/// delete to start fresh.
pub fn attach(dir: &Path, name: &str, path: &Path) -> Result<(Dataset, JournalState), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create journal directory {}: {e}", dir.display()))?;
    let jpath = journal_path(dir, name);
    if !jpath.exists() {
        // Fresh attach: no recovery to do, just bind a new journal to
        // this world so the *next* restart has something to replay.
        let snapshot =
            kor_data::read_world_auto(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let digest = graph_digest(&snapshot.graph);
        let epoch = snapshot.graph.epoch();
        let journal = Journal::create(&jpath, epoch, digest)
            .map_err(|e| format!("cannot create journal {}: {e}", jpath.display()))?;
        let dataset = Dataset::from_snapshot(name, snapshot);
        return Ok((
            dataset,
            JournalState {
                journal,
                recovered: RecoveryInfo { epoch, batches: 0 },
            },
        ));
    }

    // Peek at the journal header to learn which base world it extends,
    // then resolve that base: prefer its checkpoint, fall back to the
    // dataset file for a never-compacted journal.
    let peek = read_journal(&jpath).map_err(|e| {
        format!(
            "journal {}: {e} (delete it to start fresh)",
            jpath.display()
        )
    })?;
    let cp = kor_data::checkpoint_path(dir, name, peek.base_epoch);
    let base = if cp.exists() {
        cp
    } else if peek.base_epoch == 0 {
        path.to_path_buf()
    } else {
        return Err(format!(
            "journal {} starts at epoch {} but its checkpoint {} is missing — \
             restore the checkpoint or delete the journal to start fresh from {}",
            jpath.display(),
            peek.base_epoch,
            cp.display(),
            path.display(),
        ));
    };
    let snapshot =
        kor_data::read_world_auto(&base).map_err(|e| format!("{}: {e}", base.display()))?;
    let digest = graph_digest(&snapshot.graph);
    // Re-open for appending; this also truncates any torn tail so the
    // next append extends a clean chain.
    let (journal, recovered) =
        Journal::open(&jpath, digest).map_err(|e| format!("journal {}: {e}", jpath.display()))?;
    let (graph, _applied) = replay(&snapshot.graph, &recovered).map_err(|e| {
        format!(
            "journal {} does not extend {} ({e}) — delete the journal to \
             load the file as-is, discarding journaled mutations",
            jpath.display(),
            base.display(),
        )
    })?;
    // The graph's own epoch, not the replayed-batch count: for a
    // compacted journal the two differ by the checkpoint's base epoch.
    let epoch = graph.epoch();
    let batches = recovered.batches.len() as u64;
    let dataset = Dataset::from_graph(name, graph);
    Ok((
        dataset,
        JournalState {
            journal,
            recovered: RecoveryInfo { epoch, batches },
        },
    ))
}

/// Starts a journal for a dataset that has none yet (journaling was
/// enabled after the dataset was loaded, or it was inserted from
/// memory and never touched disk). Writes a checkpoint of the current
/// world first, then binds a fresh journal to it — so recovery after
/// this point is self-contained in the journal directory and never
/// needs the original source.
pub fn seed(dir: &Path, dataset: &Dataset) -> Result<JournalState, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create journal directory {}: {e}", dir.display()))?;
    let graph = dataset.engine().graph().as_ref().clone();
    let epoch = graph.epoch();
    let digest = graph_digest(&graph);
    let world = Snapshot::graph_only(graph);
    let jpath = journal_path(dir, dataset.name());
    let mut journal = Journal::create(&jpath, epoch, digest)
        .map_err(|e| format!("cannot create journal {}: {e}", jpath.display()))?;
    journal
        .checkpoint(dataset.name(), &world)
        .map_err(|e| format!("cannot checkpoint {}: {e}", dataset.name()))?;
    Ok(JournalState {
        journal,
        recovered: RecoveryInfo { epoch, batches: 0 },
    })
}
