//! The `.korj` append-only mutation journal — crash durability for
//! dynamic worlds.
//!
//! `update_edges` makes a live dataset drift away from its on-disk
//! snapshot; without a journal, a crash silently rewinds the world to
//! epoch 0. The journal closes that hole with classic write-ahead
//! logging: every mutation batch is appended and fsync'd *before* the
//! in-memory graph swap, so any batch a client saw acknowledged is on
//! disk, and recovery replays the journal over the snapshot to land on
//! the exact pre-crash epoch — bit-identical, because mutation replay
//! is deterministic ([`Graph::apply_mutations`]) and the batch encoding
//! preserves `f64` bit patterns ([`EdgeMutation::encode_into`]).
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! magic       8 bytes  b"KORJNL\r\n"
//! version     u32      currently 1
//! base_epoch  u64      epoch of the snapshot this journal extends
//! base_digest u32      structure digest of that snapshot's graph
//! header_crc  u32      CRC-32 of the 24 header bytes above
//! record ×N:
//!   payload_len u32
//!   payload        epoch u64 · count u32 · count × encoded EdgeMutation
//!   crc         u32  CRC-32 of (previous crc as 4 LE bytes ‖ payload)
//! ```
//!
//! Record checksums are *chained* — each CRC folds in the previous
//! record's CRC (the header CRC for the first record) — so records
//! cannot be reordered, spliced between journals, or replayed from an
//! earlier offset without detection. Epochs must also advance by
//! exactly one per record from `base_epoch`, and `base_digest` (a
//! CRC-32 of the base graph's canonical CSR bytes, see
//! [`graph_digest`]) pins the journal to the exact world it extends —
//! replaying it over any other snapshot is a typed error, never a
//! silently wrong world.
//!
//! # Torn tails vs. corruption
//!
//! A crash can leave the final record half-written; that is the normal
//! case recovery exists for, not an error. The reader distinguishes:
//!
//! * **Torn tail** — the byte stream ends inside a record (or inside
//!   the header), or the *final* record is complete but fails its CRC:
//!   reading stops cleanly after the last fully-valid record, and the
//!   torn bytes are reported (and truncated away on [`Journal::open`]).
//!   Truncation at *any* byte offset of a valid journal recovers this
//!   way — the property test below proves every offset.
//! * **Mid-stream corruption** — a record fails its CRC (or decodes
//!   inconsistently, or breaks the epoch chain) while *later* bytes
//!   exist: that is not a crash artifact but real damage, and reading
//!   fails with a typed [`JournalError::Corrupt`] naming the offset.
//!
//! # Checkpoint compaction
//!
//! [`Journal::checkpoint`] bounds replay cost: it writes the current
//! world as `<name>.<epoch>.korbin` beside the journal, then atomically
//! replaces the journal with an empty one whose `base_epoch` is that
//! epoch. Recovery resolves the chain from the journal header: a
//! non-zero `base_epoch` means "load my checkpoint, renumber to
//! `base_epoch`, then replay my records". Both steps are
//! write-temp-then-rename; a crash between them leaves the *old*
//! journal (base epoch and checkpoint intact), so the pre-crash state
//! is still recoverable — stale checkpoints are deleted only after the
//! new journal is durable.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use kor_graph::{EdgeMutation, Graph, MutationError};

use crate::faultpoint::{self, FaultAction};
use crate::snapshot::{crc32, graph_section, snapshot_to_bytes, Snapshot};

/// File magic: `KORJNL` plus a CRLF that breaks if the journal ever
/// passes through newline translation.
pub const JOURNAL_MAGIC: [u8; 8] = *b"KORJNL\r\n";

/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// magic (8) + version (4) + base_epoch (8) + base_digest (4) +
/// header crc (4).
const HEADER_LEN: usize = 28;

/// Structure digest of a graph: CRC-32 of its canonical CSR byte form
/// (the same bytes the snapshot `GRPH` section stores, epoch excluded).
/// Two graphs share a digest exactly when a snapshot round-trip would
/// make them indistinguishable, which is what binds a journal to the
/// world it extends.
pub fn graph_digest(graph: &Graph) -> u32 {
    crc32(&graph_section(graph))
}

/// Why a journal could not be read, appended to, or replayed.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying file I/O failure (including injected ones).
    Io(io::Error),
    /// The file does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// The journal's version is not [`JOURNAL_VERSION`].
    UnsupportedVersion(u32),
    /// Damage that cannot be a torn tail: a checksum, decode, or epoch
    /// failure with valid data after it, or an inconsistency between
    /// journal and snapshot.
    Corrupt {
        /// Byte offset of the bad record (0 for header problems).
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A journaled batch no longer applies to the graph being
    /// recovered — the snapshot and journal do not belong together.
    Replay {
        /// Epoch of the batch that failed to apply.
        epoch: u64,
        /// The graph's rejection.
        error: MutationError,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a .korj journal (bad magic)"),
            JournalError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported journal version {v} (expected {JOURNAL_VERSION})"
                )
            }
            JournalError::Corrupt { offset, detail } => {
                write!(f, "corrupt journal at byte {offset}: {detail}")
            }
            JournalError::Replay { epoch, error } => {
                write!(f, "journal batch for epoch {epoch} does not apply: {error}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Everything a journal read yields: the valid batches plus how the
/// byte stream ended.
#[derive(Debug, Clone)]
pub struct RecoveredJournal {
    /// Epoch of the snapshot this journal extends (0 unless the journal
    /// was compacted). 0 as well when even the header was torn.
    pub base_epoch: u64,
    /// [`graph_digest`] of the snapshot this journal extends (0 when
    /// the header was torn).
    pub base_digest: u32,
    /// Fully-valid mutation batches in append order, each with the
    /// epoch it produced (`base_epoch + 1, base_epoch + 2, …`).
    pub batches: Vec<(u64, Vec<EdgeMutation>)>,
    /// Length in bytes of the valid prefix (header plus whole records);
    /// 0 when the header itself was torn.
    pub valid_len: u64,
    /// Trailing bytes discarded as a torn tail (0 for a clean file).
    pub torn_bytes: u64,
    /// Chained CRC state after the last valid record, for appending.
    chain_crc: u32,
}

impl RecoveredJournal {
    /// The epoch recovery lands on: the last valid batch's epoch, or
    /// the base epoch for an empty (or fully-torn) journal.
    pub fn recovered_epoch(&self) -> u64 {
        self.batches.last().map_or(self.base_epoch, |(e, _)| *e)
    }
}

fn header_bytes(base_epoch: u64, base_digest: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&JOURNAL_MAGIC);
    h[8..12].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&base_epoch.to_le_bytes());
    h[20..24].copy_from_slice(&base_digest.to_le_bytes());
    let crc = crc32(&h[..24]);
    h[24..28].copy_from_slice(&crc.to_le_bytes());
    h
}

fn encode_record(chain_crc: u32, epoch: u64, batch: &[EdgeMutation]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + batch.len() * 25);
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for m in batch {
        m.encode_into(&mut payload);
    }
    let mut chained = Vec::with_capacity(4 + payload.len());
    chained.extend_from_slice(&chain_crc.to_le_bytes());
    chained.extend_from_slice(&payload);
    let crc = crc32(&chained);
    let mut record = Vec::with_capacity(8 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&payload);
    record.extend_from_slice(&crc.to_le_bytes());
    record
}

fn decode_payload(payload: &[u8], offset: u64) -> Result<(u64, Vec<EdgeMutation>), JournalError> {
    let corrupt = |detail: String| JournalError::Corrupt { offset, detail };
    if payload.len() < 12 {
        return Err(corrupt(format!(
            "record payload of {} bytes cannot hold its epoch and count",
            payload.len()
        )));
    }
    let epoch = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
    let mut at = 12;
    let mut batch = Vec::with_capacity(count.min(payload.len() / 9));
    for i in 0..count {
        batch.push(
            EdgeMutation::decode_from(payload, &mut at)
                .map_err(|e| corrupt(format!("mutation {i} of {count}: {e}")))?,
        );
    }
    if at != payload.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after {count} mutations",
            payload.len() - at
        )));
    }
    Ok((epoch, batch))
}

/// Reads a journal byte stream, tolerating a torn tail and rejecting
/// mid-stream corruption (see the module docs for the exact rule).
pub fn read_journal_bytes(bytes: &[u8]) -> Result<RecoveredJournal, JournalError> {
    // Header. A short prefix of a valid header is a torn create — an
    // empty journal for recovery purposes. Short *garbage* is not a
    // journal at all.
    let torn_header = |len: usize| RecoveredJournal {
        base_epoch: 0,
        base_digest: 0,
        batches: Vec::new(),
        valid_len: 0,
        torn_bytes: len as u64,
        chain_crc: 0,
    };
    if bytes.len() < HEADER_LEN {
        if !JOURNAL_MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
            return Err(JournalError::BadMagic);
        }
        return Ok(torn_header(bytes.len()));
    }
    if bytes[..8] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion(version));
    }
    let base_epoch = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let base_digest = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let header_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    if crc32(&bytes[..24]) != header_crc {
        if bytes.len() == HEADER_LEN {
            // Garbled header with nothing after it: torn create.
            return Ok(torn_header(bytes.len()));
        }
        return Err(JournalError::Corrupt {
            offset: 0,
            detail: "header checksum mismatch with records after it".into(),
        });
    }

    let mut batches = Vec::new();
    let mut chain_crc = header_crc;
    let mut epoch = base_epoch;
    let mut at = HEADER_LEN;
    loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            break; // clean end
        }
        let torn = |upto: usize| RecoveredJournal {
            base_epoch,
            base_digest,
            batches: Vec::new(), // placeholder; filled by caller below
            valid_len: upto as u64,
            torn_bytes: (bytes.len() - upto) as u64,
            chain_crc,
        };
        if remaining < 4 {
            let mut r = torn(at);
            r.batches = batches;
            return Ok(r);
        }
        let payload_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let Some(record_end) = at
            .checked_add(4)
            .and_then(|x| x.checked_add(payload_len))
            .and_then(|x| x.checked_add(4))
            .filter(|&end| end <= bytes.len())
        else {
            // The declared payload runs past EOF: a torn length field
            // or a record cut mid-payload — either way, a torn tail.
            let mut r = torn(at);
            r.batches = batches;
            return Ok(r);
        };
        let payload = &bytes[at + 4..at + 4 + payload_len];
        let stored_crc = u32::from_le_bytes(bytes[record_end - 4..record_end].try_into().unwrap());
        let mut chained = Vec::with_capacity(4 + payload.len());
        chained.extend_from_slice(&chain_crc.to_le_bytes());
        chained.extend_from_slice(payload);
        if crc32(&chained) != stored_crc {
            if record_end == bytes.len() {
                // Garbled final record: torn tail, stop cleanly.
                let mut r = torn(at);
                r.batches = batches;
                return Ok(r);
            }
            return Err(JournalError::Corrupt {
                offset: at as u64,
                detail: "record checksum mismatch with records after it".into(),
            });
        }
        let (record_epoch, batch) = decode_payload(payload, at as u64)?;
        if record_epoch != epoch + 1 {
            return Err(JournalError::Corrupt {
                offset: at as u64,
                detail: format!(
                    "epoch chain broken: record claims epoch {record_epoch} after {epoch}"
                ),
            });
        }
        epoch = record_epoch;
        chain_crc = stored_crc;
        batches.push((record_epoch, batch));
        at = record_end;
    }
    Ok(RecoveredJournal {
        base_epoch,
        base_digest,
        batches,
        valid_len: bytes.len() as u64,
        torn_bytes: 0,
        chain_crc,
    })
}

/// Reads and validates the journal file at `path`.
pub fn read_journal(path: &Path) -> Result<RecoveredJournal, JournalError> {
    read_journal_bytes(&fs::read(path)?)
}

/// Replays recovered batches over `graph`, returning the recovered
/// graph and the number of batches applied.
///
/// A freshly loaded graph is always epoch 0; when the journal's base
/// epoch says it extends a compacted checkpoint, the graph is
/// renumbered to that base first, so the recovered epochs match the
/// pre-crash numbering exactly. A non-zero graph epoch that disagrees
/// with the base epoch means snapshot and journal do not belong
/// together — typed error, never a silently wrong world.
pub fn replay(graph: &Graph, recovered: &RecoveredJournal) -> Result<(Graph, u64), JournalError> {
    let mut g = graph.clone();
    if recovered.valid_len > 0 {
        let digest = graph_digest(&g);
        if digest != recovered.base_digest {
            return Err(JournalError::Corrupt {
                offset: 20,
                detail: format!(
                    "journal extends a world with structure digest {:08x}, \
                     but this graph digests to {digest:08x} — wrong snapshot \
                     (a compacted journal replays over its checkpoint, not \
                     the original dataset)",
                    recovered.base_digest
                ),
            });
        }
        if g.epoch() == 0 && recovered.base_epoch > 0 {
            g.set_epoch(recovered.base_epoch);
        }
        if g.epoch() != recovered.base_epoch {
            return Err(JournalError::Corrupt {
                offset: 12,
                detail: format!(
                    "journal base epoch {} does not match graph epoch {}",
                    recovered.base_epoch,
                    g.epoch()
                ),
            });
        }
    }
    let mut applied = 0u64;
    for (epoch, batch) in &recovered.batches {
        g = g
            .apply_mutations(batch)
            .map_err(|error| JournalError::Replay {
                epoch: *epoch,
                error,
            })?;
        applied += 1;
    }
    Ok((g, applied))
}

/// The journal file for dataset `name` inside `dir`.
pub fn journal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.korj"))
}

/// The checkpoint snapshot a compacted journal with this base epoch
/// points at. The epoch is part of the file name so a crash between
/// "write new checkpoint" and "reset journal" leaves the old pair
/// intact and unambiguous.
pub fn checkpoint_path(dir: &Path, name: &str, epoch: u64) -> PathBuf {
    dir.join(format!("{name}.{epoch}.korbin"))
}

/// The base world the journal for `name` in `dir` extends, given the
/// `base_epoch` from its header: the checkpoint
/// [`checkpoint_path`]`(dir, name, base_epoch)` if it is on disk, else
/// the `dataset` file itself while `base_epoch` is 0 (no checkpoint was
/// ever taken). `kor serve --journal` and `kor recover` both resolve
/// through here.
///
/// # Errors
///
/// [`MissingCheckpoint`] when the journal was compacted but its
/// checkpoint is gone: the dataset file is then an older world than the
/// one the journal extends.
pub fn resolve_base(
    dir: &Path,
    name: &str,
    base_epoch: u64,
    dataset: &Path,
) -> Result<PathBuf, MissingCheckpoint> {
    let checkpoint = checkpoint_path(dir, name, base_epoch);
    if checkpoint.exists() {
        Ok(checkpoint)
    } else if base_epoch == 0 {
        Ok(dataset.to_path_buf())
    } else {
        Err(MissingCheckpoint {
            journal: journal_path(dir, name),
            base_epoch,
            checkpoint,
            dataset: dataset.to_path_buf(),
        })
    }
}

/// A compacted journal whose checkpoint is not on disk; see
/// [`resolve_base`]. The message tells the operator both ways out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingCheckpoint {
    /// The journal file.
    pub journal: PathBuf,
    /// The journal's base epoch.
    pub base_epoch: u64,
    /// The checkpoint that epoch names.
    pub checkpoint: PathBuf,
    /// The dataset file a fresh start would load.
    pub dataset: PathBuf,
}

impl fmt::Display for MissingCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal {} starts at epoch {} but its checkpoint {} is missing — \
             restore the checkpoint or delete the journal to start fresh from {}",
            self.journal.display(),
            self.base_epoch,
            self.checkpoint.display(),
            self.dataset.display(),
        )
    }
}

impl std::error::Error for MissingCheckpoint {}

fn write_file_durably(path: &Path, bytes: &[u8]) -> io::Result<()> {
    // temp-then-rename so a crash never leaves a half file under the
    // final name; fsync file and directory so the rename is durable.
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// An open, appendable mutation journal. Created by [`Journal::open`]
/// (which also performs torn-tail truncation) and written by
/// [`Journal::append`], which is where the write-ahead contract lives:
/// it returns only after the record is on disk.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    chain_crc: u32,
    base_epoch: u64,
    base_digest: u32,
    epoch: u64,
    records: u64,
}

impl Journal {
    /// Creates (or atomically replaces) the journal at `path` as empty
    /// with the given base epoch and base-graph digest.
    pub fn create(path: &Path, base_epoch: u64, base_digest: u32) -> Result<Journal, JournalError> {
        let header = header_bytes(base_epoch, base_digest);
        write_file_durably(path, &header)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            chain_crc: crc32(&header[..HEADER_LEN - 4]),
            base_epoch,
            base_digest,
            epoch: base_epoch,
            records: 0,
        })
    }

    /// Opens the journal at `path`, creating an empty one (base epoch
    /// 0, the given digest) if the file does not exist. An existing
    /// file is fully validated; a torn tail is truncated away so the
    /// next append starts at the last valid record. Returns the journal
    /// positioned for appending plus everything recovered from it.
    pub fn open(
        path: &Path,
        base_digest: u32,
    ) -> Result<(Journal, RecoveredJournal), JournalError> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let journal = Journal::create(path, 0, base_digest)?;
                let recovered = RecoveredJournal {
                    base_epoch: 0,
                    base_digest,
                    batches: Vec::new(),
                    valid_len: HEADER_LEN as u64,
                    torn_bytes: 0,
                    chain_crc: journal.chain_crc,
                };
                return Ok((journal, recovered));
            }
            Err(e) => return Err(e.into()),
        };
        let recovered = read_journal_bytes(&bytes)?;
        if recovered.valid_len == 0 {
            // Torn header: the journal never durably existed. Recreate.
            let journal = Journal::create(path, 0, base_digest)?;
            return Ok((journal, recovered));
        }
        if recovered.torn_bytes > 0 {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(recovered.valid_len)?;
            f.sync_all()?;
        }
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        let journal = Journal {
            file,
            path: path.to_path_buf(),
            chain_crc: recovered.chain_crc,
            base_epoch: recovered.base_epoch,
            base_digest: recovered.base_digest,
            epoch: recovered.recovered_epoch(),
            records: recovered.batches.len() as u64,
        };
        Ok((journal, recovered))
    }

    /// Epoch of the last durable batch (the base epoch when empty).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Base epoch from the header: the snapshot epoch this journal
    /// extends.
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Digest of the base world from the header ([`graph_digest`] of the
    /// snapshot this journal extends).
    pub fn base_digest(&self) -> u32 {
        self.base_digest
    }

    /// Number of batches currently in the journal.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one batch and returns only after it is fsync'd — the
    /// write-ahead half of the durability contract. `epoch` must be
    /// exactly one past the journal's current epoch (the epoch the
    /// batch produces).
    ///
    /// Fault points (see [`crate::faultpoint`]): `journal-append` fires
    /// before the write (`io-error` rejects the append and leaves the
    /// file untouched; `torn` writes half the record, flushes, and
    /// aborts; `crash` writes the whole record and aborts without
    /// syncing), and `journal-synced` fires after the fsync (`crash`
    /// aborts with the record durable but unacknowledged).
    pub fn append(&mut self, epoch: u64, batch: &[EdgeMutation]) -> Result<(), JournalError> {
        if epoch != self.epoch + 1 {
            return Err(JournalError::Corrupt {
                offset: self.file.metadata().map(|m| m.len()).unwrap_or(0),
                detail: format!(
                    "append for epoch {epoch} out of order (journal is at {})",
                    self.epoch
                ),
            });
        }
        let record = encode_record(self.chain_crc, epoch, batch);
        match faultpoint::hit("journal-append") {
            Some(FaultAction::IoError) => {
                return Err(JournalError::Io(faultpoint::injected_error(
                    "journal-append",
                )));
            }
            Some(FaultAction::Torn) => {
                // Half a record, durably on disk, then sudden death —
                // the exact artifact torn-tail recovery exists for.
                let half = &record[..record.len() / 2];
                let _ = self.file.write_all(half);
                let _ = self.file.sync_data();
                faultpoint::die("journal-append");
            }
            Some(FaultAction::Crash) => {
                let _ = self.file.write_all(&record);
                faultpoint::die("journal-append");
            }
            Some(FaultAction::Panic) => panic!("fault point \"journal-append\" firing"),
            None => {}
        }
        self.file.write_all(&record)?;
        self.file.sync_data()?;
        if let Some(FaultAction::Crash | FaultAction::Torn) = faultpoint::hit("journal-synced") {
            faultpoint::die("journal-synced");
        }
        self.chain_crc = crc32(
            &[
                &self.chain_crc.to_le_bytes()[..],
                &record[4..record.len() - 4],
            ]
            .concat(),
        );
        self.epoch = epoch;
        self.records += 1;
        Ok(())
    }

    /// Flushes journal bytes to disk. Appends already sync per record,
    /// so this matters only for belt-and-suspenders shutdown paths.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Compacts the journal: writes `world` (which must be the
    /// recovered state at this journal's epoch) as a checkpoint
    /// snapshot beside the journal, then atomically replaces the
    /// journal with an empty one based at that epoch. Returns the
    /// checkpoint path. Stale checkpoints from earlier compactions are
    /// removed only after the new journal is durable, so a crash at any
    /// point leaves a recoverable pair on disk.
    pub fn checkpoint(&mut self, name: &str, world: &Snapshot) -> Result<PathBuf, JournalError> {
        if world.graph.epoch() != self.epoch {
            return Err(JournalError::Corrupt {
                offset: 0,
                detail: format!(
                    "checkpoint world is at epoch {} but the journal is at {}",
                    world.graph.epoch(),
                    self.epoch
                ),
            });
        }
        let dir = self.path.parent().unwrap_or(Path::new(".")).to_path_buf();
        let snap_path = checkpoint_path(&dir, name, self.epoch);
        write_file_durably(&snap_path, &snapshot_to_bytes(world))?;
        *self = Journal::create(&self.path, self.epoch, graph_digest(&world.graph))?;
        // Now that the new (journal, checkpoint) pair is durable, the
        // older checkpoints are unreachable — garbage-collect them.
        let prefix = format!("{name}.");
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let file_name = entry.file_name();
                let Some(file_name) = file_name.to_str() else {
                    continue;
                };
                if let Some(middle) = file_name
                    .strip_prefix(&prefix)
                    .and_then(|rest| rest.strip_suffix(".korbin"))
                {
                    if middle.parse::<u64>().is_ok_and(|e| e != self.epoch) {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(snap_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_world, GenConfig};
    use kor_graph::NodeId;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kor-journal-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Three deterministic batches that apply to any gen world in
    /// sequence (close an edge, scale another, reopen the closed one).
    fn script(graph: &Graph) -> Vec<Vec<EdgeMutation>> {
        let mut edges = graph
            .nodes()
            .flat_map(|v| {
                graph
                    .out_edges(v)
                    .map(move |e| (v, e.node, e.objective, e.budget))
            })
            .take(2);
        let (a_from, a_to, a_obj, a_bud) = edges.next().unwrap();
        let (b_from, b_to, _, _) = edges.next().unwrap();
        vec![
            vec![EdgeMutation::close(a_from, a_to)],
            vec![EdgeMutation::scale(b_from, b_to, 1.5, 0.75)],
            vec![EdgeMutation::reopen(a_from, a_to, a_obj, a_bud)],
        ]
    }

    fn journal_with_script(dir: &Path, graph: &Graph) -> (PathBuf, Vec<Vec<EdgeMutation>>) {
        let path = journal_path(dir, "w");
        let mut journal = Journal::create(&path, 0, graph_digest(graph)).unwrap();
        let batches = script(graph);
        for (i, batch) in batches.iter().enumerate() {
            journal.append(i as u64 + 1, batch).unwrap();
        }
        (path, batches)
    }

    #[test]
    fn append_read_replay_round_trips_bit_for_bit() {
        let dir = temp_dir("roundtrip");
        let world = generate_world(&GenConfig::grid(5, 4, 3));
        let (path, batches) = journal_with_script(&dir, &world.graph);

        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.base_epoch, 0);
        assert_eq!(recovered.torn_bytes, 0);
        assert_eq!(recovered.recovered_epoch(), 3);
        assert_eq!(
            recovered.batches,
            batches
                .iter()
                .enumerate()
                .map(|(i, b)| (i as u64 + 1, b.clone()))
                .collect::<Vec<_>>()
        );

        let (recovered_graph, applied) = replay(&world.graph, &recovered).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(recovered_graph.epoch(), 3);
        let mut expected = world.graph.clone();
        for batch in &batches {
            expected = expected.apply_mutations(batch).unwrap();
        }
        let (a, b) = (recovered_graph.csr(), expected.csr());
        assert_eq!(a.out_offsets, b.out_offsets);
        assert_eq!(a.out_targets, b.out_targets);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.out_objective), bits(b.out_objective));
        assert_eq!(bits(a.out_budget), bits(b.out_budget));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_at_every_byte_offset_recovers_cleanly() {
        let dir = temp_dir("torn");
        let world = generate_world(&GenConfig::grid(5, 4, 7));
        let (path, _) = journal_with_script(&dir, &world.graph);
        let bytes = fs::read(&path).unwrap();

        // Record boundaries: recovery must land exactly on the last
        // boundary at or before the cut — never a partial batch.
        let full = read_journal_bytes(&bytes).unwrap();
        let mut boundaries = vec![HEADER_LEN as u64];
        let mut at = HEADER_LEN;
        for _ in &full.batches {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += 4 + len + 4;
            boundaries.push(at as u64);
        }
        assert_eq!(at, bytes.len());

        for cut in 0..bytes.len() {
            let r = read_journal_bytes(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: must recover, got {e}"));
            let expected_batches = if cut < HEADER_LEN {
                0
            } else {
                boundaries
                    .iter()
                    .filter(|&&b| b <= cut as u64 && b > HEADER_LEN as u64)
                    .count()
            };
            assert_eq!(r.batches.len(), expected_batches, "cut at {cut}");
            assert_eq!(
                r.torn_bytes,
                cut as u64
                    - if cut < HEADER_LEN {
                        0
                    } else {
                        boundaries[expected_batches]
                    },
                "cut at {cut}"
            );
            // Replay of the recovered prefix applies without error.
            let (g, applied) = replay(&world.graph, &r).unwrap();
            assert_eq!(applied, expected_batches as u64);
            assert_eq!(g.epoch(), expected_batches as u64);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbled_final_record_is_a_torn_tail() {
        let dir = temp_dir("garbled");
        let world = generate_world(&GenConfig::grid(5, 4, 7));
        let (path, _) = journal_with_script(&dir, &world.graph);
        let bytes = fs::read(&path).unwrap();
        let mut garbled = bytes.clone();
        let last = garbled.len() - 1;
        garbled[last] ^= 0xFF; // flip inside the final record's CRC
        let r = read_journal_bytes(&garbled).unwrap();
        assert_eq!(r.batches.len(), 2, "final record dropped, prior ones kept");
        assert_eq!(r.recovered_epoch(), 2);
        assert!(r.torn_bytes > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_stream_corruption_is_typed() {
        let dir = temp_dir("midstream");
        let world = generate_world(&GenConfig::grid(5, 4, 7));
        let (path, _) = journal_with_script(&dir, &world.graph);
        let bytes = fs::read(&path).unwrap();
        // Flip one byte inside the first record's payload (offset
        // HEADER_LEN + 4 is the first payload byte).
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 4] ^= 0xFF;
        match read_journal_bytes(&corrupt) {
            Err(JournalError::Corrupt { offset, .. }) => {
                assert_eq!(offset, HEADER_LEN as u64);
            }
            other => panic!("expected mid-stream corruption, got {other:?}"),
        }
        // Same flip in the *header*, with records after it.
        let mut bad_header = bytes;
        bad_header[12] ^= 0xFF;
        assert!(matches!(
            read_journal_bytes(&bad_header),
            Err(JournalError::Corrupt { offset: 0, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chained_crcs_reject_record_reordering() {
        let dir = temp_dir("chain");
        let world = generate_world(&GenConfig::grid(5, 4, 7));
        let (path, _) = journal_with_script(&dir, &world.graph);
        let bytes = fs::read(&path).unwrap();
        // Cut the three records apart and swap the first two. Each
        // record is individually intact, so only the chain (and the
        // epoch sequence) can catch this.
        let mut cuts = vec![HEADER_LEN];
        let mut at = HEADER_LEN;
        for _ in 0..3 {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += 8 + len;
            cuts.push(at);
        }
        let mut swapped = bytes[..HEADER_LEN].to_vec();
        swapped.extend_from_slice(&bytes[cuts[1]..cuts[2]]);
        swapped.extend_from_slice(&bytes[cuts[0]..cuts[1]]);
        swapped.extend_from_slice(&bytes[cuts[2]..cuts[3]]);
        assert!(matches!(
            read_journal_bytes(&swapped),
            Err(JournalError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_truncates_torn_tails_and_appends_continue_the_chain() {
        let dir = temp_dir("reopen");
        let world = generate_world(&GenConfig::grid(5, 4, 9));
        let (path, batches) = journal_with_script(&dir, &world.graph);
        // Tear the tail by hand.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let (mut journal, recovered) = Journal::open(&path, graph_digest(&world.graph)).unwrap();
        assert_eq!(recovered.batches.len(), 2);
        assert_eq!(journal.epoch(), 2);
        assert_eq!(journal.records(), 2);
        // The torn tail is gone from disk.
        assert_eq!(fs::read(&path).unwrap().len() as u64, recovered.valid_len);
        // Re-append the lost batch; the whole file must validate again.
        journal.append(3, &batches[2]).unwrap();
        let r = read_journal(&path).unwrap();
        assert_eq!(r.batches.len(), 3);
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(r.recovered_epoch(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_appends_are_rejected() {
        let dir = temp_dir("order");
        let path = journal_path(&dir, "w");
        let mut journal = Journal::create(&path, 0, 0).unwrap();
        let batch = vec![EdgeMutation::close(NodeId(0), NodeId(1))];
        assert!(matches!(
            journal.append(2, &batch),
            Err(JournalError::Corrupt { .. })
        ));
        journal.append(1, &batch).unwrap();
        assert!(matches!(
            journal.append(1, &batch),
            Err(JournalError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_opens_empty_and_bad_magic_is_typed() {
        let dir = temp_dir("fresh");
        let path = journal_path(&dir, "fresh");
        let (journal, recovered) = Journal::open(&path, 0).unwrap();
        assert_eq!(journal.epoch(), 0);
        assert!(recovered.batches.is_empty());
        assert!(path.exists());

        let garbage = dir.join("garbage.korj");
        fs::write(&garbage, b"this is not a journal at all").unwrap();
        assert!(matches!(
            Journal::open(&garbage, 0),
            Err(JournalError::BadMagic)
        ));

        let mut versioned = header_bytes(0, 0).to_vec();
        versioned[8..12].copy_from_slice(&9u32.to_le_bytes());
        let vcrc = crc32(&versioned[..HEADER_LEN - 4]);
        versioned[HEADER_LEN - 4..].copy_from_slice(&vcrc.to_le_bytes());
        let vpath = dir.join("versioned.korj");
        fs::write(&vpath, &versioned).unwrap();
        assert!(matches!(
            Journal::open(&vpath, 0),
            Err(JournalError::UnsupportedVersion(9))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_and_recovery_resumes_from_it() {
        let dir = temp_dir("checkpoint");
        let mut world = generate_world(&GenConfig::grid(5, 4, 13));
        let base = world.graph.clone();
        let path = journal_path(&dir, "w");
        let mut journal = Journal::create(&path, 0, graph_digest(&base)).unwrap();
        let batches = script(&world.graph);
        for (i, batch) in batches.iter().enumerate() {
            journal.append(i as u64 + 1, batch).unwrap();
            world.graph = world.graph.apply_mutations(batch).unwrap();
        }
        assert_eq!(world.graph.epoch(), 3);

        let snap_path = journal.checkpoint("w", &world).unwrap();
        assert_eq!(snap_path, checkpoint_path(&dir, "w", 3));
        assert!(snap_path.exists());
        assert_eq!(journal.base_epoch(), 3);
        assert_eq!(journal.epoch(), 3);
        assert_eq!(journal.records(), 0);

        // Append on top of the compacted journal, then recover: load
        // the checkpoint, renumber, replay the tail.
        let more = vec![EdgeMutation::scale(
            batches[1][0].from,
            batches[1][0].to,
            2.0,
            2.0,
        )];
        journal.append(4, &more).unwrap();
        world.graph = world.graph.apply_mutations(&more).unwrap();

        let checkpoint = crate::snapshot::read_snapshot(&snap_path).unwrap();
        assert_eq!(checkpoint.graph.epoch(), 0, "snapshots never store epochs");
        let recovered = read_journal(&path).unwrap();
        assert_eq!(recovered.base_epoch, 3);
        let (g, applied) = replay(&checkpoint.graph, &recovered).unwrap();
        assert_eq!((applied, g.epoch()), (1, 4));
        let (a, b) = (g.csr(), world.graph.csr());
        assert_eq!(a.out_targets, b.out_targets);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.out_objective), bits(b.out_objective));

        // Replaying the compacted journal over the *original* snapshot
        // (epoch 0 structure, base epoch 3) must fail loudly, not
        // produce a silently wrong world.
        assert!(matches!(
            replay(&base, &recovered),
            Err(JournalError::Corrupt { .. }) | Err(JournalError::Replay { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_append_failure_leaves_the_file_untouched() {
        let dir = temp_dir("inject");
        let path = journal_path(&dir, "w");
        let mut journal = Journal::create(&path, 0, 0).unwrap();
        let batch = vec![EdgeMutation::close(NodeId(0), NodeId(1))];
        journal.append(1, &batch).unwrap();
        let before = fs::read(&path).unwrap();

        crate::faultpoint::arm("journal-append:io-error").unwrap();
        match journal.append(2, &batch) {
            Err(JournalError::Io(e)) => assert!(e.to_string().contains("journal-append")),
            other => panic!("expected injected I/O error, got {other:?}"),
        }
        assert_eq!(fs::read(&path).unwrap(), before, "no bytes written");
        assert_eq!(journal.epoch(), 1, "journal state unchanged");

        // The fault fired once; the retry goes through and the file
        // still validates end to end.
        journal.append(2, &batch).unwrap();
        let r = read_journal(&path).unwrap();
        assert_eq!(r.recovered_epoch(), 2);
        assert_eq!(r.torn_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display_is_informative() {
        assert!(JournalError::BadMagic.to_string().contains("magic"));
        assert!(JournalError::UnsupportedVersion(7)
            .to_string()
            .contains('7'));
        let c = JournalError::Corrupt {
            offset: 42,
            detail: "checksum".into(),
        };
        assert!(c.to_string().contains("42"));
        let r = JournalError::Replay {
            epoch: 9,
            error: MutationError::UnknownNode(NodeId(3)),
        };
        assert!(r.to_string().contains('9'));
    }
}
