//! The `.korbin` versioned binary snapshot format.
//!
//! One file carries a whole *world* — the CSR graph, the keyword
//! postings, and optional canned query sets — so a single artifact feeds
//! every front end (`kor gen` → `kor serve` / `kor batch` / `kor mutate`)
//! without re-parsing text or re-deriving workloads. Loading is O(V + E)
//! straight into [`Graph::from_csr_parts`], which re-validates every
//! builder invariant, so a corrupt file can never produce a graph the
//! rest of the system could not have built.
//!
//! # Layout (all integers and floats little-endian)
//!
//! ```text
//! magic    8 bytes  b"KORBIN\r\n"   (the \r\n catches text-mode mangling)
//! version  u32      currently 1
//! sections u32      section count
//! section  ×N       tag [u8;4] · payload_len u64 · payload · crc32 u32
//! ```
//!
//! Sections, in fixed order (unknown tags are rejected):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `GRPH` | `node_count u32 · edge_count u32 · has_positions u8 · out_offsets (n+1)×u32 · out_targets m×u32 · out_objective m×f64 · out_budget m×f64 · positions n×(f64,f64) if flagged` |
//! | `VOCB` | `term_count u32 · (len u32 · UTF-8 bytes) × terms` (id order) |
//! | `POST` | `node_count u32 · (count u32 · keyword_id u32 × count) × nodes` |
//! | `QRYS` | `set_count u32 · (keyword_count u32 · n u32 · (source u32 · target u32 · budget f64 · k u32 · keyword_id u32 × k) × n) × sets` |
//!
//! Two legacy tags, `SHRD` and `BNDR`, held a shard layout in files
//! written by the retired `kor shard`. They are still read — checksummed
//! and rejected if duplicated like every section — and then skipped, so
//! such a file loads as its unsharded world. Nothing writes them.
//!
//! Each section checksum is IEEE CRC-32 of its payload. Writing the same
//! in-memory [`Snapshot`] always produces the same bytes (fixed section
//! and iteration order, IEEE-754 bit patterns), which is what makes
//! `kor gen --seed N` byte-reproducible.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use kor_graph::{Graph, GraphError, KeywordId, KeywordSet, NodeId, Vocab};

use crate::queries::{CannedQuery, CannedQuerySet};

/// File magic: `KORBIN` plus a CRLF that breaks if the file ever passes
/// through newline translation.
pub const MAGIC: [u8; 8] = *b"KORBIN\r\n";

/// Current format version.
pub const VERSION: u32 = 1;

const TAG_GRAPH: [u8; 4] = *b"GRPH";
const TAG_VOCAB: [u8; 4] = *b"VOCB";
const TAG_POSTINGS: [u8; 4] = *b"POST";
const TAG_QUERIES: [u8; 4] = *b"QRYS";
/// Legacy shard-layout sections: read (checksummed, skipped), never written.
const TAG_LEGACY_SHARDS: [u8; 4] = *b"SHRD";
const TAG_LEGACY_BOUNDARY: [u8; 4] = *b"BNDR";

/// A world: the graph plus the canned query sets generated with it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The road-network graph.
    pub graph: Graph,
    /// Canned query sets (possibly empty) replayed by the batch front
    /// end and the oracle cross-validation tests.
    pub query_sets: Vec<CannedQuerySet>,
}

impl Snapshot {
    /// Wraps a graph with no canned queries.
    pub fn graph_only(graph: Graph) -> Snapshot {
        Snapshot {
            graph,
            query_sets: Vec::new(),
        }
    }

    /// Total canned queries across all sets.
    pub fn query_count(&self) -> usize {
        self.query_sets.iter().map(|s| s.queries.len()).sum()
    }
}

/// Why a snapshot could not be read (or written). Every malformed input
/// maps to a typed error — no panic paths.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is not [`VERSION`].
    UnsupportedVersion(u32),
    /// The file ends before the named piece of data.
    Truncated(String),
    /// A section's CRC-32 does not match its payload.
    ChecksumMismatch {
        /// The four-character section tag.
        section: String,
    },
    /// Structurally invalid content (bad tag, count, or value).
    Corrupt(String),
    /// The decoded CSR arrays fail graph validation.
    Graph(GraphError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a .korbin snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated reading {what}"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Graph(e) => write!(f, "snapshot graph invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<GraphError> for SnapshotError {
    fn from(e: GraphError) -> Self {
        SnapshotError::Graph(e)
    }
}

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (shared with the mutation journal, whose
/// chained record checksums use the same polynomial).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------- writing

struct SectionWriter {
    out: Vec<u8>,
}

impl SectionWriter {
    fn new() -> Self {
        Self { out: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

pub(crate) fn graph_section(graph: &Graph) -> Vec<u8> {
    let csr = graph.csr();
    let mut w = SectionWriter::new();
    w.u32(graph.node_count() as u32);
    w.u32(graph.edge_count() as u32);
    w.u8(u8::from(graph.has_positions()));
    for &off in csr.out_offsets {
        w.u32(off);
    }
    for t in csr.out_targets {
        w.u32(t.0);
    }
    for &o in csr.out_objective {
        w.f64(o);
    }
    for &b in csr.out_budget {
        w.f64(b);
    }
    if let Some(positions) = graph.positions() {
        for &(x, y) in positions {
            w.f64(x);
            w.f64(y);
        }
    }
    w.out
}

fn vocab_section(vocab: &Vocab) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(vocab.len() as u32);
    for (_, term) in vocab.iter() {
        w.u32(term.len() as u32);
        w.out.extend_from_slice(term.as_bytes());
    }
    w.out
}

fn postings_section(graph: &Graph) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(graph.node_count() as u32);
    for v in graph.nodes() {
        let set = graph.keywords(v);
        w.u32(set.len() as u32);
        for t in set.iter() {
            w.u32(t.0);
        }
    }
    w.out
}

fn queries_section(sets: &[CannedQuerySet]) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.u32(sets.len() as u32);
    for set in sets {
        w.u32(set.keyword_count as u32);
        w.u32(set.queries.len() as u32);
        for q in &set.queries {
            w.u32(q.source.0);
            w.u32(q.target.0);
            w.f64(q.budget);
            w.u32(q.keywords.len() as u32);
            for t in &q.keywords {
                w.u32(t.0);
            }
        }
    }
    w.out
}

/// Serializes a snapshot to its canonical byte form.
pub fn snapshot_to_bytes(snapshot: &Snapshot) -> Vec<u8> {
    let sections = [
        (TAG_GRAPH, graph_section(&snapshot.graph)),
        (TAG_VOCAB, vocab_section(snapshot.graph.vocab())),
        (TAG_POSTINGS, postings_section(&snapshot.graph)),
        (TAG_QUERIES, queries_section(&snapshot.query_sets)),
    ];
    let mut out = Vec::with_capacity(
        MAGIC.len() + 8 + sections.iter().map(|(_, p)| p.len() + 16).sum::<usize>(),
    );
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in &sections {
        out.extend_from_slice(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    out
}

/// Writes a snapshot to `path` in the `.korbin` format.
pub fn write_snapshot(path: &Path, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    fs::write(path, snapshot_to_bytes(snapshot))?;
    Ok(())
}

// ---------------------------------------------------------------- reading

/// Bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated(what.to_string()));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A count that is about to size an allocation of `elem_bytes`-sized
    /// items: rejected up front unless the remaining payload could
    /// actually hold that many, so a corrupt length can never trigger an
    /// absurd allocation.
    fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, SnapshotError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(SnapshotError::Truncated(what.to_string()));
        }
        Ok(n)
    }
}

fn parse_graph_section(
    payload: &[u8],
    vocab: Vocab,
    keywords: Vec<KeywordSet>,
) -> Result<Graph, SnapshotError> {
    let mut c = Cursor::new(payload);
    let n = c.u32("node count")? as usize;
    let m = c.u32("edge count")? as usize;
    let has_positions = match c.u8("position flag")? {
        0 => false,
        1 => true,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "position flag must be 0 or 1, got {other}"
            )))
        }
    };
    if keywords.len() != n {
        return Err(SnapshotError::Corrupt(format!(
            "postings cover {} nodes but the graph has {n}",
            keywords.len()
        )));
    }
    // Fixed-size region check up front: (n+1) offsets + m targets as
    // u32, 2m weights as f64, optionally 2n position floats.
    let need = (n + 1) * 4 + m * 4 + m * 16 + if has_positions { n * 16 } else { 0 };
    if c.remaining() < need {
        return Err(SnapshotError::Truncated("graph arrays".into()));
    }
    let mut out_offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        out_offsets.push(c.u32("offset")?);
    }
    let mut out_targets = Vec::with_capacity(m);
    for _ in 0..m {
        out_targets.push(NodeId(c.u32("edge target")?));
    }
    let mut out_objective = Vec::with_capacity(m);
    for _ in 0..m {
        out_objective.push(c.f64("edge objective")?);
    }
    let mut out_budget = Vec::with_capacity(m);
    for _ in 0..m {
        out_budget.push(c.f64("edge budget")?);
    }
    let positions = if has_positions {
        let mut p = Vec::with_capacity(n);
        for _ in 0..n {
            let x = c.f64("position x")?;
            let y = c.f64("position y")?;
            p.push((x, y));
        }
        Some(p)
    } else {
        None
    };
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in graph section",
            c.remaining()
        )));
    }
    Ok(Graph::from_csr_parts(
        out_offsets,
        out_targets,
        out_objective,
        out_budget,
        keywords,
        positions,
        vocab,
    )?)
}

fn parse_vocab_section(payload: &[u8]) -> Result<Vocab, SnapshotError> {
    let mut c = Cursor::new(payload);
    let count = c.count(4, "vocabulary size")?;
    let mut vocab = Vocab::new();
    for _ in 0..count {
        let len = c.u32("term length")? as usize;
        let bytes = c.take(len, "term bytes")?;
        let term = std::str::from_utf8(bytes)
            .map_err(|_| SnapshotError::Corrupt("vocabulary term is not UTF-8".into()))?;
        vocab.intern(term);
    }
    if vocab.len() != count {
        return Err(SnapshotError::Corrupt(
            "duplicate vocabulary term (ids would shift)".into(),
        ));
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in vocabulary section",
            c.remaining()
        )));
    }
    Ok(vocab)
}

fn parse_postings_section(payload: &[u8]) -> Result<Vec<KeywordSet>, SnapshotError> {
    let mut c = Cursor::new(payload);
    let n = c.count(4, "postings node count")?;
    let mut keywords = Vec::with_capacity(n);
    for _ in 0..n {
        let k = c.count(4, "node keyword count")?;
        let mut ids = Vec::with_capacity(k);
        for _ in 0..k {
            ids.push(KeywordId(c.u32("keyword id")?));
        }
        keywords.push(KeywordSet::new(ids));
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in postings section",
            c.remaining()
        )));
    }
    Ok(keywords)
}

fn parse_queries_section(payload: &[u8]) -> Result<Vec<CannedQuerySet>, SnapshotError> {
    let mut c = Cursor::new(payload);
    let sets = c.count(8, "query set count")?;
    let mut out = Vec::with_capacity(sets);
    for _ in 0..sets {
        let keyword_count = c.u32("set keyword count")? as usize;
        let n = c.count(20, "query count")?;
        let mut queries = Vec::with_capacity(n);
        for _ in 0..n {
            let source = NodeId(c.u32("query source")?);
            let target = NodeId(c.u32("query target")?);
            let budget = c.f64("query budget")?;
            if !budget.is_finite() || budget < 0.0 {
                return Err(SnapshotError::Corrupt(format!(
                    "query budget {budget} must be finite and ≥ 0"
                )));
            }
            let k = c.count(4, "query keyword count")?;
            let mut keywords = Vec::with_capacity(k);
            for _ in 0..k {
                keywords.push(KeywordId(c.u32("query keyword")?));
            }
            queries.push(CannedQuery {
                source,
                target,
                keywords,
                budget,
            });
        }
        out.push(CannedQuerySet {
            keyword_count,
            queries,
        });
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes in query section",
            c.remaining()
        )));
    }
    Ok(out)
}

/// Parses a snapshot from its byte form.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    let mut c = Cursor::new(bytes);
    if c.take(8, "magic").map_err(|_| SnapshotError::BadMagic)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let section_count = c.u32("section count")?;

    let mut graph_payload: Option<&[u8]> = None;
    let mut vocab_payload: Option<&[u8]> = None;
    let mut postings_payload: Option<&[u8]> = None;
    let mut queries_payload: Option<&[u8]> = None;
    // Held only so a duplicate is rejected; their payloads are skipped.
    let mut legacy_shards: Option<&[u8]> = None;
    let mut legacy_boundary: Option<&[u8]> = None;
    for _ in 0..section_count {
        let tag: [u8; 4] = c.take(4, "section tag")?.try_into().unwrap();
        let len = c.u64("section length")? as usize;
        let payload = c.take(len, "section payload")?;
        let stored = c.u32("section checksum")?;
        if crc32(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch {
                section: String::from_utf8_lossy(&tag).into_owned(),
            });
        }
        let slot = match tag {
            TAG_GRAPH => &mut graph_payload,
            TAG_VOCAB => &mut vocab_payload,
            TAG_POSTINGS => &mut postings_payload,
            TAG_QUERIES => &mut queries_payload,
            TAG_LEGACY_SHARDS => &mut legacy_shards,
            TAG_LEGACY_BOUNDARY => &mut legacy_boundary,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown section tag {:?}",
                    String::from_utf8_lossy(&other)
                )))
            }
        };
        if slot.replace(payload).is_some() {
            return Err(SnapshotError::Corrupt(format!(
                "duplicate section {:?}",
                String::from_utf8_lossy(&tag)
            )));
        }
    }
    if c.remaining() != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last section",
            c.remaining()
        )));
    }

    let missing = |name: &str| SnapshotError::Corrupt(format!("missing section {name:?}"));
    let vocab = parse_vocab_section(vocab_payload.ok_or_else(|| missing("VOCB"))?)?;
    let keywords = parse_postings_section(postings_payload.ok_or_else(|| missing("POST"))?)?;
    let graph = parse_graph_section(
        graph_payload.ok_or_else(|| missing("GRPH"))?,
        vocab,
        keywords,
    )?;
    let query_sets = match queries_payload {
        Some(p) => parse_queries_section(p)?,
        None => Vec::new(),
    };
    // Canned queries must reference the graph they ship with.
    for set in &query_sets {
        for q in &set.queries {
            if !graph.contains(q.source) || !graph.contains(q.target) {
                return Err(SnapshotError::Corrupt(format!(
                    "canned query endpoint out of range ({} -> {})",
                    q.source, q.target
                )));
            }
            for t in &q.keywords {
                if t.index() >= graph.vocab().len() {
                    return Err(SnapshotError::Corrupt(format!(
                        "canned query keyword id {} outside the vocabulary",
                        t.0
                    )));
                }
            }
        }
    }
    Ok(Snapshot { graph, query_sets })
}

/// Reads a `.korbin` snapshot from `path`.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    snapshot_from_bytes(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_world, GenConfig};
    use kor_graph::fixtures::figure1;

    fn world() -> Snapshot {
        generate_world(&GenConfig::grid(5, 4, 11))
    }

    #[test]
    fn write_read_write_is_byte_identical() {
        let snap = world();
        let bytes = snapshot_to_bytes(&snap);
        let read = snapshot_from_bytes(&bytes).unwrap();
        let again = snapshot_to_bytes(&read);
        assert_eq!(bytes, again, "write→read→write must be byte-identical");
        assert_eq!(read.graph.node_count(), snap.graph.node_count());
        assert_eq!(read.graph.edge_count(), snap.graph.edge_count());
        assert_eq!(read.query_sets, snap.query_sets);
        // Structure survives, including vocab resolution and positions.
        for v in snap.graph.nodes() {
            assert_eq!(read.graph.keywords(v), snap.graph.keywords(v));
            assert_eq!(read.graph.position(v), snap.graph.position(v));
            let e1: Vec<_> = snap
                .graph
                .out_edges(v)
                .map(|e| (e.node, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            let e2: Vec<_> = read
                .graph
                .out_edges(v)
                .map(|e| (e.node, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            assert_eq!(e1, e2);
        }
        for (id, term) in snap.graph.vocab().iter() {
            assert_eq!(read.graph.vocab().resolve(id), Some(term));
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("kor-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.korbin");
        let snap = world();
        write_snapshot(&path, &snap).unwrap();
        let read = read_snapshot(&path).unwrap();
        assert_eq!(snapshot_to_bytes(&read), snapshot_to_bytes(&snap));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn positionless_graph_survives() {
        let snap = Snapshot::graph_only(figure1());
        let read = snapshot_from_bytes(&snapshot_to_bytes(&snap)).unwrap();
        assert!(!read.graph.has_positions());
        assert_eq!(read.graph.node_count(), 8);
        assert_eq!(read.query_count(), 0);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = snapshot_to_bytes(&world());
        bytes[0] = b'X';
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        // A short file is also a magic problem, not a panic.
        assert!(matches!(
            snapshot_from_bytes(b"KOR"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = snapshot_to_bytes(&world());
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let bytes = snapshot_to_bytes(&world());
        // Every prefix must fail cleanly with a typed error — never a
        // panic, never a silent partial success.
        for cut in 0..bytes.len() {
            let err = snapshot_from_bytes(&bytes[..cut]).expect_err("prefix must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated(_)
                        | SnapshotError::Corrupt(_)
                        | SnapshotError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn checksum_mismatch_is_typed_and_names_the_section() {
        let snap = world();
        let bytes = snapshot_to_bytes(&snap);
        // Flip one payload byte inside the first (graph) section; its
        // payload begins after magic(8) + version(4) + count(4) +
        // tag(4) + len(8).
        let mut corrupted = bytes.clone();
        corrupted[28] ^= 0xFF;
        match snapshot_from_bytes(&corrupted) {
            Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "GRPH"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unknown_section_and_garbage_counts_are_typed() {
        let snap = world();
        let mut bytes = snapshot_to_bytes(&snap);
        // Rewrite the first section tag to an unknown one (checksum
        // still matches the payload, so the tag check must fire).
        bytes[16..20].copy_from_slice(b"WHAT");
        assert!(matches!(
            snapshot_from_bytes(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// `bytes` with one more section appended after the last one.
    fn append_section(mut bytes: Vec<u8>, tag: &[u8; 4], payload: &[u8]) -> Vec<u8> {
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        bytes[12..16].copy_from_slice(&(count + 1).to_le_bytes());
        bytes.extend_from_slice(tag);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes
    }

    /// A file as the retired `kor shard` wrote it: the unsharded
    /// sections, then a `SHRD` and a `BNDR` section (payloads as it laid
    /// them out: shard count, node count, assignment; cut count, no cuts,
    /// escape and enter tables).
    fn legacy_sharded_bytes(world: &Snapshot) -> Vec<u8> {
        let n = world.graph.node_count();
        let mut shrd = Vec::new();
        shrd.extend_from_slice(&1u32.to_le_bytes());
        shrd.extend_from_slice(&(n as u32).to_le_bytes());
        shrd.resize(shrd.len() + 4 * n, 0);
        let mut bndr = 0u32.to_le_bytes().to_vec();
        for _ in 0..2 * n {
            bndr.extend_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        }
        let bytes = append_section(snapshot_to_bytes(world), b"SHRD", &shrd);
        append_section(bytes, b"BNDR", &bndr)
    }

    #[test]
    fn legacy_shard_sections_are_skipped() {
        let world = world();
        let read = snapshot_from_bytes(&legacy_sharded_bytes(&world)).unwrap();
        assert_eq!(snapshot_to_bytes(&read), snapshot_to_bytes(&world));
        // Still one of each: a duplicated legacy section is corrupt.
        let shrd_twice = append_section(legacy_sharded_bytes(&world), b"SHRD", &[]);
        match snapshot_from_bytes(&shrd_twice) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("duplicate"), "{msg}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn legacy_shard_sections_are_checksummed() {
        let mut bytes = legacy_sharded_bytes(&world());
        // The last payload byte belongs to BNDR; its CRC follows it.
        let at = bytes.len() - 5;
        bytes[at] ^= 0xFF;
        match snapshot_from_bytes(&bytes) {
            Err(SnapshotError::ChecksumMismatch { section }) => assert_eq!(section, "BNDR"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::UnsupportedVersion(9)
            .to_string()
            .contains('9'));
        assert!(SnapshotError::Truncated("edge target".into())
            .to_string()
            .contains("edge target"));
        assert!(SnapshotError::ChecksumMismatch {
            section: "GRPH".into()
        }
        .to_string()
        .contains("GRPH"));
    }
}
