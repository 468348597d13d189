//! Synthetic datasets and query workloads for the KOR experiments.
//!
//! The paper evaluates on (1) a graph distilled from 1.5 M geo-tagged
//! Flickr photos of New York (5,199 locations, 9,785 tags, edges from
//! consecutive same-user photos less than a day apart, popularity-derived
//! objectives, Euclidean budgets) and (2) four New York road subgraphs of
//! 5k–20k nodes with random tags and uniform objectives. Neither dataset
//! is distributable, so this crate rebuilds both *pipelines* on synthetic
//! inputs with matching distributions (see DESIGN.md §6):
//!
//! * [`flickr`] — photo-stream simulation → grid clustering → location
//!   graph with `o = ln(1/Pr)` popularity objectives;
//! * [`roadnet`] — random geometric KNN graphs with Euclidean budgets and
//!   uniform objectives;
//! * [`gen`] — seeded scenario worlds (grid/ring topologies with
//!   perturbed weights) plus canned query sets with controllable budget
//!   tightness, for oracle cross-validation and stress testing;
//! * [`tags`] — the Zipf keyword model shared by all generators;
//! * [`queries`] — the 50-query workloads (keyword-count and Δ sweeps);
//! * [`io`] — a plain-text graph interchange format;
//! * [`snapshot`] — the versioned `.korbin` binary snapshot format
//!   (checksummed CSR graph + postings + canned queries) that ships a
//!   whole generated world as one artifact (see `docs/DATASETS.md`);
//! * [`shard`] — the shard layout the benchmark's shard probe builds
//!   (benchmark shard probe only; deleted with ROADMAP item 1);
//! * [`traffic`] — seeded traffic profiles (closure scripts, rush-hour
//!   multiplier schedules, reopenings) producing replayable mutation
//!   batches for the dynamic-world oracle battery and `kor mutate`;
//! * [`journal`] — the `.korj` append-only CRC-chained mutation journal
//!   (write-ahead durability for `update_edges`, torn-tail-tolerant
//!   recovery, checkpoint compaction — see `docs/OPERATIONS.md`);
//! * [`faultpoint`] — deterministic, env-armable crash/short-write/
//!   I/O-error injection points for the crash-recovery batteries.
//!
//! Every generator is deterministic under an explicit `u64` seed.

#![deny(unsafe_code)]

pub mod faultpoint;
pub mod flickr;
pub mod gen;
pub mod io;
pub mod journal;
pub mod queries;
pub mod roadnet;
pub mod shard;
pub mod snapshot;
pub mod tags;
pub mod traffic;

pub use faultpoint::FaultAction;
pub use flickr::{generate_flickr, FlickrConfig, FlickrStats};
pub use gen::{generate_world, GenConfig, Topology};
pub use io::{
    graph_from_str, graph_to_string, load_graph, load_graph_auto, read_world_auto, save_graph,
    LoadError,
};
pub use journal::{
    checkpoint_path, graph_digest, journal_path, read_journal, read_journal_bytes, replay, Journal,
    JournalError, RecoveredJournal,
};
pub use queries::{
    generate_workload, CannedQuery, CannedQuerySet, QuerySet, QuerySpec, WorkloadConfig,
};
pub use roadnet::{generate_roadnet, RoadNetConfig};
pub use shard::{compute_sharding, shard_subgraph};
pub use snapshot::{
    read_snapshot, snapshot_from_bytes, snapshot_to_bytes, write_snapshot, Snapshot, SnapshotError,
};
pub use tags::TagModel;
pub use traffic::{generate_traffic, TrafficConfig};
