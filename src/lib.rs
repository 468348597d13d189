//! # kor — Keyword-aware Optimal Route Search
//!
//! A production-quality Rust reproduction of **"Keyword-aware Optimal
//! Route Search"** (Xin Cao, Lisi Chen, Gao Cong, Xiaokui Xiao —
//! PVLDB 5(11), VLDB 2012).
//!
//! Given a directed graph whose nodes carry keywords (points of interest
//! with tags) and whose edges carry an *objective* value (e.g.
//! unpopularity) and a *budget* value (e.g. travel distance), the **KOR
//! query** `⟨v_s, v_t, ψ, Δ⟩` finds the route from `v_s` to `v_t` that
//! minimizes the total objective score while covering every keyword in
//! `ψ` and keeping the total budget within `Δ`. The problem is NP-hard.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — the two-weight keyword graph substrate;
//! * [`index`] — the in-memory inverted file;
//! * [`apsp`] — pre-processing: `τ`/`σ` shortest-path structures;
//! * [`core`] — the algorithms: `OSScaling`, `BucketBound`, `Greedy`,
//!   exact/brute-force baselines, and KkR top-k;
//! * [`data`] — synthetic Flickr-like / road-network dataset generators.
//!
//! On top of those it adds three facade layers:
//!
//! * [`batch`] — a parallel front end that answers a whole query
//!   workload over one shared engine and reports per-query latencies
//!   plus an aggregate JSON summary (`kor batch` on the CLI);
//! * [`mod@bench`] — the tracked warm-vs-cold performance baseline
//!   (`kor bench` on the CLI, emitting `BENCH_kor.json`);
//! * [`serve`] — a TCP query service with warm per-dataset engines, a
//!   newline-delimited JSON protocol, and a readiness-driven event
//!   reactor (`kor serve` on the CLI; wire contract in
//!   `docs/PROTOCOL.md`);
//! * [`loadtest`] — a closed-loop client fleet that measures `serve`
//!   throughput and latency (`kor loadtest` on the CLI, emitting
//!   `BENCH_serve.json`);
//! * [`recover`] — offline crash recovery: replay a mutation journal
//!   over its base world, verify the recovered engine against a
//!   never-crashed twin, and compact the journal into a checkpoint
//!   (`kor recover` on the CLI; operations guide in
//!   `docs/OPERATIONS.md`);
//! * [`shard`] — the scatter-gather router over partitioned datasets:
//!   one warm engine per shard, confinement-proven local answers, and
//!   fused-engine fanout for cross-shard queries (`kor shard` on the
//!   CLI splits a snapshot; `serve`/`batch` route through it);
//! * [`json`] — the strict, dependency-free JSON layer the above
//!   share.
//!
//! ## Quickstart
//!
//! ```
//! use kor::prelude::*;
//!
//! // Build a tiny city graph: nodes carry tags, edges carry
//! // (objective = unpopularity, budget = kilometres).
//! let mut b = GraphBuilder::new();
//! let hotel = b.add_node(["hotel"]);
//! let cafe = b.add_node(["cafe"]);
//! let mall = b.add_node(["shopping mall"]);
//! let station = b.add_node(["station"]);
//! b.add_edge(hotel, cafe, 1.0, 0.5).unwrap();
//! b.add_edge(cafe, mall, 2.0, 1.0).unwrap();
//! b.add_edge(hotel, mall, 1.0, 2.5).unwrap();
//! b.add_edge(mall, station, 1.0, 1.0).unwrap();
//! let graph = b.build().unwrap();
//!
//! // "From the hotel to the station, passing a cafe and a shopping
//! // mall, within 3 km, on the most popular streets."
//! let engine = KorEngine::new(&graph);
//! let query = KorQuery::from_terms(&graph, hotel, station, ["cafe", "shopping mall"], 3.0)
//!     .unwrap();
//! let request = SearchRequest::new(Algo::OsScaling(OsScalingParams::default()));
//! let outcome = engine.search(&query, &request).unwrap();
//! let route = outcome.best().expect("feasible");
//! assert_eq!(route.route.nodes(), &[hotel, cafe, mall, station]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use kor_apsp as apsp;
pub use kor_core as core;
pub use kor_data as data;
pub use kor_graph as graph;
pub use kor_index as index;

pub mod batch;
pub mod bench;
pub mod json;
pub mod loadtest;
pub mod mutate;
pub mod percentile;
pub mod recover;
pub mod serve;
pub mod shard;

/// The most common imports in one place.
pub mod prelude {
    pub use kor_apsp::{DenseApsp, Landmarks, QueryContext, DEFAULT_LANDMARKS};
    pub use kor_core::{
        brute_force, search_uncached, Algo, BruteForceParams, BucketBoundParams, CacheStats,
        GreedyMode, GreedyParams, GreedyRoute, KorEngine, KorError, KorQuery, OsScalingParams,
        PreprocessCache, RouteResult, ScaleAnchor, SearchOutcome, SearchRequest, SearchResult,
        SearchStats,
    };
    pub use kor_data::{
        compute_sharding, generate_flickr, generate_roadnet, generate_traffic, generate_workload,
        generate_world, read_snapshot, write_snapshot, CannedQuery, CannedQuerySet, FlickrConfig,
        GenConfig, RoadNetConfig, ShardingInfo, Snapshot, SnapshotError, TagModel, Topology,
        TrafficConfig, WorkloadConfig,
    };
    pub use kor_graph::{
        EdgeMutation, Graph, GraphBuilder, GraphError, KeywordId, MutationError, MutationKind,
        NodeId, QueryKeywords, Route, Vocab,
    };
    pub use kor_index::InvertedIndex;
}
