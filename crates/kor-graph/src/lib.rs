//! Directed two-weight keyword graph substrate for keyword-aware optimal
//! route search (KOR, Cao et al., VLDB 2012).
//!
//! The paper defines a graph `G = (V, E)` (Definition 1) where every node is
//! a location carrying a set of keywords `v.ψ`, and every directed edge
//! carries two positive attributes: an **objective value** `o(v_i, v_j)`
//! (e.g. unpopularity) and a **budget value** `b(v_i, v_j)` (e.g. travel
//! distance). This crate provides that substrate:
//!
//! * [`Vocab`] — interned keyword vocabulary,
//! * [`GraphBuilder`] / [`Graph`] — validated CSR adjacency in both
//!   directions, with per-node keyword sets and optional geo positions,
//! * [`QueryKeywords`] — a query-local keyword→bit mapping so that search
//!   labels can track covered keywords as a `u32` bitmask,
//! * [`fixtures`] — the reverse-engineered Figure-1 example graph used as a
//!   golden test fixture across the workspace.
//!
//! # Example
//!
//! ```
//! use kor_graph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new();
//! let cafe = b.add_node(["cafe"]);
//! let pub_ = b.add_node(["pub"]);
//! b.add_edge(cafe, pub_, 1.5, 0.3).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.node_count(), 2);
//! assert_eq!(g.out_edges(cafe).count(), 1);
//! assert_eq!(g.vocab().get("pub"), Some(g.keywords(NodeId(1)).as_slice()[0]));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod builder;
mod error;
mod graph;
mod ids;
mod keyword;
mod mutate;
mod query;
mod route;
mod stats;

pub mod fixtures;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{CsrView, EdgeRef, Graph};
pub use ids::{EdgeId, KeywordId, NodeId};
pub use keyword::{KeywordSet, Vocab};
pub use mutate::{EdgeMutation, MutationCodecError, MutationError, MutationKind};
pub use query::{QueryKeywords, QueryKeywordsError, MAX_QUERY_KEYWORDS};
pub use route::{Route, RouteError};
pub use stats::GraphStats;
