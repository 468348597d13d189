//! Pre-processing structures for keyword-aware optimal route search.
//!
//! The paper's §3.1 pre-computes, for every node pair `(v_i, v_j)`, two
//! paths: `τ_{i,j}` with the smallest **objective** score and `σ_{i,j}`
//! with the smallest **budget** score (only their scores are consumed by
//! the algorithms). This crate provides that information in two forms:
//!
//! * [`DenseApsp`] — the faithful all-pairs matrices, computed with
//!   Floyd–Warshall as in the paper, including next-hop matrices for
//!   path reconstruction;
//! * lazy trees that deliver exactly the values the search algorithms
//!   read, without `O(|V|²)` space: [`QueryContext`] (to-target `τ`/`σ`
//!   trees), [`KeywordReach`] (per-query-keyword nearest-node trees for
//!   Optimization Strategy 1), and [`forward_tree`] (the from-source `τ`
//!   trees the greedy algorithm reads; `kor_core`'s pre-processing cache
//!   memoizes them).
//!
//! Both forms agree exactly; `DenseApsp` is the test oracle for the lazy
//! trees. [`Landmarks`] adds ALT lower bounds that no search reads
//! (benchmark replay only; deleted with ROADMAP item 2), and
//! [`partition`] cuts a graph into node groups for landmark selection
//! and the benchmark's shard probe.

#![deny(unsafe_code)]

mod dense;
mod keyword_reach;
mod landmark;
mod partition;
mod query;
mod tree;

pub use dense::DenseApsp;
pub use keyword_reach::KeywordReach;
pub use landmark::{Landmarks, TargetBounds, DEFAULT_LANDMARKS};
pub use partition::partition;
pub use query::{PathCost, QueryContext};
pub use tree::{backward_tree, forward_tree, Metric, Repair, SptNode, Tree, NO_NODE};
