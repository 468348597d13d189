//! Keyword-aware Optimal Route (KOR) search algorithms.
//!
//! Reproduction of *"Keyword-aware Optimal Route Search"* (Cao, Chen,
//! Cong, Xiao — PVLDB 5(11), 2012). Given a directed graph whose nodes
//! carry keywords and whose edges carry an objective value and a budget
//! value, a KOR query `⟨v_s, v_t, ψ, Δ⟩` asks for the route from `v_s` to
//! `v_t` minimizing the objective score subject to covering all keywords
//! in `ψ` and keeping the budget score within `Δ` — an NP-hard problem.
//!
//! Every search goes through one entry point, [`KorEngine::search`]: an
//! [`Algo`] plus `k` and an optional deadline in a [`SearchRequest`], a
//! [`SearchOutcome`] out. The algorithms ([`Algo`]'s variants):
//!
//! * [`Algo::OsScaling`] — Algorithm 1, the `1/(1−ε)`-approximation via
//!   objective-score scaling, with the paper's Optimization Strategies
//!   1 & 2;
//! * [`Algo::BucketBound`] — Algorithm 2, the faster
//!   `β/(1−ε)`-approximation that organizes labels into geometric
//!   buckets;
//! * [`Algo::Greedy`] — Algorithm 3, the α-weighted greedy heuristic
//!   (Greedy-1 / Greedy-2 beams, keyword-first or budget-first);
//! * [`Algo::Exact`] — exact optimum via label dominance on unscaled
//!   scores (the `ε → 0` limit; ground truth for accuracy studies).
//!
//! `k > 1` in the request runs the KkR top-k extension (§3.5) of the two
//! scaled searches via k-dominance. Two free functions remain:
//! [`search_uncached`], the same request with no warm state (the
//! reference for warm ≡ cold checks), and [`brute_force`], the paper's
//! §3.2 exhaustive baseline and the test oracle.
//!
//! # Example
//!
//! ```
//! use kor_core::{Algo, KorEngine, KorQuery, OsScalingParams, SearchRequest};
//! use kor_graph::fixtures::{figure1, t, v};
//!
//! let graph = figure1();
//! let engine = KorEngine::new(&graph);
//! // Example 2 of the paper: Q = ⟨v0, v7, {t1, t2}, 10⟩, ε = 0.5.
//! let query = KorQuery::new(&graph, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
//! let request = SearchRequest::new(Algo::OsScaling(OsScalingParams::default()));
//! let outcome = engine.search(&query, &request).unwrap();
//! let route = outcome.best().expect("feasible");
//! assert_eq!(route.objective, 6.0);
//! assert_eq!(route.budget, 10.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod brute;
mod bucket;
mod cache;
mod dominance;
mod engine;
mod error;
mod greedy;
mod label;
mod labeling;
mod params;
mod query;
mod result;
mod scale;
mod search;
mod stats;

pub use brute::{brute_force, BruteForceParams};
pub use cache::{CacheStats, CachedKeys, MutationReport, Opt2Trees, PreprocessCache};
pub use dominance::{DomMode, LabelStore};
pub use engine::KorEngine;
pub use error::KorError;
pub use greedy::{GreedyMode, GreedyParams, GreedyRoute};
pub use label::{Label, LabelArena, LabelSnapshot, NO_LABEL};
pub use params::{BucketBoundParams, OsScalingParams, ScaleAnchor};
pub use query::KorQuery;
pub use result::{RouteResult, SearchResult};
pub use scale::Scaler;
pub use search::{search_uncached, Algo, SearchOutcome, SearchRequest};
pub use stats::SearchStats;
