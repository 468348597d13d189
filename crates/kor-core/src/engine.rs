//! Convenience facade bundling the index and the pre-processing cache.

use std::sync::Arc;

use kor_graph::{EdgeMutation, Graph, MutationError};
use kor_index::InvertedIndex;

use crate::brute::{brute_force, BruteForceParams};
use crate::cache::{CacheStats, MutationReport, PreprocessCache};
use crate::error::KorError;
use crate::greedy::{GreedyParams, GreedyRoute};
use crate::params::{BucketBoundParams, OsScalingParams};
use crate::query::KorQuery;
use crate::result::SearchResult;
use crate::search::{self, Algo, SearchOutcome, SearchRequest};

/// One-stop query engine: owns the inverted index and the shared
/// [`PreprocessCache`] of to-target `τ`/`σ` trees, Opt-2 bounds, keyword
/// reach trees and greedy's forward `τ` trees, mirroring the paper's
/// setup where the index and pre-processing are built once per dataset.
///
/// Every search goes through [`KorEngine::search`] and runs on the warm
/// path automatically: repeat queries against a cached target skip all
/// backward Dijkstras, and the per-search [`crate::SearchStats`] report
/// the cache hits/misses and trees built. Results are byte-identical to
/// [`crate::search_uncached`].
///
/// # Sharing across threads
///
/// The engine is generic over how it holds the graph. Scoped callers
/// (tests, the batch front end) pass `&Graph` and get
/// `KorEngine<&Graph>`; long-lived services pass `Arc<Graph>` so the
/// engine owns its dataset outright and can be stored in a registry with
/// no borrow tying it to a stack frame.
///
/// Either way the engine is `Send + Sync` (asserted at compile time
/// below): the graph and index are immutable after construction, and the
/// only interior mutability — the memoized trees in the
/// [`PreprocessCache`] — sits behind a `Mutex`. One engine per dataset is
/// meant to be shared by reference (or `Arc`) across any number of
/// worker threads; queries never require `&mut self`.
pub struct KorEngine<G> {
    graph: G,
    index: InvertedIndex,
    prep: PreprocessCache,
}

// The whole point of the engine is warm reuse across worker threads;
// regressions to `Send`/`Sync` (e.g. an `Rc` or un-guarded cell slipping
// into the graph, index, or tree cache) must fail the build, not bubble
// up as inference errors at distant call sites.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KorEngine<std::sync::Arc<Graph>>>();
    assert_send_sync::<KorEngine<&Graph>>();
};

impl<G: AsRef<Graph>> KorEngine<G> {
    /// Builds the engine (indexes the graph's keywords) with the default
    /// pre-processing cache capacity.
    pub fn new(graph: G) -> Self {
        Self::with_cache_capacity(graph, PreprocessCache::DEFAULT_CAPACITY)
    }

    /// [`Self::new`] with an explicit pre-processing cache capacity (the
    /// number of entries kept per tree family; each entry holds one or
    /// two `O(|V|)` trees). Must be ≥ 1.
    pub fn with_cache_capacity(graph: G, cache_capacity: usize) -> Self {
        let index = InvertedIndex::build(graph.as_ref());
        Self {
            graph,
            index,
            prep: PreprocessCache::with_capacity(cache_capacity),
        }
    }
}

impl KorEngine<Arc<Graph>> {
    /// Applies a mutation batch to this warm engine, producing a new
    /// engine over the mutated graph whose cache stays warm: every
    /// cached tree is repaired in place of being evicted
    /// ([`PreprocessCache::carry_over`]), re-settling only the nodes the
    /// batch can affect. The carried state is bit-for-bit what a cold
    /// engine built from the mutated graph would compute (the oracle
    /// batteries in `tests/mutate_oracle.rs` and `tests/mutate_props.rs`
    /// enforce this), so queries on the returned engine are
    /// byte-identical to cold answers while skipping the Dijkstras. The
    /// repair runs on the calling thread.
    ///
    /// `self` is untouched and keeps answering for the old graph —
    /// services swap the returned engine in and let in-flight queries
    /// drain on the old one.
    ///
    /// # Errors
    ///
    /// [`MutationError`] if the batch is invalid; nothing is changed.
    pub fn apply_edge_mutations(
        &self,
        mutations: &[EdgeMutation],
    ) -> Result<(KorEngine<Arc<Graph>>, MutationReport), MutationError> {
        let new_graph = Arc::new(self.graph().apply_mutations(mutations)?);
        // Keywords are untouched by edge mutations; rebuilding the
        // index on the new graph is deterministic and identical.
        let index = InvertedIndex::build(&new_graph);
        let (prep, report) = self.prep.carry_over(&new_graph, &index, mutations);
        Ok((
            KorEngine {
                graph: new_graph,
                index,
                prep,
            },
            report,
        ))
    }
}

impl<G: AsRef<Graph>> KorEngine<G> {
    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph.as_ref()
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Number of greedy forward trees currently cached (instrumentation
    /// for long-lived services; at most the cache capacity).
    pub fn cached_tree_count(&self) -> usize {
        self.prep.forward_entries()
    }

    /// The shared pre-processing cache this engine's queries run
    /// against.
    pub fn preprocess_cache(&self) -> &PreprocessCache {
        &self.prep
    }

    /// Snapshot of the pre-processing cache counters (hits, misses,
    /// evictions, trees built).
    pub fn preprocess_stats(&self) -> CacheStats {
        self.prep.stats()
    }

    /// Runs one search on the warm path.
    ///
    /// # Errors
    ///
    /// [`KorError::InvalidK`] for `k = 0`, [`KorError::TopKUnsupported`]
    /// for `k > 1` with `exact` or `greedy`, a parameter range error, or
    /// [`KorError::DeadlineExceeded`] once `request.deadline` passes.
    pub fn search(
        &self,
        query: &KorQuery,
        request: &SearchRequest,
    ) -> Result<SearchOutcome, KorError> {
        search::run(self.graph(), &self.index, query, request, Some(&self.prep))
    }

    /// `OSScaling` (Algorithm 1): [`Self::search`] with `k = 1`.
    pub fn os_scaling(
        &self,
        query: &KorQuery,
        params: &OsScalingParams,
    ) -> Result<SearchResult, KorError> {
        self.single(query, Algo::OsScaling(params.clone()))
    }

    /// `BucketBound` (Algorithm 2): [`Self::search`] with `k = 1`.
    pub fn bucket_bound(
        &self,
        query: &KorQuery,
        params: &BucketBoundParams,
    ) -> Result<SearchResult, KorError> {
        self.single(query, Algo::BucketBound(params.clone()))
    }

    /// The greedy heuristic (Algorithm 3) through [`Self::search`].
    pub fn greedy(
        &self,
        query: &KorQuery,
        params: &GreedyParams,
    ) -> Result<Option<GreedyRoute>, KorError> {
        let request = SearchRequest::new(Algo::Greedy(params.clone()));
        self.search(query, &request).map(SearchOutcome::into_greedy)
    }

    /// Exact optimum via unscaled label dominance (ground truth).
    pub fn exact(&self, query: &KorQuery) -> Result<SearchResult, KorError> {
        self.single(query, Algo::Exact)
    }

    /// KkR top-k via `BucketBound` (§3.5): [`Self::search`] with `k`.
    pub fn top_k_bucket_bound(
        &self,
        query: &KorQuery,
        params: &BucketBoundParams,
        k: usize,
    ) -> Result<SearchOutcome, KorError> {
        let algo = Algo::BucketBound(params.clone());
        self.search(
            query,
            &SearchRequest {
                k,
                ..SearchRequest::new(algo)
            },
        )
    }

    fn single(&self, query: &KorQuery, algo: Algo) -> Result<SearchResult, KorError> {
        self.search(query, &SearchRequest::new(algo))
            .map(SearchResult::from)
    }

    /// The exhaustive §3.2 baseline (tiny graphs only).
    pub fn brute_force(
        &self,
        query: &KorQuery,
        params: &BruteForceParams,
    ) -> Result<SearchResult, KorError> {
        brute_force(self.graph(), query, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::GreedyMode;
    use kor_graph::fixtures::{figure1, t, v};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn all_algorithms_run_through_the_facade() {
        let g = figure1();
        let engine = KorEngine::new(&g);
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();

        let os = engine.os_scaling(&q, &OsScalingParams::default()).unwrap();
        let bb = engine
            .bucket_bound(&q, &BucketBoundParams::default())
            .unwrap();
        let ex = engine.exact(&q).unwrap();
        let bf = engine
            .brute_force(&q, &BruteForceParams::default())
            .unwrap();
        let gr = engine.greedy(&q, &GreedyParams::default()).unwrap();
        let tk = engine
            .search(
                &q,
                &SearchRequest {
                    k: 2,
                    ..SearchRequest::new(Algo::OsScaling(OsScalingParams::default()))
                },
            )
            .unwrap();
        let tb = engine
            .top_k_bucket_bound(&q, &BucketBoundParams::default(), 2)
            .unwrap();

        assert_eq!(ex.route.as_ref().unwrap().objective, 6.0);
        assert_eq!(bf.route.as_ref().unwrap().objective, 6.0);
        assert_eq!(os.route.as_ref().unwrap().objective, 6.0);
        assert!(bb.route.as_ref().unwrap().objective <= 6.0 * 2.4);
        assert!(gr.is_some());
        assert!(!tk.routes.is_empty());
        assert!(!tb.routes.is_empty());
        assert_eq!(engine.index().node_count(), 8);
        assert_eq!(engine.graph().node_count(), 8);
    }

    #[test]
    fn greedy_modes_through_facade() {
        let g = figure1();
        let engine = KorEngine::new(&g);
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 5.0).unwrap();
        let kw_first = engine.greedy(&q, &GreedyParams::default()).unwrap();
        let budget_first = engine
            .greedy(
                &q,
                &GreedyParams {
                    mode: GreedyMode::BudgetFirst,
                    ..GreedyParams::default()
                },
            )
            .unwrap();
        if let Some(r) = kw_first {
            assert!(r.covers_keywords);
        }
        if let Some(r) = budget_first {
            assert!(r.within_budget);
        }
    }

    #[test]
    fn arc_engine_owns_its_graph_and_shares_across_threads() {
        // The `Arc<Graph>` instantiation outlives the stack frame that
        // built the graph — the shape a serve-style registry stores.
        let engine = {
            let g = Arc::new(figure1());
            KorEngine::new(g)
        };
        let q = KorQuery::new(engine.graph(), v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let engine = Arc::new(engine);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let r = engine.os_scaling(&q, &OsScalingParams::default()).unwrap();
                r.route.unwrap().objective
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 6.0);
        }
        // The greedy tree cache is shared engine-wide.
        let gp = GreedyParams::default();
        engine.greedy(&q, &gp).unwrap();
        assert!(engine.cached_tree_count() > 0);
    }

    #[test]
    fn mutations_carry_warm_state_and_match_cold() {
        use kor_graph::{EdgeMutation, MutationError};

        let engine = KorEngine::new(Arc::new(figure1()));
        let q = KorQuery::new(engine.graph(), v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        engine.os_scaling(&q, &OsScalingParams::default()).unwrap();
        engine.greedy(&q, &GreedyParams::default()).unwrap();
        // A second warm target the mutation below cannot touch: only
        // {v0..v3} reach v1, and the changed edge's head is v7.
        engine.preprocess_cache().context(engine.graph(), v(1));

        let batch = [EdgeMutation::scale(v(4), v(7), 1.0, 2.0)];
        let (warm, report) = engine.apply_edge_mutations(&batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(warm.graph().epoch(), 1);
        // Both contexts are carried: ctx(v7) is repaired (its σ tree ran
        // through 4->7), ctx(v1) is left as it was. Nothing is evicted.
        assert_eq!(report.contexts_retained, 2);
        assert_eq!(report.total_evicted(), 0);
        assert!(report.pair_trees_retained >= 1);
        assert!(report.trees_repaired >= 1, "{report:?}");
        assert_eq!(report.trees_rebuilt, 0);
        // `retained`/`invalidated` cover the label-search families
        // only; greedy's forward trees are reported as `pair_trees_*`.
        let stats = warm.preprocess_stats();
        assert_eq!(
            stats.retained,
            (report.contexts_retained + report.opt2_retained + report.reach_retained) as u64
        );
        assert_eq!(stats.invalidated, 0);

        // Warm answers are bit-identical to a cold engine on the
        // mutated graph; the carried contexts answer without a rebuild.
        let cold = KorEngine::new(Arc::new(warm.graph().clone()));
        let q2 = KorQuery::new(warm.graph(), v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let w = warm.os_scaling(&q2, &OsScalingParams::default()).unwrap();
        let c = cold.os_scaling(&q2, &OsScalingParams::default()).unwrap();
        let (wr, cr) = (w.route.unwrap(), c.route.unwrap());
        assert_eq!(wr.route, cr.route);
        assert_eq!(wr.objective.to_bits(), cr.objective.to_bits());
        assert_eq!(wr.budget.to_bits(), cr.budget.to_bits());
        let before = warm.preprocess_stats().trees_built;
        for target in [v(1), v(7)] {
            let (_, hit) = warm.preprocess_cache().context(warm.graph(), target);
            assert!(hit, "carried target {target} must stay warm");
        }
        assert_eq!(warm.preprocess_stats().trees_built, before);

        // The old engine is untouched and still answers on epoch 0.
        assert_eq!(engine.graph().epoch(), 0);
        assert_eq!(engine.graph().edge_count(), warm.graph().edge_count());

        // Typed rejection surfaces unchanged through the facade.
        let err = match engine.apply_edge_mutations(&[EdgeMutation::close(v(1), v(0))]) {
            Err(e) => e,
            Ok(_) => panic!("closing a nonexistent edge must be rejected"),
        };
        assert_eq!(
            err,
            MutationError::UnknownEdge {
                from: v(1),
                to: v(0)
            }
        );
    }

    #[test]
    fn expired_deadline_aborts_searches() {
        let g = figure1();
        let engine = KorEngine::new(&g);
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let past = Some(Instant::now());
        for algo in crate::search::every_algo() {
            let ks: &[usize] = match algo {
                Algo::Exact | Algo::Greedy(_) => &[1],
                _ => &[1, 2],
            };
            for &k in ks {
                let request = SearchRequest {
                    k,
                    deadline: past,
                    ..SearchRequest::new(algo.clone())
                };
                let got = engine.search(&q, &request);
                if let Algo::Greedy(_) = algo {
                    // Greedy does no label search and ignores deadlines.
                    assert!(got.unwrap().is_feasible());
                } else {
                    assert!(
                        matches!(got, Err(KorError::DeadlineExceeded)),
                        "{} k={k}",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let g = figure1();
        let engine = KorEngine::new(&g);
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let request = SearchRequest {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
            ..SearchRequest::new(Algo::OsScaling(OsScalingParams::default()))
        };
        let r = engine.search(&q, &request).unwrap();
        assert_eq!(r.routes[0].objective, 6.0);
    }
}
