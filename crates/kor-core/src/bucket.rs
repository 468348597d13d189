//! `BucketBound` (Algorithm 2): the geometric bucket layout it adds to
//! the label search of [`crate::labeling`].
//!
//! Labels are organized into geometric buckets by their best possible
//! objective score `LOW(L) = L.OS + OS(τ_{node,t})` (Lemma 3): bucket
//! `B_r` covers `[β^r·OS(τ_{s,t}), β^{r+1}·OS(τ_{s,t}))` (Definition 9).
//! Labels are always dequeued from the first non-empty bucket; when a
//! covering label in that bucket has a τ-completion that fits the
//! budget, Lemma 5 guarantees the route found by `OSScaling` shares the
//! bucket, so the search stops with approximation ratio `β/(1−ε)`
//! (Theorem 3) — typically an order of magnitude faster than
//! Algorithm 1.
//!
//! The engine's heap holds the bucket being drained; later buckets are
//! kept in a map keyed by bucket index. The map is sparse, so a `β`
//! just above 1 or a huge `LOW` yields a huge index and costs nothing.
//! Keeping later buckets out of the heap keeps its pops as short as a
//! per-bucket queue's.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use kor_apsp::QueryContext;
use kor_graph::Graph;

use crate::labeling::QItem;
use crate::params::ScaleAnchor;
use crate::query::KorQuery;
use crate::stats::SearchStats;

/// The geometric buckets of one `BucketBound` search.
pub(crate) struct Buckets {
    base: f64,
    log_beta: f64,
    /// The bucket being drained; its labels are in the engine's heap.
    current: u64,
    /// The labels of later buckets, by bucket index.
    later: BTreeMap<u64, BinaryHeap<QItem>>,
    /// The highest bucket index a label was filed under so far.
    highest: Option<u64>,
}

impl Buckets {
    fn new(base: f64, beta: f64) -> Self {
        Self {
            base,
            log_beta: beta.ln(),
            current: 0,
            later: BTreeMap::new(),
            highest: None,
        }
    }

    /// The layout for `query`, with growth factor `beta`. The base is
    /// `OS(τ_{s,t})`; when source == target that is 0, so it falls back
    /// to the smallest edge objective (any covering cycle costs at least
    /// that), keeping the intervals well-defined. Like θ, the fallback
    /// honours a pinned anchor so shard-local bucket layouts match the
    /// fused engine's.
    pub(crate) fn for_query(
        graph: &Graph,
        query: &KorQuery,
        ctx: &QueryContext,
        anchor: Option<ScaleAnchor>,
        beta: f64,
    ) -> Self {
        let tau_st = ctx.os_tau(query.source);
        let base = if tau_st > 0.0 && tau_st.is_finite() {
            tau_st
        } else {
            anchor
                .map_or_else(|| graph.o_min(), |a| a.o_min)
                .max(f64::MIN_POSITIVE)
        };
        Self::new(base, beta)
    }

    /// The bucket index for a `LOW` value (saturating at `u64::MAX`).
    fn index_for(&self, low: f64) -> u64 {
        if low <= self.base {
            return 0;
        }
        let r = ((low / self.base).ln() / self.log_beta).floor();
        if r < 0.0 {
            0
        } else {
            r as u64
        }
    }

    /// Files a label with lower bound `low` (Algorithm 2 lines 12–15):
    /// into `heap` when it falls in the bucket being drained, under its
    /// later bucket otherwise, and counts a created bucket in `stats`
    /// when its index is the highest yet. Returns whether it went into
    /// `heap`.
    pub(crate) fn file(
        &mut self,
        low: f64,
        item: QItem,
        heap: &mut BinaryHeap<QItem>,
        stats: &mut SearchStats,
    ) -> bool {
        let bucket = self.index_for(low);
        if self.highest.is_none_or(|h| bucket > h) {
            self.highest = Some(bucket);
            stats.buckets_created += 1;
        }
        match bucket.cmp(&self.current) {
            Ordering::Equal => heap.push(item),
            Ordering::Greater => self.later.entry(bucket).or_default().push(item),
            // `LOW` never decreases along extensions, but rounding can
            // dip it below the bucket being drained. Such a label is
            // never popped, as if its drained bucket were not revisited.
            Ordering::Less => {}
        }
        bucket == self.current
    }

    /// Once `heap` (the bucket being drained) is empty, makes the first
    /// non-empty later bucket current and moves its labels into `heap`.
    pub(crate) fn advance(&mut self, heap: &mut BinaryHeap<QItem>) {
        if let Some((bucket, labels)) = self.later.pop_first() {
            self.current = bucket;
            *heap = labels;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::KorEngine;
    use crate::error::KorError;
    use crate::labeling::{Engine, LabelAlgo};
    use crate::params::{BucketBoundParams, OsScalingParams};
    use crate::search::{search_uncached, single, Algo, SearchRequest};
    use kor_graph::fixtures::{figure1, t, v};
    use kor_graph::GraphBuilder;
    use kor_index::InvertedIndex;

    fn setup() -> (Graph, InvertedIndex) {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    fn params(epsilon: f64, beta: f64) -> BucketBoundParams {
        BucketBoundParams {
            epsilon,
            beta,
            use_opt1: false,
            use_opt2: false,
            ..BucketBoundParams::default()
        }
    }

    #[test]
    fn example2_query_feasible_and_bounded() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = single(&g, &idx, &q, Algo::BucketBound(params(0.5, 1.2))).unwrap();
        let route = r.route.expect("feasible");
        // Theorem 3: within β/(1−ε) = 2.4 of the optimum (6).
        assert!(route.objective <= 6.0 * 2.4 + 1e-9);
        assert!(route.budget <= 10.0 + 1e-9);
        assert!(route.route.covers(&g, &[t(1), t(2)]));
        let (os, bs) = route.route.scores(&g).unwrap();
        assert!((os - route.objective).abs() < 1e-9);
        assert!((bs - route.budget).abs() < 1e-9);
    }

    #[test]
    fn theorem3_bound_across_parameters() {
        let (g, idx) = setup();
        for m in [vec![t(1)], vec![t(1), t(2)], vec![t(1), t(2), t(3)]] {
            for delta in [5.0, 6.0, 8.0, 10.0, 14.0] {
                let q = KorQuery::new(&g, v(0), v(7), m.clone(), delta).unwrap();
                let exact = single(&g, &idx, &q, Algo::Exact).unwrap();
                for (eps, beta) in [(0.1, 1.2), (0.5, 1.2), (0.5, 2.0), (0.9, 1.5)] {
                    let r = single(&g, &idx, &q, Algo::BucketBound(params(eps, beta))).unwrap();
                    match (&exact.route, &r.route) {
                        (None, None) => {}
                        (Some(opt), Some(found)) => {
                            let bound = beta / (1.0 - eps);
                            assert!(
                                found.objective <= opt.objective * bound + 1e-9,
                                "eps={eps} beta={beta} delta={delta}: {} > {}·{bound}",
                                found.objective,
                                opt.objective
                            );
                            assert!(found.budget <= delta + 1e-9);
                        }
                        (a, b) => panic!("feasibility disagreement: exact={a:?} bb={b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn bucket_bound_never_worse_than_beta_times_osscaling() {
        // The defining property: OS(R_BB) ≤ β · OS(R_OS) (same bucket).
        let (g, idx) = setup();
        for delta in [6.0, 8.0, 10.0, 12.0] {
            let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], delta).unwrap();
            let os_params = OsScalingParams {
                use_opt1: false,
                use_opt2: false,
                ..OsScalingParams::default()
            };
            let ros = single(&g, &idx, &q, Algo::OsScaling(os_params.clone())).unwrap();
            let rbb = single(&g, &idx, &q, Algo::BucketBound(params(0.5, 1.2))).unwrap();
            match (&ros.route, &rbb.route) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(b.objective <= a.objective * 1.2 + 1e-9);
                }
                (a, b) => panic!("feasibility disagreement: os={a:?} bb={b:?}"),
            }
        }
    }

    #[test]
    fn infeasible_cases_detected() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 4.0).unwrap();
        assert!(single(&g, &idx, &q, Algo::BucketBound(params(0.5, 1.2)))
            .unwrap()
            .route
            .is_none());
        let q2 = KorQuery::new(&g, v(0), v(7), vec![t(5)], 100.0).unwrap();
        assert!(single(&g, &idx, &q2, Algo::BucketBound(params(0.5, 1.2)))
            .unwrap()
            .route
            .is_none());
        let q3 = KorQuery::new(&g, v(1), v(7), vec![], 100.0).unwrap();
        assert!(single(&g, &idx, &q3, Algo::BucketBound(params(0.5, 1.2)))
            .unwrap()
            .route
            .is_none());
    }

    #[test]
    fn trivial_source_target() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(0), vec![t(3)], 5.0).unwrap();
        let r = single(&g, &idx, &q, Algo::BucketBound(params(0.5, 1.2))).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0)]);
        assert_eq!(route.objective, 0.0);
    }

    #[test]
    fn optimizations_preserve_feasibility_and_bound() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2), t(4)], 12.0).unwrap();
        let with_opts = single(
            &g,
            &idx,
            &q,
            Algo::BucketBound(BucketBoundParams::default()),
        )
        .unwrap();
        let without = single(&g, &idx, &q, Algo::BucketBound(params(0.5, 1.2))).unwrap();
        let exact = single(&g, &idx, &q, Algo::Exact).unwrap();
        let opt = exact.route.unwrap().objective;
        for r in [with_opts, without] {
            let route = r.route.expect("feasible");
            assert!(route.objective <= opt * 2.4 + 1e-9);
            assert!(route.route.covers(&g, &[t(1), t(2), t(4)]));
        }
    }

    #[test]
    fn top_k_bucket_bound_returns_sorted_feasible_routes() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 12.0).unwrap();
        let request = SearchRequest {
            k: 3,
            ..SearchRequest::new(Algo::BucketBound(params(0.2, 1.2)))
        };
        let r = search_uncached(&g, &idx, &q, &request).unwrap();
        assert!(!r.routes.is_empty());
        for w in r.routes.windows(2) {
            assert!(w[0].objective <= w[1].objective);
            assert_ne!(w[0].route.nodes(), w[1].route.nodes());
        }
        for route in &r.routes {
            assert!(route.budget <= 12.0 + 1e-9);
            assert!(route.route.covers(&g, &[t(1), t(2)]));
        }
    }

    #[test]
    fn top_k_zero_rejected() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        let request = SearchRequest {
            k: 0,
            ..SearchRequest::new(Algo::BucketBound(BucketBoundParams::default()))
        };
        assert!(matches!(
            search_uncached(&g, &idx, &q, &request),
            Err(KorError::InvalidK)
        ));
    }

    #[test]
    fn invalid_beta_rejected() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        assert!(matches!(
            single(&g, &idx, &q, Algo::BucketBound(params(0.5, 1.0))),
            Err(KorError::InvalidBeta(_))
        ));
    }

    #[test]
    fn expired_deadline_aborts_before_any_expansion() {
        // Promptness regression test for the bucket-bound path: the
        // per-search ticker checks on the first pop, so an expired
        // deadline must abort before a single label is expanded — on a
        // search far smaller than the check stride. If the ticker ever
        // counted buckets or beams separately (or incremented before
        // checking), this search would run to completion instead.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let p = OsScalingParams::default();
        let deadline = Some(std::time::Instant::now());
        let mut engine = Engine::new(&g, &idx, &q, LabelAlgo::BucketBound(1.2), &p, 1, None);
        assert!(matches!(
            engine.run(deadline),
            Err(KorError::DeadlineExceeded)
        ));
        assert_eq!(
            engine.stats.labels_expanded, 0,
            "deadline was checked only after expansion work began"
        );
    }

    #[test]
    fn objective_overflow_finds_no_route() {
        // Edge objectives need only be finite, so a route of two 1e308
        // edges has objective +∞, and so has `LOW` of every label on it.
        // Such a label must be pruned, never filed under bucket
        // `u64::MAX`; no label search may report the overflowing route.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(["a"]);
        let n1 = b.add_node(["b"]);
        let n2 = b.add_node(Vec::<&str>::new());
        b.add_edge(n0, n1, 1e308, 1.0).unwrap();
        b.add_edge(n1, n2, 1e308, 1.0).unwrap();
        let g = b.build().unwrap();
        let idx = InvertedIndex::build(&g);
        let engine = KorEngine::new(&g);
        let a = g.vocab().get("a").unwrap();
        let kw_b = g.vocab().get("b").unwrap();
        for keywords in [vec![], vec![a], vec![kw_b]] {
            let q = KorQuery::new(&g, n0, n2, keywords, 10.0).unwrap();
            for algo in [
                Algo::OsScaling(OsScalingParams::default()),
                Algo::BucketBound(BucketBoundParams::default()),
                Algo::Exact,
            ] {
                for k in [1, 3] {
                    if k > 1 && algo == Algo::Exact {
                        continue; // exact answers one route only
                    }
                    let request = SearchRequest {
                        k,
                        ..SearchRequest::new(algo.clone())
                    };
                    let cold = search_uncached(&g, &idx, &q, &request).unwrap();
                    let warm = engine.search(&q, &request).unwrap();
                    assert!(cold.routes.is_empty(), "{} k={k} cold", algo.name());
                    assert!(warm.routes.is_empty(), "{} k={k} warm", algo.name());
                }
            }
        }
    }

    #[test]
    fn bucket_index_math() {
        let b = Buckets::new(4.0, 1.2);
        assert_eq!(b.index_for(4.0), 0);
        assert_eq!(b.index_for(3.0), 0); // below base clamps to 0
        assert_eq!(b.index_for(4.7), 0); // < 4·1.2
        assert_eq!(b.index_for(4.9), 1); // ≥ 4·1.2
        assert_eq!(b.index_for(4.0 * 1.2 * 1.2 + 0.01), 2);
    }

    #[test]
    fn generates_no_more_labels_than_os_scaling() {
        // §4.2.1: BucketBound terminates early and creates fewer labels.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let os_params = OsScalingParams {
            use_opt1: false,
            use_opt2: false,
            ..OsScalingParams::default()
        };
        let ros = single(&g, &idx, &q, Algo::OsScaling(os_params.clone())).unwrap();
        let rbb = single(&g, &idx, &q, Algo::BucketBound(params(0.5, 1.2))).unwrap();
        assert!(rbb.stats.labels_created <= ros.stats.labels_created);
    }
}
