//! `BucketBound` (Algorithm 2) and its KkR top-k extension.
//!
//! Labels are organized into geometric buckets by their best possible
//! objective score `LOW(L) = L.OS + OS(τ_{node,t})` (Lemma 3): bucket
//! `B_r` covers `[β^r·OS(τ_{s,t}), β^{r+1}·OS(τ_{s,t}))` (Definition 9).
//! Labels are always dequeued from the first non-empty bucket; when a
//! newly created label covers all query keywords, falls into that same
//! bucket, and its τ-completion fits the budget, Lemma 5 guarantees the
//! route found by `OSScaling` shares the bucket, so the search stops with
//! approximation ratio `β/(1−ε)` (Theorem 3) — typically an order of
//! magnitude faster than Algorithm 1.

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use kor_apsp::{KeywordReach, QueryContext};
use kor_graph::{Graph, NodeId, Route};
use kor_index::InvertedIndex;

use crate::cache::PreprocessCache;
use crate::dominance::LabelStore;
use crate::error::KorError;
use crate::label::{Label, LabelArena, LabelSnapshot, NO_LABEL};
use crate::labeling::{
    acquire_context, acquire_reach, build_opt2, query_mask_table, scaler_for, AltBounds,
    DeadlineTicker, Opt2, QItem, ScoreMode,
};
use crate::params::BucketBoundParams;
use crate::query::KorQuery;
use crate::result::RouteResult;
use crate::search::SearchOutcome;
use crate::stats::SearchStats;

/// Runs `BucketBound` (Algorithm 2), the `β/(1−ε)`-approximation; with
/// `k > 1`, its KkR extension: k-dominance, terminating once `k`
/// feasible routes have been found in current buckets (§3.5). `cache`
/// supplies warm to-target trees and Opt-2 bounds; results are
/// byte-identical to the cold path.
pub(crate) fn bucket_search(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    params: &BucketBoundParams,
    k: usize,
    deadline: Option<Instant>,
    cache: Option<&PreprocessCache>,
) -> Result<SearchOutcome, KorError> {
    params.validate()?;
    let mut engine = BucketEngine::new(graph, index, query, params, k, deadline, cache);
    let routes = engine.run()?;
    Ok(SearchOutcome {
        routes,
        stats: engine.stats,
        labels: engine.snapshots,
        greedy_flags: None,
    })
}

/// Geometric label buckets (Definition 9) with lazy tombstone skipping.
struct Buckets {
    base: f64,
    log_beta: f64,
    queues: Vec<BinaryHeap<QItem>>,
    /// First bucket that may contain alive labels; monotone because
    /// `LOW` never decreases along label extensions.
    current: usize,
}

impl Buckets {
    fn new(base: f64, beta: f64) -> Self {
        Self {
            base,
            log_beta: beta.ln(),
            queues: Vec::new(),
            current: 0,
        }
    }

    /// The bucket index for a `LOW` value.
    fn index_for(&self, low: f64) -> usize {
        if low <= self.base {
            return 0;
        }
        let r = ((low / self.base).ln() / self.log_beta).floor();
        if r < 0.0 {
            0
        } else {
            r as usize
        }
    }

    fn push(&mut self, bucket: usize, item: QItem) -> bool {
        let grew = bucket >= self.queues.len();
        while self.queues.len() <= bucket {
            self.queues.push(BinaryHeap::new());
        }
        self.queues[bucket].push(item);
        grew
    }

    /// Pops the lowest-order alive item from the first non-empty bucket.
    fn pop_first(&mut self, arena: &LabelArena, skipped: &mut u64) -> Option<(usize, QItem)> {
        while self.current < self.queues.len() {
            while let Some(item) = self.queues[self.current].pop() {
                if arena.get(item.id).alive {
                    return Some((self.current, item));
                }
                *skipped += 1;
            }
            self.current += 1;
        }
        None
    }
}

struct BucketEngine<'a> {
    graph: &'a Graph,
    query: &'a KorQuery,
    mode: ScoreMode,
    k: usize,
    collect_labels: bool,
    deadline: Option<Instant>,
    ctx: Arc<QueryContext>,
    /// Per-node query-keyword masks (empty ⇒ all zero).
    masks: Vec<u64>,
    reach: Option<KeywordReach>,
    opt2: Option<Opt2>,
    /// Landmark bounds; `max`-ed with σ at the budget pruning sites.
    alt: Option<AltBounds>,
    arena: LabelArena,
    store: LabelStore,
    buckets: Buckets,
    found: Vec<RouteResult>,
    stats: SearchStats,
    snapshots: Vec<LabelSnapshot>,
}

impl<'a> BucketEngine<'a> {
    fn new(
        graph: &'a Graph,
        index: &'a InvertedIndex,
        query: &'a KorQuery,
        params: &BucketBoundParams,
        k: usize,
        deadline: Option<Instant>,
        cache: Option<&PreprocessCache>,
    ) -> Self {
        let mut stats = SearchStats::default();
        let ctx = acquire_context(graph, query.target, cache, &mut stats);
        let masks = query_mask_table(graph.node_count(), &query.keywords, index);
        let reach = (params.use_opt1 && !query.keywords.is_empty())
            .then(|| acquire_reach(graph, index, query, cache, &mut stats));
        let alt = AltBounds::acquire(graph, query.target, cache);
        let opt2 = if params.use_opt2 {
            build_opt2(
                graph,
                index,
                query,
                &ctx,
                params.infrequent_threshold,
                cache,
                &mut stats,
            )
        } else {
            None
        };
        let mode = ScoreMode::Scaled(scaler_for(
            graph,
            params.anchor,
            params.epsilon,
            query.budget,
        ));
        let store = LabelStore::new(
            mode.dom_mode(),
            query.keywords.full_mask(),
            k,
            graph.node_count(),
        );
        // Bucket base: OS(τ_{s,t}); when source == target that is 0, so
        // fall back to the smallest edge objective (any covering cycle
        // costs at least that), keeping the intervals well-defined. Like
        // θ above, the fallback honours a pinned anchor so shard-local
        // bucket layouts match the fused engine's.
        let tau_st = ctx.os_tau(query.source);
        let base = if tau_st > 0.0 && tau_st.is_finite() {
            tau_st
        } else {
            params
                .anchor
                .map_or_else(|| graph.o_min(), |a| a.o_min)
                .max(f64::MIN_POSITIVE)
        };
        Self {
            graph,
            query,
            mode,
            k,
            collect_labels: params.collect_labels,
            deadline,
            ctx,
            masks,
            reach,
            opt2,
            alt,
            arena: LabelArena::with_capacity(1024),
            store,
            buckets: Buckets::new(base, params.beta),
            found: Vec::new(),
            stats,
            snapshots: Vec::new(),
        }
    }

    /// The query-keyword mask of `node` (one indexed load).
    #[inline]
    fn node_mask(&self, node: NodeId) -> u64 {
        if self.masks.is_empty() {
            0
        } else {
            self.masks[node.index()]
        }
    }

    /// Lower bound on the remaining budget from `node` to the target:
    /// `max(BS(σ), ALT)`. Equal to `BS(σ)` — the exact distance — on
    /// every node, so pruning decisions are unchanged; see
    /// [`AltBounds`].
    #[inline]
    fn bs_lb(&self, node: NodeId) -> f64 {
        let sigma = self.ctx.bs_sigma(node);
        match &self.alt {
            Some(alt) => sigma.max(alt.budget_bound(node)),
            None => sigma,
        }
    }

    fn run(&mut self) -> Result<Vec<RouteResult>, KorError> {
        let source = self.query.source;
        if !self.ctx.reaches_target(source) {
            return Ok(Vec::new());
        }
        let init = Label {
            node: source,
            mask: self.node_mask(source),
            scaled: 0,
            objective: 0.0,
            budget: 0.0,
            parent: NO_LABEL,
            alive: true,
        };
        let init_id = self.arena.push(init);
        self.stats.labels_created += 1;
        if self.collect_labels {
            self.snapshots
                .push(LabelSnapshot::from(self.arena.get(init_id)));
        }
        self.store.try_insert(&mut self.arena, init_id);
        self.file_label(init_id);

        // One per-search ticker (see `labeling::DeadlineTicker`): the
        // first iteration always checks, and the counter spans bucket
        // transitions, so later buckets cannot starve the deadline.
        let mut ticker = DeadlineTicker::new(self.deadline);
        while !self.done() {
            ticker.tick()?;
            let Some((_, item)) = self
                .buckets
                .pop_first(&self.arena, &mut self.stats.labels_skipped)
            else {
                break;
            };
            // Lemma 5 at dequeue time: this label was popped from the
            // first non-empty bucket, so all earlier buckets are empty;
            // if it covers all keywords and its τ-completion fits the
            // budget, it is a result route (lines 19–23 generalized to
            // labels that entered a later bucket than the then-current
            // one and were reached only now).
            self.record_if_found(item.id);
            if self.done() {
                break;
            }
            self.stats.labels_expanded += 1;
            self.expand(item.id);
        }
        Ok(self.results())
    }

    /// Records the label's τ-completion as a found route if it covers all
    /// query keywords and fits the budget; dedupes identical routes —
    /// including the same label being seen at creation time and again at
    /// dequeue time.
    fn record_if_found(&mut self, id: u32) {
        let label = *self.arena.get(id);
        if !self.query.keywords.is_covering(label.mask) {
            return;
        }
        let bs = label.budget + self.ctx.bs_tau(label.node);
        // NaN-safe: an infinite/NaN completion budget must not count.
        if bs > self.query.budget || !bs.is_finite() {
            return;
        }
        let mut nodes = self.arena.path_nodes(id);
        let completion = self
            .ctx
            .tau_route(label.node)
            .expect("found labels reach the target");
        nodes.extend_from_slice(&completion.nodes()[1..]);
        if self.found.iter().any(|r| r.route.nodes() == nodes) {
            return;
        }
        self.found.push(RouteResult {
            route: Route::new(nodes),
            objective: label.objective + self.ctx.os_tau(label.node),
            budget: bs,
        });
        self.stats.upper_bound_updates += 1;
    }

    fn done(&self) -> bool {
        self.found.len() >= self.k
    }

    fn results(&mut self) -> Vec<RouteResult> {
        let mut found = std::mem::take(&mut self.found);
        found.sort_by(|a, b| {
            a.objective
                .total_cmp(&b.objective)
                .then(a.budget.total_cmp(&b.budget))
        });
        found
    }

    fn expand(&mut self, id: u32) {
        let label = *self.arena.get(id);
        // Copying the `&'a Graph` reference out lets the CSR adjacency
        // iterator borrow the graph — not `self` — so the slices are
        // walked in place with no per-expansion `Vec` allocation.
        let graph = self.graph;
        for e in graph.out_edges(label.node) {
            self.make_child(id, e.node, e.objective, e.budget);
            if self.done() {
                return;
            }
        }
        if self.reach.is_some() && !self.query.keywords.is_covering(label.mask) {
            self.opt1_jump(id);
        }
    }

    fn make_child(&mut self, parent_id: u32, node: NodeId, edge_obj: f64, edge_bud: f64) {
        let parent = *self.arena.get(parent_id);
        let objective = parent.objective + edge_obj;
        let budget = parent.budget + edge_bud;
        let child = Label {
            node,
            mask: parent.mask | self.node_mask(node),
            scaled: self.mode.child_key(&parent, edge_obj, objective),
            objective,
            budget,
            parent: parent_id,
            alive: true,
        };
        self.stats.labels_created += 1;
        if self.collect_labels {
            self.snapshots.push(LabelSnapshot {
                node: child.node,
                mask: child.mask,
                scaled: child.scaled,
                objective: child.objective,
                budget: child.budget,
            });
        }
        // Algorithm 2 line 11: budget feasibility via the min-budget
        // completion (BucketBound has no objective upper bound).
        if child.budget + self.bs_lb(child.node) > self.query.budget {
            self.stats.labels_pruned += 1;
            return;
        }
        // Optimization Strategy 2 (budget side only: there is no U).
        if let Some(opt2) = &self.opt2 {
            if child.mask & opt2.bit_mask == 0
                && child.budget + opt2.trees.bud_bound.budget(child.node) > self.query.budget
            {
                self.stats.opt2_discards += 1;
                return;
            }
        }
        let id = self.arena.push(child);
        if !self.store.try_insert(&mut self.arena, id) {
            self.arena.kill(id);
            self.sync_store_stats();
            return;
        }
        self.sync_store_stats();
        let bucket = self.file_label(id);
        // Algorithm 2 lines 19–23: a covering label created in the bucket
        // currently being drained terminates the search immediately (its
        // dequeue-time twin in `run` handles labels that land in later
        // buckets and are only reached once those become current).
        if bucket == self.buckets.current {
            self.record_if_found(id);
        }
    }

    /// Places a stored label into its bucket (lines 12–15), returning the
    /// bucket index.
    fn file_label(&mut self, id: u32) -> usize {
        let label = *self.arena.get(id);
        let low = label.objective + self.ctx.os_tau(label.node);
        let bucket = self.buckets.index_for(low);
        if self.buckets.push(
            bucket,
            QItem {
                covered: label.mask.count_ones(),
                key: label.scaled,
                budget: label.budget,
                node: label.node.0,
                id,
            },
        ) {
            self.stats.buckets_created += 1;
        }
        self.stats.queue_pushes += 1;
        bucket
    }

    fn opt1_jump(&mut self, id: u32) {
        let label = *self.arena.get(id);
        let reach = self.reach.as_ref().expect("opt1 enabled");
        let mut best: Option<(f64, u32)> = None;
        for (bit, _) in self.query.keywords.uncovered(label.mask) {
            if let Some((dist, j)) = reach.nearest(bit, label.node) {
                if label.budget + dist + self.bs_lb(j) <= self.query.budget {
                    let better = best.is_none_or(|(d, _)| dist < d);
                    if better {
                        best = Some((dist, bit));
                    }
                }
            }
        }
        let Some((_, bit)) = best else { return };
        let Some(path) = reach.path_to_nearest(bit, label.node) else {
            return;
        };
        if path.len() < 2 {
            return;
        }
        self.stats.opt1_jumps += 1;
        let mut cur = id;
        for step in path.windows(2) {
            let (from, to) = (step[0], step[1]);
            let e = self
                .graph
                .edge_between(from, to)
                .expect("reach paths follow graph edges");
            let is_last = to == *path.last().expect("non-empty");
            if is_last {
                self.make_child(cur, to, e.objective, e.budget);
            } else {
                let parent = *self.arena.get(cur);
                let objective = parent.objective + e.objective;
                let child = Label {
                    node: to,
                    mask: parent.mask | self.node_mask(to),
                    scaled: self.mode.child_key(&parent, e.objective, objective),
                    objective,
                    budget: parent.budget + e.budget,
                    parent: cur,
                    alive: true,
                };
                cur = self.arena.push(child);
            }
        }
    }

    fn sync_store_stats(&mut self) {
        self.stats.labels_dominated = self.store.dominated_count();
        self.stats.labels_evicted = self.store.evicted_count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OsScalingParams;
    use crate::search::{search_uncached, single, Algo, SearchRequest};
    use kor_graph::fixtures::{figure1, t, v};

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
        let p = BucketBoundParams::default();
        let deadline = Some(std::time::Instant::now());
        let mut engine = BucketEngine::new(&g, &idx, &q, &p, 1, deadline, None);
        assert!(matches!(engine.run(), Err(KorError::DeadlineExceeded)));
        assert_eq!(
            engine.stats.labels_expanded, 0,
            "deadline was checked only after expansion work began"
        );
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
