//! The label-search engine: `OSScaling` (Algorithm 1), `BucketBound`
//! (Algorithm 2), the exact-dominance variant, and the KkR top-k
//! extension of the two scaled searches (§3.5).
//!
//! One engine implements all of them because they share every mechanism
//! — label creation (Definition 7), dominance (Definition 6 /
//! k-dominance), the priority order (Definition 8), the feasibility and
//! upper-bound pruning of Algorithm 1, and the two optimization
//! strategies. They differ in three places only:
//!
//! - **Dominance key.** Scaled objective for the two scaled searches,
//!   the exact objective for the exact one.
//! - **Queue.** One heap in Definition 8 order. `OSScaling` and exact
//!   keep every queued label in it; `BucketBound` keeps the labels of
//!   the bucket being drained there and files the rest under their
//!   geometric bucket of `LOW` (see [`crate::bucket`]).
//! - **Result policy.** `OSScaling` and exact keep a top-k set whose k-th
//!   objective is the pruning bound `U`; a covering label is completed
//!   at creation, and with `k = 1` a completed label is not enqueued.
//!   `BucketBound` has no `U` (it is `+∞`, so the objective prune only
//!   drops labels whose `LOW` overflowed); it records a covering label's
//!   completion at creation when the label lands in the bucket being
//!   drained and again at dequeue, and stops once `k` routes are found
//!   (Lemma 5).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use kor_apsp::{KeywordReach, QueryContext};
use kor_graph::{Graph, NodeId, QueryKeywords, Route};
use kor_index::InvertedIndex;

use crate::bucket::Buckets;
use crate::cache::{build_opt2_trees, Opt2Trees, PreprocessCache};
use crate::dominance::{DomMode, LabelStore};
use crate::error::KorError;
use crate::label::{Label, LabelArena, LabelSnapshot, NO_LABEL};
use crate::params::{OsScalingParams, ScaleAnchor};
use crate::query::KorQuery;
use crate::result::RouteResult;
use crate::scale::Scaler;
use crate::search::{SearchOutcome, SearchRequest};
use crate::stats::SearchStats;

/// How many queue pops pass between two deadline checks. Calling
/// `Instant::now()` per pop costs a syscall-ish vDSO hit in the hottest
/// loop of the engine; a stride this size keeps deadline latency well
/// under a millisecond while making the check free in the aggregate.
/// The first pop always checks, so an already-expired deadline aborts
/// before any work happens.
const DEADLINE_STRIDE: u64 = 1024;

/// Strided deadline checker of the label-search loop.
///
/// The counter is **per search** — one ticker lives for the whole engine
/// run, never reset per bucket — so a deadline can be starved by
/// at most `DEADLINE_STRIDE − 1` pops no matter how the queue is
/// structured. The first call always checks, so an already-expired
/// deadline aborts before any expansion work happens.
struct DeadlineTicker {
    deadline: Option<Instant>,
    pops: u64,
}

impl DeadlineTicker {
    fn new(deadline: Option<Instant>) -> Self {
        Self { deadline, pops: 0 }
    }

    /// Counts one queue pop; errors with
    /// [`KorError::DeadlineExceeded`] when a configured deadline has
    /// passed at a checked pop (the first, then every
    /// `DEADLINE_STRIDE`-th).
    #[inline]
    fn tick(&mut self) -> Result<(), KorError> {
        if self.pops % DEADLINE_STRIDE == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(KorError::DeadlineExceeded);
                }
            }
        }
        self.pops += 1;
        Ok(())
    }
}

/// The scaler for a search from `s` with `τ(s,t) = tau_st`
/// ([`Scaler::for_query`]): its fallback extrema are the pinned ones when
/// the params carry a [`ScaleAnchor`], otherwise `graph`'s.
fn scaler_for(
    graph: &Graph,
    anchor: Option<ScaleAnchor>,
    tau_st: f64,
    epsilon: f64,
    delta: f64,
) -> Scaler {
    let (o_min, b_min) = anchor.map_or((graph.o_min(), graph.b_min()), |a| (a.o_min, a.b_min));
    Scaler::for_query(tau_st, o_min, b_min, epsilon, delta)
}

/// The label searches. They share the engine and differ only in their
/// dominance key, queue and result policy (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LabelAlgo {
    /// `OSScaling` (Algorithm 1), the `1/(1−ε)`-approximation.
    OsScaling,
    /// `BucketBound` (Algorithm 2) with bucket growth factor `β`, the
    /// `β/(1−ε)`-approximation.
    BucketBound(f64),
    /// Label dominance on unscaled objective scores, which preserves at
    /// least one optimal label chain and therefore returns the true
    /// optimum (the `ε → 0` limit of `OSScaling`). Exponentially more
    /// labels in the worst case — intended as the accuracy ground truth,
    /// and bounded by a deadline in long-lived services.
    Exact,
}

/// Runs one label search for `request`'s `k` routes and deadline.
/// `params` supplies ε (read by the scaled searches only), the
/// optimization strategies, label collection and the scale anchor.
/// `cache` supplies warm to-target trees, Opt-2 bounds and keyword reach;
/// `None` builds everything per call. Results are byte-identical either
/// way.
pub(crate) fn label_search(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    algo: LabelAlgo,
    params: &OsScalingParams,
    request: &SearchRequest,
    cache: Option<&PreprocessCache>,
) -> Result<SearchOutcome, KorError> {
    let mut engine = Engine::new(graph, index, query, algo, params, request.k, cache);
    let routes = engine.run(request.deadline)?;
    Ok(SearchOutcome {
        routes,
        stats: engine.stats,
        labels: engine.snapshots,
        greedy_flags: None,
    })
}

/// Acquires the to-target [`QueryContext`] for `query`, from the cache
/// when one is supplied, recording hit/miss/build counters in `stats`.
fn acquire_context(
    graph: &Graph,
    target: NodeId,
    cache: Option<&PreprocessCache>,
    stats: &mut SearchStats,
) -> Arc<QueryContext> {
    match cache {
        Some(cache) => {
            let (ctx, hit) = cache.context(graph, target);
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
                stats.trees_built += 2;
            }
            ctx
        }
        None => {
            stats.trees_built += 2;
            Arc::new(QueryContext::new(graph, target))
        }
    }
}

/// The Optimization-Strategy-1 keyword reach for `query`, assembled from
/// cached per-keyword trees when a cache is supplied (each tree depends
/// only on the keyword's postings, so one build serves every query
/// mentioning the keyword), built cold otherwise. Identical either way.
fn acquire_reach(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    cache: Option<&PreprocessCache>,
    stats: &mut SearchStats,
) -> KeywordReach {
    match cache {
        Some(cache) => {
            let trees = query
                .keywords
                .ids()
                .iter()
                .map(|&kw| {
                    let (tree, hit) = cache.reach_tree(graph, kw, index.postings(kw));
                    if hit {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                        stats.trees_built += 1;
                    }
                    tree
                })
                .collect();
            KeywordReach::from_trees(trees)
        }
        None => KeywordReach::new(
            graph,
            &query.keywords,
            &index.query_postings(&query.keywords),
        ),
    }
}

/// The query-keyword coverage mask for every node, as one flat table.
///
/// The hot loop previously called `keywords.mask_of(graph.keywords(v))`
/// once per child label — a sorted-slice intersection per label. The
/// table is built once per query from the inverted index's postings, so
/// only nodes actually holding a query keyword are touched (plus one
/// zeroed allocation); lookups become a single indexed load. Empty for
/// keyword-less queries, where every mask is zero.
fn query_mask_table(
    node_count: usize,
    keywords: &QueryKeywords,
    index: &InvertedIndex,
) -> Vec<u64> {
    if keywords.is_empty() {
        return Vec::new();
    }
    let mut masks = vec![0u64; node_count];
    for (bit, &kw) in keywords.ids().iter().enumerate() {
        for &node in index.postings(kw) {
            masks[node.index()] |= 1u64 << bit;
        }
    }
    masks
}

/// Objective representation used for dominance and ordering.
#[derive(Debug, Clone, Copy)]
enum ScoreMode {
    Scaled(Scaler),
    Exact,
}

impl ScoreMode {
    #[inline]
    fn dom_mode(&self) -> DomMode {
        match self {
            ScoreMode::Scaled(_) => DomMode::Scaled,
            ScoreMode::Exact => DomMode::Exact,
        }
    }

    /// The child's ordering/dominance key after traversing an edge with
    /// objective `edge_obj` from `parent`, where the child's exact
    /// objective is `child_obj`.
    #[inline]
    fn child_key(&self, parent: &Label, edge_obj: f64, child_obj: f64) -> u64 {
        match self {
            // `scale` saturates at `u64::MAX` for overflowing objectives
            // (e.g. after extreme `update_edges` multipliers), so the sum
            // must saturate too — a wrapping add here would panic in
            // debug builds and break key monotonicity in release.
            ScoreMode::Scaled(s) => parent.scaled.saturating_add(s.scale(edge_obj)),
            ScoreMode::Exact => child_obj.to_bits(),
        }
    }
}

/// Priority-queue item implementing the label order of Definition 8:
/// more covered keywords first, then smaller scaled objective, then
/// smaller budget, then node id, then creation sequence.
#[derive(PartialEq)]
pub(crate) struct QItem {
    covered: u32,
    key: u64,
    budget: f64,
    node: u32,
    id: u32,
}

impl Eq for QItem {}

impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum, so "pops first" must be "greater".
        self.covered
            .cmp(&other.covered)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.budget.total_cmp(&self.budget))
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result routes in ascending (objective, budget) order, at most `k`;
/// the k-th objective is the bound `U`.
struct TopSet {
    k: usize,
    items: Vec<RouteResult>,
}

impl TopSet {
    fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(k),
        }
    }

    fn is_full(&self) -> bool {
        self.items.len() >= self.k
    }

    /// Current upper bound `U`: the k-th best objective, `+inf` while
    /// fewer than `k` routes exist.
    fn bound(&self) -> f64 {
        if self.is_full() {
            self.items.last().expect("k ≥ 1").objective
        } else {
            f64::INFINITY
        }
    }

    /// Inserts if the route improves the set; returns whether it did.
    /// A route already in the set is ignored: a label and its
    /// extensions along the τ-completion materialize the same final
    /// route, and `BucketBound` sees a label at creation and again at
    /// dequeue.
    fn insert(&mut self, r: RouteResult) -> bool {
        if r.objective >= self.bound() {
            return false;
        }
        if self.items.iter().any(|x| x.route == r.route) {
            return false;
        }
        let at = self
            .items
            .partition_point(|x| (x.objective, x.budget) <= (r.objective, r.budget));
        self.items.insert(at, r);
        self.items.truncate(self.k);
        true
    }
}

/// Optimization Strategy 2 state: the infrequent query keyword bit plus
/// the two "through an infrequent-keyword node" lower-bound trees
/// (shared with the pre-processing cache when one is in use).
struct Opt2 {
    bit_mask: u64,
    trees: Arc<Opt2Trees>,
}

/// The one label-search engine behind `OSScaling`, `BucketBound` and
/// exact (see the module docs).
pub(crate) struct Engine<'a> {
    graph: &'a Graph,
    query: &'a KorQuery,
    mode: ScoreMode,
    k: usize,
    collect_labels: bool,
    ctx: Arc<QueryContext>,
    /// Per-node query-keyword masks (empty ⇒ all zero).
    masks: Vec<u64>,
    reach: Option<KeywordReach>,
    opt2: Option<Opt2>,
    arena: LabelArena,
    store: LabelStore,
    /// Queued labels; for `BucketBound`, those of the bucket being
    /// drained.
    heap: BinaryHeap<QItem>,
    /// `BucketBound`'s buckets; `None` for the other searches.
    buckets: Option<Buckets>,
    top: TopSet,
    pub(crate) stats: SearchStats,
    snapshots: Vec<LabelSnapshot>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        graph: &'a Graph,
        index: &'a InvertedIndex,
        query: &'a KorQuery,
        algo: LabelAlgo,
        params: &OsScalingParams,
        k: usize,
        cache: Option<&PreprocessCache>,
    ) -> Self {
        let mut stats = SearchStats::default();
        let ctx = acquire_context(graph, query.target, cache, &mut stats);
        let masks = query_mask_table(graph.node_count(), &query.keywords, index);
        let reach = (params.use_opt1 && !query.keywords.is_empty())
            .then(|| acquire_reach(graph, index, query, cache, &mut stats));
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
        let mode = match algo {
            LabelAlgo::Exact => ScoreMode::Exact,
            LabelAlgo::OsScaling | LabelAlgo::BucketBound(_) => ScoreMode::Scaled(scaler_for(
                graph,
                params.anchor,
                ctx.os_tau(query.source),
                params.epsilon,
                query.budget,
            )),
        };
        let buckets = match algo {
            LabelAlgo::BucketBound(beta) => {
                Some(Buckets::for_query(graph, query, &ctx, params.anchor, beta))
            }
            LabelAlgo::OsScaling | LabelAlgo::Exact => None,
        };
        let store = LabelStore::new(
            mode.dom_mode(),
            query.keywords.full_mask(),
            k,
            graph.node_count(),
        );
        Self {
            graph,
            query,
            mode,
            k,
            collect_labels: params.collect_labels,
            ctx,
            masks,
            reach,
            opt2,
            arena: LabelArena::with_capacity(1024),
            store,
            heap: BinaryHeap::with_capacity(1024),
            buckets,
            top: TopSet::new(k),
            stats,
            snapshots: Vec::new(),
        }
    }

    /// Replaces a scaled search's scaler, so the unit tests can run the
    /// paper's own θ ([`Scaler::new`]) through the engine.
    #[cfg(test)]
    fn with_scaler(mut self, scaler: Scaler) -> Self {
        if let ScoreMode::Scaled(_) = self.mode {
            self.mode = ScoreMode::Scaled(scaler);
        }
        self
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

    /// The objective bound `U` labels are pruned against: the top-k
    /// set's, or `+∞` for `BucketBound`, which has none.
    #[inline]
    fn bound(&self) -> f64 {
        match self.buckets {
            Some(_) => f64::INFINITY,
            None => self.top.bound(),
        }
    }

    /// Whether `BucketBound` has found its `k` routes (Lemma 5); never
    /// for the other searches, which drain their queue.
    #[inline]
    fn done(&self) -> bool {
        self.buckets.is_some() && self.top.is_full()
    }

    /// Runs the search and materializes the result routes in ascending
    /// objective order. Aborts with [`KorError::DeadlineExceeded`] if
    /// `deadline` passes before the search ends.
    pub(crate) fn run(&mut self, deadline: Option<Instant>) -> Result<Vec<RouteResult>, KorError> {
        let source = self.query.source;
        if !self.ctx.reaches_target(source) {
            return Ok(Vec::new());
        }

        // Initial label (Algorithm 1 lines 2–4).
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
        self.record(init_id);
        self.store.try_insert(&mut self.arena, init_id);
        // The initial label may already cover everything (then its best
        // completion is τ(s,t) — handled by the same completion check the
        // children go through). `BucketBound` finds it at its dequeue.
        if self.buckets.is_none() {
            self.try_complete(init_id);
        }
        self.push_queue(init_id);

        // Stride-based deadline check: `Instant::now()` per pop is
        // measurable in this loop; checking every DEADLINE_STRIDE pops
        // (including the very first) bounds both the overhead and the
        // firing latency.
        let mut ticker = DeadlineTicker::new(deadline);
        while !self.done() {
            if self.heap.is_empty() {
                if let Some(buckets) = &mut self.buckets {
                    buckets.advance(&mut self.heap);
                }
            }
            let Some(item) = self.heap.pop() else { break };
            ticker.tick()?;
            let label = *self.arena.get(item.id);
            if !label.alive {
                self.stats.labels_skipped += 1;
                continue;
            }
            // Algorithm 1 line 7: the best completion cannot beat U.
            let u = self.bound();
            if label.objective + self.ctx.os_tau(label.node) > u {
                self.stats.labels_skipped += 1;
                continue;
            }
            if self.buckets.is_some() {
                // Lemma 5 at dequeue time: this label was popped from the
                // first non-empty bucket, so all earlier buckets are
                // empty; if it covers all keywords and its τ-completion
                // fits the budget, it is a result route (Algorithm 2
                // lines 19–23 generalized to labels that entered a later
                // bucket than the then-current one).
                self.try_complete(item.id);
                if self.done() {
                    break;
                }
            }
            self.stats.labels_expanded += 1;
            self.expand(item.id);
        }
        Ok(std::mem::take(&mut self.top.items))
    }

    /// Label treatment (Definition 7) over all outgoing edges, plus the
    /// Optimization-Strategy-1 jump.
    fn expand(&mut self, id: u32) {
        let label = *self.arena.get(id);
        // `self.graph` is a plain `&'a Graph`, so copying the reference
        // out lets the adjacency iterator borrow the graph — not `self` —
        // and the CSR slices are walked in place with no per-expansion
        // `Vec` allocation.
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

    /// Creates, checks, and files one child label.
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

        // Algorithm 1 line 10, first two filters: the label must still be
        // able to produce a feasible route (budget via the min-budget
        // completion σ) that beats the bound (objective via the
        // min-objective completion τ). With `BucketBound`'s `U = +∞` the
        // second filter drops only labels whose `LOW` overflowed.
        if child.budget + self.ctx.bs_sigma(child.node) > self.query.budget {
            self.stats.labels_pruned += 1;
            return;
        }
        let u = self.bound();
        if child.objective + self.ctx.os_tau(child.node) >= u {
            self.stats.labels_pruned += 1;
            return;
        }
        // Optimization Strategy 2.
        if let Some(opt2) = &self.opt2 {
            let trees = &opt2.trees;
            if child.mask & opt2.bit_mask == 0
                && (child.budget + trees.bud_bound.budget(child.node) > self.query.budget
                    || child.objective + trees.obj_bound.objective(child.node) > u)
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

        if self.buckets.is_some() {
            // Algorithm 2 lines 19–23: a covering label created in the
            // bucket being drained is a result route (its dequeue-time
            // check in `run` handles labels filed in later buckets).
            if self.push_queue(id) {
                self.try_complete(id);
            }
        } else {
            // Algorithm 1 lines 16–20. With k = 1 a feasible completion
            // is the best this label can do (τ is the min-objective
            // completion), so it is not enqueued; for k > 1 further
            // extensions may yield additional routes.
            let completed = self.try_complete(id);
            if !completed || self.k > 1 {
                self.push_queue(id);
            }
        }
    }

    /// Optimization Strategy 1: jump to the nearest (by budget) node
    /// holding an uncovered query keyword, materializing the actual
    /// `σ_{i,j}` path so scores and coverage stay exact.
    fn opt1_jump(&mut self, id: u32) {
        let label = *self.arena.get(id);
        let reach = self.reach.as_ref().expect("opt1 enabled");
        let mut best: Option<(f64, u32)> = None;
        for (bit, _) in self.query.keywords.uncovered(label.mask) {
            if let Some((dist, j)) = reach.nearest(bit, label.node) {
                // Feasibility: jump there and still finish within budget.
                if label.budget + dist + self.ctx.bs_sigma(j) <= self.query.budget
                    && best.is_none_or(|(d, _)| dist < d)
                {
                    best = Some((dist, bit));
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
        // Fold the jump path into chained labels; only the terminal label
        // enters the store/queue, intermediates exist for reconstruction.
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

    /// Lines 16–19: if the label covers all keywords and its τ-completion
    /// fits the budget, offer the completed route to the result set.
    /// Returns whether a feasible completion existed.
    fn try_complete(&mut self, id: u32) -> bool {
        let label = *self.arena.get(id);
        if !self.query.keywords.is_covering(label.mask) {
            return false;
        }
        let tau = self.ctx.os_tau(label.node);
        if !tau.is_finite() {
            return false;
        }
        let budget = label.budget + self.ctx.bs_tau(label.node);
        if budget <= self.query.budget {
            let objective = label.objective + tau;
            if objective < self.top.bound() {
                let route = RouteResult {
                    route: Route::new(self.route_nodes(id)),
                    objective,
                    budget,
                };
                if self.top.insert(route) {
                    self.stats.upper_bound_updates += 1;
                }
            }
            true
        } else {
            false
        }
    }

    /// The node sequence `path(label) + τ(label.node, t)`.
    fn route_nodes(&self, id: u32) -> Vec<NodeId> {
        let label = self.arena.get(id);
        let mut nodes = self.arena.path_nodes(id);
        let completion = self
            .ctx
            .tau_route(label.node)
            .expect("candidates reach the target");
        nodes.extend_from_slice(&completion.nodes()[1..]);
        nodes
    }

    /// Queues a stored label — for `BucketBound`, files it under its
    /// bucket (Algorithm 2 lines 12–15). Returns whether it went into
    /// the heap being drained (always, without buckets).
    fn push_queue(&mut self, id: u32) -> bool {
        let label = *self.arena.get(id);
        let item = QItem {
            covered: label.mask.count_ones(),
            key: label.scaled,
            budget: label.budget,
            node: label.node.0,
            id,
        };
        self.stats.queue_pushes += 1;
        match &mut self.buckets {
            Some(b) => {
                let low = label.objective + self.ctx.os_tau(label.node);
                b.file(low, item, &mut self.heap, &mut self.stats)
            }
            None => {
                self.heap.push(item);
                true
            }
        }
    }

    fn record(&mut self, id: u32) {
        self.stats.labels_created += 1;
        if self.collect_labels {
            self.snapshots.push(LabelSnapshot::from(self.arena.get(id)));
        }
    }

    fn sync_store_stats(&mut self) {
        self.stats.labels_dominated = self.store.dominated_count();
        self.stats.labels_evicted = self.store.evicted_count();
    }
}

/// Builds Optimization-Strategy-2 state when the least frequent query
/// keyword is rare enough. The bound trees are pulled from the
/// pre-processing cache when one is supplied (keyed by `(target, kw)` —
/// the bit position is query-local and recomputed per call); the rarity
/// gate itself is a cheap index lookup and always runs.
#[allow(clippy::too_many_arguments)]
fn build_opt2(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    ctx: &QueryContext,
    threshold: f64,
    cache: Option<&PreprocessCache>,
    stats: &mut SearchStats,
) -> Option<Opt2> {
    let (kw, df) = index.least_frequent(query.keywords.ids())?;
    if graph.node_count() == 0 || df as f64 / graph.node_count() as f64 >= threshold {
        return None;
    }
    let bit = query.keywords.bit(kw)?;
    let trees = match cache {
        Some(cache) => {
            let (trees, hit) = cache.opt2_trees(graph, index, ctx, kw);
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
                stats.trees_built += 2;
            }
            trees
        }
        None => {
            stats.trees_built += 2;
            Arc::new(build_opt2_trees(graph, index, ctx, kw))
        }
    };
    Some(Opt2 {
        bit_mask: 1u64 << bit,
        trees,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{search_uncached, single, Algo, SearchRequest};
    use kor_graph::fixtures::{figure1, t, v};

    fn setup() -> (Graph, InvertedIndex) {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn ticker_first_tick_always_checks() {
        // Promptness invariant: an already-expired deadline must abort
        // on the very first pop — searches with fewer than
        // DEADLINE_STRIDE pops would otherwise never check at all.
        let mut ticker = DeadlineTicker::new(Some(Instant::now()));
        assert!(matches!(ticker.tick(), Err(KorError::DeadlineExceeded)));
    }

    #[test]
    fn ticker_without_deadline_never_errors() {
        let mut ticker = DeadlineTicker::new(None);
        for _ in 0..(3 * DEADLINE_STRIDE) {
            ticker.tick().expect("no deadline configured");
        }
    }

    #[test]
    fn ticker_rechecks_within_one_stride() {
        // A deadline that expires mid-search is noticed after at most
        // DEADLINE_STRIDE further pops: the first tick passes (the
        // deadline is still ahead), then once it lapses, some tick in
        // the next stride window must error.
        let mut ticker =
            DeadlineTicker::new(Some(Instant::now() + std::time::Duration::from_millis(30)));
        ticker.tick().expect("deadline still ahead");
        std::thread::sleep(std::time::Duration::from_millis(40));
        let erred = (0..DEADLINE_STRIDE).any(|_| ticker.tick().is_err());
        assert!(erred, "expired deadline survived a full stride window");
    }

    fn plain_params(epsilon: f64) -> OsScalingParams {
        OsScalingParams {
            epsilon,
            use_opt1: false,
            use_opt2: false,
            collect_labels: true,
            ..OsScalingParams::default()
        }
    }

    #[test]
    fn example2_returns_r1() {
        // Q = ⟨v0, v7, {t1, t2}, 10⟩, ε = 0.5 ⇒ R1 = ⟨v0,v2,v3,v4,v7⟩,
        // OS 6, BS 10.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0), v(2), v(3), v(4), v(7)]);
        assert_eq!(route.objective, 6.0);
        assert_eq!(route.budget, 10.0);
    }

    #[test]
    fn example2_scales_by_tau_st() {
        // τ(v0, v7) = 4, so θ = 0.5·4·1/10 = 1/5, not the paper's 1/20.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let engine = Engine::new(
            &g,
            &idx,
            &q,
            LabelAlgo::OsScaling,
            &plain_params(0.5),
            1,
            None,
        );
        let ScoreMode::Scaled(scaler) = engine.mode else {
            panic!("OSScaling scales")
        };
        assert_eq!(scaler.theta(), 0.2);
    }

    #[test]
    fn example2_table1_labels() {
        // The nine labels of Table 1 (ÔS at the paper's θ = 1/20) must
        // all be created.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let mut engine = Engine::new(
            &g,
            &idx,
            &q,
            LabelAlgo::OsScaling,
            &plain_params(0.5),
            1,
            None,
        )
        .with_scaler(Scaler::new(&g, 0.5, 10.0));
        engine.run(None).unwrap();
        let labels = &engine.snapshots;
        // (node, mask {t1=bit0, t2=bit1}, ÔS, OS, BS)
        let expected: [(u32, u64, u64, f64, f64); 9] = [
            (0, 0b00, 0, 0.0, 0.0),   // L00
            (1, 0b00, 80, 4.0, 1.0),  // L01
            (1, 0b01, 60, 3.0, 4.0),  // L11
            (2, 0b10, 20, 1.0, 3.0),  // L02
            (3, 0b01, 40, 2.0, 2.0),  // L03
            (3, 0b11, 80, 4.0, 5.0),  // L13
            (4, 0b01, 60, 3.0, 4.0),  // L04
            (5, 0b11, 100, 5.0, 4.0), // L05
            (6, 0b11, 40, 2.0, 4.0),  // L06 (created, then budget-pruned)
        ];
        for (node, mask, scaled, os, bs) in expected {
            assert!(
                labels.iter().any(|l| l.node == v(node)
                    && l.mask == mask
                    && l.scaled == scaled
                    && l.objective == os
                    && l.budget == bs),
                "missing label ({node}, {mask:#b}, {scaled}, {os}, {bs})\nhave: {labels:?}"
            );
        }
    }

    #[test]
    fn example2_with_optimizations_same_answer() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(OsScalingParams::default())).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.objective, 6.0);
        assert_eq!(route.budget, 10.0);
    }

    #[test]
    fn definition4_delta6() {
        // Q = ⟨v0, v7, {t1,t2,t3}, 6⟩ ⇒ ⟨v0,v3,v5,v7⟩ with OS 9, BS 5.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2), t(3)], 6.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0), v(3), v(5), v(7)]);
        assert_eq!(route.objective, 9.0);
        assert_eq!(route.budget, 5.0);
    }

    #[test]
    fn infeasible_when_budget_too_small() {
        let (g, idx) = setup();
        // The cheapest-budget covering route for {t1,t2} needs BS ≥ 5.
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 4.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        assert!(r.route.is_none());
    }

    #[test]
    fn infeasible_when_keyword_unreachable() {
        let (g, idx) = setup();
        // t5 lives only at v1, which has no outgoing edges: covering t5
        // strands the route.
        let q = KorQuery::new(&g, v(0), v(7), vec![t(5)], 100.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        assert!(r.route.is_none());
    }

    #[test]
    fn empty_keywords_degenerate_to_wcspp() {
        // Without keywords the answer is the min-objective path meeting Δ.
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0), v(3), v(4), v(7)]);
        assert_eq!(route.objective, 4.0);
        // With Δ = 6 the τ path (BS 7) is out; σ (OS 9, BS 5) wins.
        let q6 = KorQuery::new(&g, v(0), v(7), vec![], 6.0).unwrap();
        let r6 = single(&g, &idx, &q6, Algo::OsScaling(plain_params(0.5))).unwrap();
        assert_eq!(r6.route.unwrap().objective, 9.0);
    }

    #[test]
    fn source_equals_target_trivial() {
        let (g, idx) = setup();
        // v0 holds t3; querying t3 from v0 to v0 is satisfied by standing
        // still.
        let q = KorQuery::new(&g, v(0), v(0), vec![t(3)], 5.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.route.nodes(), &[v(0)]);
        assert_eq!(route.objective, 0.0);
        assert_eq!(route.budget, 0.0);
    }

    #[test]
    fn source_equals_target_requires_cycle() {
        let (g, idx) = setup();
        // From v5 back to v5 covering t4 (at v4): needs a cycle, but v5
        // is unreachable from v4's continuations ⇒ infeasible.
        let q = KorQuery::new(&g, v(5), v(5), vec![t(4)], 100.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        assert!(r.route.is_none());
    }

    #[test]
    fn unreachable_target_is_infeasible() {
        let (g, idx) = setup();
        // v1 has no outgoing edges; nothing reaches v0 either.
        let q = KorQuery::new(&g, v(1), v(7), vec![], 100.0).unwrap();
        assert!(single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5)))
            .unwrap()
            .route
            .is_none());
        let q2 = KorQuery::new(&g, v(7), v(0), vec![], 100.0).unwrap();
        assert!(single(&g, &idx, &q2, Algo::OsScaling(plain_params(0.5)))
            .unwrap()
            .route
            .is_none());
    }

    #[test]
    fn exact_labeling_matches_os_scaling_small_eps() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let exact = single(&g, &idx, &q, Algo::Exact).unwrap();
        let approx = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.01))).unwrap();
        assert_eq!(exact.route.as_ref().unwrap().objective, 6.0);
        assert_eq!(
            exact.route.unwrap().objective,
            approx.route.unwrap().objective
        );
    }

    #[test]
    fn approximation_bound_holds_on_fixture() {
        let (g, idx) = setup();
        for m in [vec![t(1)], vec![t(1), t(2)], vec![t(1), t(2), t(3)]] {
            for delta in [5.0, 6.0, 8.0, 10.0, 14.0] {
                let q = KorQuery::new(&g, v(0), v(7), m.clone(), delta).unwrap();
                let exact = single(&g, &idx, &q, Algo::Exact).unwrap();
                for eps in [0.1, 0.5, 0.9] {
                    let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(eps))).unwrap();
                    match (&exact.route, &r.route) {
                        (None, None) => {}
                        (Some(opt), Some(found)) => {
                            assert!(
                                found.objective <= opt.objective / (1.0 - eps) + 1e-9,
                                "eps={eps} delta={delta}: {} > {}/(1-{eps})",
                                found.objective,
                                opt.objective
                            );
                            assert!(found.budget <= delta + 1e-9);
                        }
                        (a, b) => panic!("feasibility disagreement: exact={a:?} approx={b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_returns_distinct_sorted_routes() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 12.0).unwrap();
        let top = |k| SearchRequest {
            k,
            ..SearchRequest::new(Algo::OsScaling(plain_params(0.2)))
        };
        let r = search_uncached(&g, &idx, &q, &top(3)).unwrap();
        assert!(!r.routes.is_empty());
        for w in r.routes.windows(2) {
            assert!(w[0].objective <= w[1].objective);
            assert_ne!(w[0].route.nodes(), w[1].route.nodes());
        }
        for route in &r.routes {
            assert!(route.budget <= 12.0 + 1e-9);
            let (os, bs) = route.route.scores(&g).unwrap();
            assert!((os - route.objective).abs() < 1e-9);
            assert!((bs - route.budget).abs() < 1e-9);
            assert!(route.route.covers(&g, &[t(1), t(2)]));
        }
        // k = 1 must agree with the single-route search.
        let best = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.2))).unwrap();
        let top1 = search_uncached(&g, &idx, &q, &top(1)).unwrap();
        assert_eq!(best.route.unwrap().objective, top1.routes[0].objective);
    }

    #[test]
    fn top_k_zero_is_error() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        let request = SearchRequest {
            k: 0,
            ..SearchRequest::new(Algo::OsScaling(OsScalingParams::default()))
        };
        assert!(matches!(
            search_uncached(&g, &idx, &q, &request),
            Err(KorError::InvalidK)
        ));
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![], 10.0).unwrap();
        assert!(matches!(
            single(&g, &idx, &q, Algo::OsScaling(plain_params(0.0))),
            Err(KorError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn returned_route_scores_verify_against_graph() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2), t(4)], 12.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(OsScalingParams::default())).unwrap();
        let route = r.route.expect("feasible");
        let (os, bs) = route.route.scores(&g).unwrap();
        assert!((os - route.objective).abs() < 1e-9);
        assert!((bs - route.budget).abs() < 1e-9);
        assert!(route.route.covers(&g, &[t(1), t(2), t(4)]));
        assert_eq!(route.route.nodes().first(), Some(&v(0)));
        assert_eq!(route.route.nodes().last(), Some(&v(7)));
    }

    #[test]
    fn stats_are_populated() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = single(&g, &idx, &q, Algo::OsScaling(plain_params(0.5))).unwrap();
        assert!(r.stats.labels_created >= 9);
        assert!(r.stats.labels_expanded > 0);
        assert!(r.stats.queue_pushes > 0);
        assert!(r.stats.upper_bound_updates >= 1);
    }
}
