//! The shared pre-processing cache.
//!
//! The paper's cost model assumes the `τ`/`σ` pre-processing is amortized
//! across queries, but a naive engine rebuilds it per call: every label
//! search starts with two full backward Dijkstras ([`QueryContext`]),
//! Optimization Strategy 2 runs two more, and the greedy heuristic runs a
//! forward Dijkstra from every waypoint it picks. Under serve/batch
//! traffic many queries share popular targets, keyword sets and
//! waypoints, so those trees are pure recomputation.
//!
//! [`PreprocessCache`] memoizes four tree families behind `Arc`-cloned
//! entries:
//!
//! * **query contexts** — the to-target `τ`/`σ` tree pair, keyed by the
//!   target node (identical for every query ending at that target);
//! * **Opt-2 bound trees** — the "through an infrequent-keyword node,
//!   then finish" lower-bound tree pair, keyed by `(target, keyword)`
//!   (the seed set is exactly the keyword's postings weighted by the
//!   target context, so the pair pins the trees down completely);
//! * **keyword reach trees** — the Optimization-Strategy-1 "nearest node
//!   holding this keyword" tree, keyed by the keyword alone (the seed
//!   set is the keyword's postings with zero potential — independent of
//!   the query's source, target, and budget, so one build serves every
//!   query mentioning the keyword);
//! * **forward `τ` trees** — greedy's from-waypoint minimum-objective
//!   tree (Equation 1's `τ_{i,j}` for every `j`), keyed by the source.
//!
//! Beside them sit the **landmark vectors** — the per-dataset ALT
//! distance vectors ([`kor_apsp::Landmarks`]), one singleton built
//! lazily by [`PreprocessCache::landmarks`]. No search reads them: the
//! label searches prune with the exact τ/σ distances alone. Benchmark
//! replay only; deleted with ROADMAP item 2.
//!
//! Every family goes through one lookup-or-build routine: one `Mutex`
//! around the memo tables, shared by any number of worker threads, with
//! the expensive tree construction performed *outside* the lock so
//! concurrent misses on different keys never serialize on Dijkstra.
//! Entries are evicted least-recently-used once a family exceeds the
//! capacity, bounding memory at roughly
//! `capacity × 6 trees × node_count × sizeof(SptNode)`.
//!
//! Cached and cold searches are byte-identical by construction: a cache
//! hit returns the same deterministic `Tree` values a fresh build would
//! produce (pinned down by the equivalence tests in
//! `tests/cache_equivalence.rs`).
//!
//! An edge-mutation batch does not empty the cache.
//! [`PreprocessCache::carry_over`] repairs every cached tree of every
//! family with [`Tree::repair`], which re-settles only the nodes the batch
//! can affect and yields exactly the tree a cold build on the mutated
//! graph would. Opt-2 seeds are re-derived from the repaired context.
//! Only the landmark singleton is dropped, and rebuilt only if
//! [`PreprocessCache::landmarks`] is called again.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use kor_apsp::{
    backward_tree, forward_tree, KeywordReach, Landmarks, Metric, QueryContext, Repair, Tree,
};
use kor_graph::{EdgeMutation, Graph, KeywordId, NodeId};
use kor_index::InvertedIndex;

/// The two Optimization-Strategy-2 lower-bound trees for one
/// `(target, infrequent keyword)` pair.
///
/// Seeds carry the to-target completion as initial potential, so each
/// tree bounds "reach an infrequent-keyword node, then finish at the
/// target" (objective-side and budget-side respectively).
#[derive(Debug)]
pub struct Opt2Trees {
    /// Objective lower bound through an infrequent-keyword node.
    pub obj_bound: Tree,
    /// Budget lower bound through an infrequent-keyword node.
    pub bud_bound: Tree,
}

/// A list of tree seeds: `(node, objective potential, budget potential)`.
type Seeds = Vec<(NodeId, f64, f64)>;

/// The seeds of the Opt-2 pair over `postings` under `ctx`: each posting
/// that reaches the target, weighted by its `τ` (objective tree) and `σ`
/// (budget tree) completion.
fn opt2_seeds(postings: &[NodeId], ctx: &QueryContext) -> (Seeds, Seeds) {
    let mut obj_seeds = Vec::new();
    let mut bud_seeds = Vec::new();
    for &l in postings {
        if let Some(tau) = ctx.tau_to_target(l) {
            obj_seeds.push((l, tau.objective, tau.budget));
        }
        if let Some(sigma) = ctx.sigma_to_target(l) {
            bud_seeds.push((l, sigma.objective, sigma.budget));
        }
    }
    (obj_seeds, bud_seeds)
}

/// Builds the Opt-2 tree pair for `kw` under `ctx`'s target.
pub(crate) fn build_opt2_trees(
    graph: &Graph,
    index: &InvertedIndex,
    ctx: &QueryContext,
    kw: KeywordId,
) -> Opt2Trees {
    let (obj_seeds, bud_seeds) = opt2_seeds(index.postings(kw), ctx);
    Opt2Trees {
        obj_bound: backward_tree(graph, Metric::Objective, &obj_seeds),
        bud_bound: backward_tree(graph, Metric::Budget, &bud_seeds),
    }
}

/// What one mutation batch ([`crate::KorEngine::apply_edge_mutations`])
/// did to the warm state: the new graph epoch plus retain/evict counts
/// per cache family, as filled in by [`PreprocessCache::carry_over`].
///
/// An entry is *retained* when it is carried warm into the new cache,
/// unchanged or repaired. An entry is *evicted* only when it cannot be
/// repaired: an Opt-2 pair whose target context has left the cache
/// (the LRU cap dropped it) has no context to re-derive its seeds from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationReport {
    /// Epoch of the mutated graph (old epoch + 1).
    pub epoch: u64,
    /// Query contexts carried over warm.
    pub contexts_retained: usize,
    /// Query contexts dropped (always 0: every context is repaired).
    pub contexts_evicted: usize,
    /// Opt-2 tree pairs carried over warm.
    pub opt2_retained: usize,
    /// Opt-2 tree pairs dropped because their target context was gone.
    pub opt2_evicted: usize,
    /// Keyword reach trees carried over warm.
    pub reach_retained: usize,
    /// Keyword reach trees dropped (always 0).
    pub reach_evicted: usize,
    /// Greedy forward trees carried over warm.
    pub pair_trees_retained: usize,
    /// Greedy forward trees dropped (always 0).
    pub pair_trees_evicted: usize,
    /// Trees (all four families) the batch changed and the repair
    /// brought up to date; trees it left unchanged are not counted.
    pub trees_repaired: usize,
    /// Trees rebuilt cold because the repair's canonical form did not
    /// hold for them (see [`Tree::repair`]).
    pub trees_rebuilt: usize,
}

impl MutationReport {
    /// Total entries (all families) that survived the batch warm.
    pub fn total_retained(&self) -> usize {
        self.contexts_retained + self.opt2_retained + self.reach_retained + self.pair_trees_retained
    }

    /// Total entries (all families) evicted by the batch.
    pub fn total_evicted(&self) -> usize {
        self.contexts_evicted + self.opt2_evicted + self.reach_evicted + self.pair_trees_evicted
    }
}

/// Point-in-time counters describing cache effectiveness.
///
/// The hit/miss, `trees_built`, `invalidated` and `retained` counters
/// describe the label-search families (contexts, Opt-2 pairs, reach
/// trees); greedy's forward trees show up only in `evictions`, in
/// [`PreprocessCache::forward_entries`] and in [`MutationReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Query-context lookups answered from the cache.
    pub ctx_hits: u64,
    /// Query-context lookups that had to build trees.
    pub ctx_misses: u64,
    /// Opt-2 tree lookups answered from the cache.
    pub opt2_hits: u64,
    /// Opt-2 tree lookups that had to build trees.
    pub opt2_misses: u64,
    /// Keyword reach-tree lookups answered from the cache.
    pub reach_hits: u64,
    /// Keyword reach-tree lookups that had to build a tree.
    pub reach_misses: u64,
    /// Entries removed by the LRU cap (all families alike).
    ///
    /// **Exclusive** with `invalidated`: one removed entry increments
    /// exactly one of the two counters. [`PreprocessCache::carry_over`]
    /// drops the entries it cannot repair first — they count only
    /// there, under `invalidated` — and applies the LRU cap only to the
    /// carried entries, so no entry is counted twice.
    pub evictions: u64,
    /// Dijkstra trees built on behalf of the label searches (two per
    /// context miss, two per Opt-2 miss, one per reach miss — including
    /// builds that lost a concurrent race and were discarded). Landmark
    /// builds are tracked separately in `landmark_trees_built`:
    /// query-serving trees and dataset-level ALT vectors have different
    /// lifecycles, and conflating them would make "no per-query rebuild
    /// happened" unobservable.
    pub trees_built: u64,
    /// Dijkstra trees built for the landmark (ALT) singleton: four per
    /// landmark (forward + backward × objective + budget). Only
    /// [`PreprocessCache::landmarks`] builds them, never a search, so a
    /// serving engine reads 0. Benchmark replay only; deleted with
    /// ROADMAP item 2.
    pub landmark_trees_built: u64,
    /// Label-search entries a mutation batch dropped because they could
    /// not be repaired ([`PreprocessCache::carry_over`]): Opt-2 pairs
    /// whose target context had left the cache. Distinct from — and
    /// exclusive with — `evictions`, which counts the LRU cap (see
    /// `evictions`).
    pub invalidated: u64,
    /// Label-search entries carried warm across mutation batches,
    /// unchanged or repaired (one count per entry per batch).
    pub retained: u64,
}

impl CacheStats {
    /// Fraction of all lookups answered from the cache (`0.0` when no
    /// lookup has happened yet).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.ctx_hits + self.opt2_hits + self.reach_hits;
        let total = hits + self.ctx_misses + self.opt2_misses + self.reach_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// One memoized entry plus its LRU clock value.
struct Slot<T> {
    value: Arc<T>,
    last_used: u64,
}

// By hand: a derive would demand `T: Clone`, but only the `Arc` is cloned.
impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Self {
            value: self.value.clone(),
            last_used: self.last_used,
        }
    }
}

/// One tree family: its memoized entries and its lookup counters.
struct Family<K, T> {
    slots: HashMap<K, Slot<T>>,
    hits: u64,
    misses: u64,
}

impl<K: Hash + Eq + Copy, T> Family<K, T> {
    fn new() -> Self {
        Self {
            slots: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// A copy sharing every entry, with the counters carried.
    fn share(&self) -> Self {
        Self {
            slots: self.slots.clone(),
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// The entry for `key`, if cached (no LRU touch).
    fn get(&self, key: &K) -> Option<&Arc<T>> {
        self.slots.get(key).map(|slot| &slot.value)
    }

    /// Replaces every entry by `repair(key, entry)` and drops the
    /// entries it returns `None` for; returns the `(kept, dropped)`
    /// counts.
    fn repair_each(
        &mut self,
        mut repair: impl FnMut(&K, &Arc<T>) -> Option<Arc<T>>,
    ) -> (usize, usize) {
        let before = self.slots.len();
        self.slots
            .retain(|key, slot| match repair(key, &slot.value) {
                Some(value) => {
                    slot.value = value;
                    true
                }
                None => false,
            });
        (self.slots.len(), before - self.slots.len())
    }

    /// Removes least-recently-used entries until the family fits
    /// `capacity`; returns how many were removed.
    fn evict_lru(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.slots.len() > capacity {
            let oldest = self
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(&k, _)| k)
                .expect("family is non-empty");
            self.slots.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

struct Inner {
    /// Monotone logical clock for LRU ordering.
    tick: u64,
    /// `(node_count, edge_count)` of the graph this cache serves, pinned
    /// on first use. Keys are plain `NodeId`s, so trees from one graph
    /// would silently answer queries on another — a shape mismatch is a
    /// caller bug and panics instead.
    graph_shape: Option<(usize, usize)>,
    contexts: Family<NodeId, QueryContext>,
    opt2: Family<(NodeId, KeywordId), Opt2Trees>,
    reach: Family<KeywordId, Tree>,
    /// Greedy's forward `τ` trees, keyed by source.
    forward: Family<NodeId, Tree>,
    /// Per-dataset landmark (ALT) vectors: a singleton, so no LRU slot.
    /// Benchmark replay only; deleted with ROADMAP item 2.
    landmarks: Option<Arc<Landmarks>>,
    /// The [`CacheStats`] counters no single family owns.
    evictions: u64,
    trees_built: u64,
    landmark_trees_built: u64,
    invalidated: u64,
    retained: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Pins the cache to `graph` on first use; panics if a later lookup
    /// arrives with a different graph shape.
    fn check_graph(&mut self, graph: &Graph) {
        let shape = (graph.node_count(), graph.edge_count());
        match self.graph_shape {
            None => self.graph_shape = Some(shape),
            Some(bound) => assert_eq!(
                bound, shape,
                "PreprocessCache is bound to one graph: cached trees for a \
                 {bound:?} (nodes, edges) graph cannot answer queries on a \
                 {shape:?} graph — use one cache per dataset"
            ),
        }
    }
}

/// The keys a [`PreprocessCache`] holds, per tree family, each sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CachedKeys {
    /// Targets of the cached query contexts.
    pub contexts: Vec<NodeId>,
    /// `(target, keyword)` keys of the cached Opt-2 pairs.
    pub opt2: Vec<(NodeId, KeywordId)>,
    /// Keywords of the cached reach trees.
    pub reach: Vec<KeywordId>,
    /// Sources of the cached greedy forward trees.
    pub forward: Vec<NodeId>,
}

/// Runs [`Tree::repair`] over the entries a mutation batch carries and
/// counts the outcomes.
struct Repairer<'a> {
    graph: &'a Graph,
    mutations: &'a [EdgeMutation],
    repaired: usize,
    rebuilt: usize,
}

impl Repairer<'_> {
    /// `tree` brought up to date with the mutated graph, or `None` when
    /// the batch left it unchanged.
    fn tree(
        &mut self,
        tree: &Tree,
        new_seeds: &[(NodeId, f64, f64)],
        old_seeds: &[(NodeId, f64, f64)],
    ) -> Option<Tree> {
        match tree.repair(self.graph, new_seeds, old_seeds, self.mutations) {
            Repair::Unchanged => None,
            Repair::Repaired(tree) => {
                self.repaired += 1;
                Some(tree)
            }
            Repair::Rebuilt(tree) => {
                self.rebuilt += 1;
                Some(tree)
            }
        }
    }
}

/// Thread-safe, LRU-capped cache of per-query pre-processing products.
///
/// See the module documentation for the design. One cache per
/// dataset is meant to be shared by reference across worker threads;
/// [`crate::KorEngine`] owns one and threads it through every search
/// automatically.
pub struct PreprocessCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for PreprocessCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("PreprocessCache")
            .field("capacity", &self.capacity)
            .field("contexts", &inner.contexts.slots.len())
            .field("opt2", &inner.opt2.slots.len())
            .field("reach", &inner.reach.slots.len())
            .field("forward", &inner.forward.slots.len())
            .field("landmarks", &inner.landmarks.is_some())
            .finish()
    }
}

impl Default for PreprocessCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PreprocessCache {
    /// Default number of entries kept warm per tree family.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A cache with [`Self::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` entries in each tree family
    /// (query contexts, Opt-2 pairs, reach trees and forward trees are
    /// capped independently).
    ///
    /// # Panics
    ///
    /// If `capacity` is zero — a zero-capacity cache would thrash on
    /// every lookup; pass no cache instead.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be ≥ 1");
        Self {
            capacity,
            inner: Mutex::new(Inner {
                tick: 0,
                graph_shape: None,
                contexts: Family::new(),
                opt2: Family::new(),
                reach: Family::new(),
                forward: Family::new(),
                landmarks: None,
                evictions: 0,
                trees_built: 0,
                landmark_trees_built: 0,
                invalidated: 0,
                retained: 0,
            }),
        }
    }

    /// The configured per-family entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The one lookup-or-build routine every tree family runs through.
    ///
    /// Looks `key` up in the family `select` picks and returns the
    /// shared entry and whether this lookup was a hit. On a miss the
    /// entry is built *outside* the lock; when two threads miss the
    /// same key concurrently, the first insert wins and the loser adopts
    /// it and drops its own build (both count as misses). The family's
    /// least-recently-used overflow is then evicted. `trees` is what one
    /// build adds to `trees_built`.
    ///
    /// # Panics
    ///
    /// If `graph` differs in shape from the graph this cache served
    /// first — one cache serves exactly one dataset.
    fn lookup_or_build<K: Hash + Eq + Copy, T>(
        &self,
        graph: &Graph,
        select: fn(&mut Inner) -> &mut Family<K, T>,
        key: K,
        trees: u64,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        {
            let mut guard = self.inner.lock().unwrap();
            let inner = &mut *guard;
            inner.check_graph(graph);
            let tick = inner.next_tick();
            let family = select(inner);
            if let Some(slot) = family.slots.get_mut(&key) {
                slot.last_used = tick;
                family.hits += 1;
                return (slot.value.clone(), true);
            }
        }
        let built = Arc::new(build());
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let tick = inner.next_tick();
        inner.trees_built += trees;
        let family = select(inner);
        family.misses += 1;
        let value = match family.slots.entry(key) {
            Entry::Occupied(mut e) => {
                // A concurrent miss inserted first; converge on its trees
                // so every holder shares one allocation.
                e.get_mut().last_used = tick;
                e.get().value.clone()
            }
            Entry::Vacant(e) => {
                e.insert(Slot {
                    value: built.clone(),
                    last_used: tick,
                });
                built
            }
        };
        let evicted = family.evict_lru(self.capacity);
        inner.evictions += evicted;
        (value, false)
    }

    /// The to-target context for `target`, built on first use.
    ///
    /// Returns the shared context and whether this lookup was a hit.
    ///
    /// # Panics
    ///
    /// If `graph` differs in shape from the graph this cache served
    /// first — one cache serves exactly one dataset.
    pub fn context(&self, graph: &Graph, target: NodeId) -> (Arc<QueryContext>, bool) {
        self.lookup_or_build(
            graph,
            |i| &mut i.contexts,
            target,
            2,
            || QueryContext::new(graph, target),
        )
    }

    /// The Opt-2 bound-tree pair for `(target, kw)`, built on first use
    /// from `ctx` (which must be the context for the same target).
    ///
    /// # Panics
    ///
    /// As [`Self::context`].
    pub fn opt2_trees(
        &self,
        graph: &Graph,
        index: &InvertedIndex,
        ctx: &QueryContext,
        kw: KeywordId,
    ) -> (Arc<Opt2Trees>, bool) {
        let key = (ctx.target(), kw);
        self.lookup_or_build(
            graph,
            |i| &mut i.opt2,
            key,
            2,
            || build_opt2_trees(graph, index, ctx, kw),
        )
    }

    /// The Optimization-Strategy-1 reach tree for `kw`, built on first
    /// use from `postings` (which must be `kw`'s posting list from the
    /// inverted index — the tree is fully determined by it).
    ///
    /// # Panics
    ///
    /// As [`Self::context`].
    pub fn reach_tree(
        &self,
        graph: &Graph,
        kw: KeywordId,
        postings: &[NodeId],
    ) -> (Arc<Tree>, bool) {
        self.lookup_or_build(
            graph,
            |i| &mut i.reach,
            kw,
            1,
            || KeywordReach::build_tree(graph, postings),
        )
    }

    /// Greedy's forward `τ` tree from `source` — the minimum-objective
    /// paths `τ_{source,j}` to every node `j` — built on first use.
    ///
    /// Forward trees stay out of the label-search counters
    /// (`trees_built`, the hit rate, `invalidated`, `retained`); they
    /// count in `evictions` like every family, in
    /// [`Self::forward_entries`], and in a [`MutationReport`]'s
    /// `pair_trees_*`.
    ///
    /// # Panics
    ///
    /// As [`Self::context`].
    pub fn forward_tree(&self, graph: &Graph, source: NodeId) -> (Arc<Tree>, bool) {
        self.lookup_or_build(
            graph,
            |i| &mut i.forward,
            source,
            0,
            || forward_tree(graph, Metric::Objective, source),
        )
    }

    /// The per-dataset landmark (ALT) distance vectors, built lazily on
    /// first use (`4 × DEFAULT_LANDMARKS` Dijkstras) and shared by every
    /// call thereafter. No search calls this. Benchmark replay only;
    /// deleted with ROADMAP item 2.
    ///
    /// # Panics
    ///
    /// As [`Self::context`].
    pub fn landmarks(&self, graph: &Graph) -> (Arc<Landmarks>, bool) {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.check_graph(graph);
            if let Some(lm) = &inner.landmarks {
                return (lm.clone(), true);
            }
        }
        let built = Arc::new(Landmarks::build(graph, kor_apsp::DEFAULT_LANDMARKS));
        let mut inner = self.inner.lock().unwrap();
        inner.landmark_trees_built += 4 * built.len() as u64;
        // Converge on a concurrent build if one landed first.
        let value = inner.landmarks.get_or_insert(built).clone();
        (value, false)
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            ctx_hits: inner.contexts.hits,
            ctx_misses: inner.contexts.misses,
            opt2_hits: inner.opt2.hits,
            opt2_misses: inner.opt2.misses,
            reach_hits: inner.reach.hits,
            reach_misses: inner.reach.misses,
            evictions: inner.evictions,
            trees_built: inner.trees_built,
            landmark_trees_built: inner.landmark_trees_built,
            invalidated: inner.invalidated,
            retained: inner.retained,
        }
    }

    /// Number of query contexts currently cached.
    pub fn context_entries(&self) -> usize {
        self.inner.lock().unwrap().contexts.slots.len()
    }

    /// Number of Opt-2 tree pairs currently cached.
    pub fn opt2_entries(&self) -> usize {
        self.inner.lock().unwrap().opt2.slots.len()
    }

    /// Number of greedy forward trees currently cached.
    pub fn forward_entries(&self) -> usize {
        self.inner.lock().unwrap().forward.slots.len()
    }

    /// The keys currently cached in each tree family, sorted (for
    /// instrumentation and the mutation property tests).
    pub fn cached_keys(&self) -> CachedKeys {
        fn sorted<K: Copy + Ord, T>(family: &Family<K, T>) -> Vec<K> {
            let mut keys: Vec<K> = family.slots.keys().copied().collect();
            keys.sort();
            keys
        }
        let inner = self.inner.lock().unwrap();
        CachedKeys {
            contexts: sorted(&inner.contexts),
            opt2: sorted(&inner.opt2),
            reach: sorted(&inner.reach),
            forward: sorted(&inner.forward),
        }
    }

    /// Rebinds the cache to `new_graph`, the graph `mutations` produced
    /// from the graph this cache served, by repairing every cached tree
    /// ([`Tree::repair`]) instead of evicting it. `index` is the
    /// keyword index of either graph (edge mutations leave keywords
    /// alone); reach trees and Opt-2 pairs take their seeds from it.
    ///
    /// Contexts are repaired first; each Opt-2 pair then takes its new
    /// seed potentials from its target's repaired context and its old
    /// ones from the old context. An Opt-2 pair whose context has left
    /// the cache is dropped and counted in `opt2_evicted`; every other
    /// entry is carried. Carried entries are bit-for-bit what a cold
    /// build on the mutated graph would produce. The new graph must have
    /// the same node count as the old one.
    ///
    /// The lock on `self` is held only to share its slot tables; the
    /// repairs run outside it, on the calling thread, so queries on the
    /// old cache keep flowing. The returned cache is pinned to the
    /// mutated graph's shape and carries the cumulative counters
    /// forward, with `invalidated` / `retained` updated. The report
    /// carries `new_graph`'s epoch and the per-family counts. `self` is
    /// left untouched, still answering for the old graph.
    pub fn carry_over(
        &self,
        new_graph: &Graph,
        index: &InvertedIndex,
        mutations: &[EdgeMutation],
    ) -> (PreprocessCache, MutationReport) {
        let mut next = {
            let inner = self.inner.lock().unwrap();
            Inner {
                tick: inner.tick,
                graph_shape: Some((new_graph.node_count(), new_graph.edge_count())),
                contexts: inner.contexts.share(),
                opt2: inner.opt2.share(),
                reach: inner.reach.share(),
                forward: inner.forward.share(),
                // Landmark vectors are distance tables over the *old*
                // weights: a carried entry could overestimate a shortened
                // distance and silently break admissibility, so the
                // singleton is always dropped and lazily rebuilt.
                landmarks: None,
                evictions: inner.evictions,
                trees_built: inner.trees_built,
                landmark_trees_built: inner.landmark_trees_built,
                invalidated: inner.invalidated,
                retained: inner.retained,
            }
        };
        let mut fix = Repairer {
            graph: new_graph,
            mutations,
            repaired: 0,
            rebuilt: 0,
        };
        let old_contexts = next.contexts.share();
        let (contexts_retained, contexts_evicted) = next.contexts.repair_each(|&t, ctx| {
            let seeds = [(t, 0.0, 0.0)];
            let tau = fix.tree(ctx.tau_tree(), &seeds, &seeds);
            let sigma = fix.tree(ctx.sigma_tree(), &seeds, &seeds);
            Some(match (tau, sigma) {
                (None, None) => ctx.clone(),
                (tau, sigma) => Arc::new(QueryContext::from_trees(
                    t,
                    tau.unwrap_or_else(|| ctx.tau_tree().clone()),
                    sigma.unwrap_or_else(|| ctx.sigma_tree().clone()),
                )),
            })
        });
        let (opt2_retained, opt2_evicted) = next.opt2.repair_each(|&(t, kw), pair| {
            let (old_ctx, new_ctx) = (old_contexts.get(&t)?, next.contexts.get(&t)?);
            let (old_obj, old_bud) = opt2_seeds(index.postings(kw), old_ctx);
            let (new_obj, new_bud) = opt2_seeds(index.postings(kw), new_ctx);
            let obj = fix.tree(&pair.obj_bound, &new_obj, &old_obj);
            let bud = fix.tree(&pair.bud_bound, &new_bud, &old_bud);
            Some(match (obj, bud) {
                (None, None) => pair.clone(),
                (obj, bud) => Arc::new(Opt2Trees {
                    obj_bound: obj.unwrap_or_else(|| pair.obj_bound.clone()),
                    bud_bound: bud.unwrap_or_else(|| pair.bud_bound.clone()),
                }),
            })
        });
        let (reach_retained, reach_evicted) = next.reach.repair_each(|&kw, tree| {
            let seeds = KeywordReach::seeds(index.postings(kw));
            Some(
                fix.tree(tree, &seeds, &seeds)
                    .map_or_else(|| tree.clone(), Arc::new),
            )
        });
        let (pair_trees_retained, pair_trees_evicted) = next.forward.repair_each(|&s, tree| {
            let seeds = [(s, 0.0, 0.0)];
            Some(
                fix.tree(tree, &seeds, &seeds)
                    .map_or_else(|| tree.clone(), Arc::new),
            )
        });
        let report = MutationReport {
            epoch: new_graph.epoch(),
            contexts_retained,
            contexts_evicted,
            opt2_retained,
            opt2_evicted,
            reach_retained,
            reach_evicted,
            pair_trees_retained,
            pair_trees_evicted,
            trees_repaired: fix.repaired,
            trees_rebuilt: fix.rebuilt,
        };
        next.invalidated += (contexts_evicted + opt2_evicted + reach_evicted) as u64;
        next.retained += (contexts_retained + opt2_retained + reach_retained) as u64;
        // Counter exclusivity (`evictions` vs `invalidated`): dropped
        // entries were counted once above, as invalidated; the LRU cap
        // runs only over the carried entries. The families cannot
        // normally exceed the cap here (carry-over never grows them),
        // but enforcing it keeps the invariant local rather than
        // depending on every caller's history.
        next.evictions += next.contexts.evict_lru(self.capacity)
            + next.opt2.evict_lru(self.capacity)
            + next.reach.evict_lru(self.capacity)
            + next.forward.evict_lru(self.capacity);
        let cache = PreprocessCache {
            capacity: self.capacity,
            inner: Mutex::new(next),
        };
        (cache, report)
    }

    /// Drops every cached entry (counters are kept). The graph binding
    /// is released too: with no stale trees left, the cache may serve a
    /// different dataset afterwards.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.contexts.slots.clear();
        inner.opt2.slots.clear();
        inner.reach.slots.clear();
        inner.forward.slots.clear();
        inner.landmarks = None;
        inner.graph_shape = None;
    }
}

// Worker threads share one cache per dataset; a regression to
// `Send`/`Sync` must fail the build here, not at distant call sites.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreprocessCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, v};

    /// A batch that doubles the budget of `g`'s edge `from → to`, and
    /// the graph it produces.
    fn touch(g: &Graph, from: NodeId, to: NodeId) -> (Graph, [EdgeMutation; 1]) {
        let batch = [EdgeMutation::scale(from, to, 1.0, 2.0)];
        (g.apply_mutations(&batch).unwrap(), batch)
    }

    #[test]
    fn context_is_memoized_and_shared() {
        let g = figure1();
        let cache = PreprocessCache::new();
        let (a, hit_a) = cache.context(&g, v(7));
        let (b, hit_b) = cache.context(&g, v(7));
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same allocation");
        let s = cache.stats();
        assert_eq!((s.ctx_hits, s.ctx_misses, s.trees_built), (1, 1, 2));
        assert_eq!(cache.context_entries(), 1);
    }

    #[test]
    fn cached_context_matches_cold_build() {
        let g = figure1();
        let cache = PreprocessCache::new();
        let (warm, _) = cache.context(&g, v(7));
        let cold = QueryContext::new(&g, v(7));
        for n in g.nodes() {
            assert_eq!(warm.os_tau(n).to_bits(), cold.os_tau(n).to_bits());
            assert_eq!(warm.bs_tau(n).to_bits(), cold.bs_tau(n).to_bits());
            assert_eq!(warm.bs_sigma(n).to_bits(), cold.bs_sigma(n).to_bits());
            assert_eq!(warm.os_sigma(n).to_bits(), cold.os_sigma(n).to_bits());
        }
    }

    #[test]
    fn lru_evicts_oldest_target() {
        let g = figure1();
        let cache = PreprocessCache::with_capacity(2);
        cache.context(&g, v(5));
        cache.context(&g, v(6));
        // Touch v5 so v6 becomes the LRU entry.
        cache.context(&g, v(5));
        cache.context(&g, v(7));
        assert_eq!(cache.context_entries(), 2);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        // v5 and v7 survive: v5 hits, v6 re-misses.
        assert!(cache.context(&g, v(5)).1);
        assert!(!cache.context(&g, v(6)).1);
    }

    #[test]
    fn opt2_trees_memoized_per_target_and_keyword() {
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        let (ctx, _) = cache.context(&g, v(7));
        let (a, hit_a) = cache.opt2_trees(&g, &index, &ctx, t(1));
        let (b, hit_b) = cache.opt2_trees(&g, &index, &ctx, t(1));
        let (_, hit_c) = cache.opt2_trees(&g, &index, &ctx, t(2));
        assert!(!hit_a && hit_b && !hit_c);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.opt2_entries(), 2);
        let s = cache.stats();
        assert_eq!((s.opt2_hits, s.opt2_misses), (1, 2));
        // 1 ctx miss + 2 opt2 misses = 6 trees.
        assert_eq!(s.trees_built, 6);
    }

    #[test]
    fn hit_rate_counts_both_kinds() {
        let g = figure1();
        let cache = PreprocessCache::new();
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.context(&g, v(7));
        cache.context(&g, v(7));
        cache.context(&g, v(7));
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_keeps_counters() {
        let g = figure1();
        let cache = PreprocessCache::new();
        cache.context(&g, v(7));
        cache.clear();
        assert_eq!(cache.context_entries(), 0);
        assert_eq!(cache.stats().ctx_misses, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be ≥ 1")]
    fn zero_capacity_panics() {
        let _ = PreprocessCache::with_capacity(0);
    }

    #[test]
    #[should_panic(expected = "bound to one graph")]
    fn sharing_across_graphs_panics() {
        use kor_graph::GraphBuilder;
        let a = figure1();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["a"]);
        let y = b.add_node(["b"]);
        b.add_edge(x, y, 1.0, 1.0).unwrap();
        let b = b.build().unwrap();
        let cache = PreprocessCache::new();
        cache.context(&a, v(7));
        // Same NodeId namespace, different graph: must panic, not
        // silently answer with figure1's trees.
        cache.context(&b, x);
    }

    #[test]
    fn reach_tree_memoized_per_keyword() {
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        let (a, hit_a) = cache.reach_tree(&g, t(1), index.postings(t(1)));
        let (b, hit_b) = cache.reach_tree(&g, t(1), index.postings(t(1)));
        let (_, hit_c) = cache.reach_tree(&g, t(2), index.postings(t(2)));
        assert!(!hit_a && hit_b && !hit_c);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.reach_hits, s.reach_misses, s.trees_built), (1, 2, 2));
    }

    #[test]
    fn cached_reach_tree_matches_cold_build() {
        use kor_apsp::KeywordReach;
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        let (warm, _) = cache.reach_tree(&g, t(1), index.postings(t(1)));
        let cold = KeywordReach::build_tree(&g, index.postings(t(1)));
        for n in g.nodes() {
            assert_eq!(warm.budget(n).to_bits(), cold.budget(n).to_bits());
            assert_eq!(warm.objective(n).to_bits(), cold.objective(n).to_bits());
        }
    }

    #[test]
    fn landmarks_are_a_shared_singleton() {
        let g = figure1();
        let cache = PreprocessCache::new();
        let (a, hit_a) = cache.landmarks(&g);
        let (b, hit_b) = cache.landmarks(&g);
        assert!(!hit_a && hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.is_empty());
        // 4 Dijkstras per landmark were accounted for — in their own
        // counter, not the query-tree one.
        assert_eq!(cache.stats().landmark_trees_built, 4 * a.len() as u64);
        assert_eq!(cache.stats().trees_built, 0);
    }

    /// Mutation-driven invalidation and the LRU cap must be **exclusive**
    /// counters — one removed entry bumps exactly one.
    #[test]
    fn invalidation_and_lru_counters_are_exclusive() {
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = InvertedIndex::build(&g);
        let cache = PreprocessCache::with_capacity(1);
        let (ctx, _) = cache.context(&g, v(7));
        cache.opt2_trees(&g, &index, &ctx, t(1));
        // The cap drops v7's context but keeps its Opt-2 pair, which is
        // left without the context its seeds come from.
        cache.context(&g, v(4));
        assert_eq!(cache.stats().evictions, 1);
        let (g2, batch) = touch(&g, v(4), v(7));
        let (warm, report) = cache.carry_over(&g2, &index, &batch);
        assert_eq!((report.opt2_retained, report.opt2_evicted), (0, 1));
        assert_eq!((report.contexts_retained, report.contexts_evicted), (1, 0));
        let s = warm.stats();
        assert_eq!(s.invalidated, 1, "the orphaned pair counts as invalidated");
        assert_eq!(s.evictions, 1, "…and never also as an LRU eviction");
        assert_eq!(s.retained, 1);
    }

    /// The LRU cap applies to the carried entries, and what it removes
    /// counts as evictions, never as invalidations.
    #[test]
    fn carry_over_applies_cap_to_survivors_only() {
        let g = figure1();
        let cache = PreprocessCache::with_capacity(3);
        cache.context(&g, v(5));
        cache.context(&g, v(6));
        cache.context(&g, v(7));
        // Shrink the cap in place: the maps now exceed it, which is the
        // only way the defensive cap path can fire.
        let cache = PreprocessCache {
            capacity: 1,
            inner: cache.inner,
        };
        let (g2, batch) = touch(&g, v(4), v(7));
        let (warm, report) = cache.carry_over(&g2, &InvertedIndex::build(&g2), &batch);
        // Every context is repaired and carried…
        assert_eq!((report.contexts_retained, report.contexts_evicted), (3, 0));
        let s = warm.stats();
        assert_eq!(s.invalidated, 0);
        // …and the cap then trims the two least recently used.
        assert_eq!(s.evictions, 2);
        assert_eq!(warm.context_entries(), 1);
        assert!(warm.context(&g2, v(7)).1, "the most recent context stays");
    }

    #[test]
    fn lru_pressure_bumps_only_evictions() {
        let g = figure1();
        let cache = PreprocessCache::with_capacity(1);
        cache.context(&g, v(6));
        cache.context(&g, v(7)); // evicts v6 by cap
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.invalidated, 0);
        assert_eq!(s.retained, 0);
    }

    #[test]
    fn carry_over_drops_landmarks_and_keeps_clean_reach_trees() {
        use kor_graph::fixtures::t;
        let g = figure1();
        let index = kor_index::InvertedIndex::build(&g);
        let cache = PreprocessCache::new();
        cache.landmarks(&g);
        cache.reach_tree(&g, t(1), index.postings(t(1)));
        // t1's reach tree covers the nodes that reach {v3, v6}; v1
        // reaches neither (no out-edges), so the edge into v1 leaves the
        // tree as it was.
        let (g2, batch) = touch(&g, v(3), v(1));
        let (warm, report) = cache.carry_over(&g2, &index, &batch);
        assert_eq!((report.reach_retained, report.reach_evicted), (1, 0));
        assert_eq!(report.trees_repaired, 0);
        let (_, reach_hit) = warm.reach_tree(&g2, t(1), index.postings(t(1)));
        assert!(reach_hit, "clean reach tree carried over warm");
        let (_, lm_hit) = warm.landmarks(&g2);
        assert!(!lm_hit, "landmarks must always rebuild after mutations");
    }

    #[test]
    fn clear_releases_graph_binding() {
        use kor_graph::GraphBuilder;
        let a = figure1();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["a"]);
        let b = b.build().unwrap();
        let cache = PreprocessCache::new();
        cache.context(&a, v(7));
        cache.clear();
        // No stale trees remain, so a new dataset is fine.
        let (_, hit) = cache.context(&b, x);
        assert!(!hit);
    }

    #[test]
    fn carry_over_repairs_forward_trees_to_match_cold() {
        use kor_graph::GraphBuilder;

        // Diamond: s -> a -> t, s -> c -> t.
        let mut b = GraphBuilder::new();
        let s = b.add_node(["s"]);
        let a = b.add_node(["a"]);
        let c = b.add_node(["c"]);
        let t = b.add_node(["t"]);
        b.add_edge(s, a, 1.0, 1.0).unwrap();
        b.add_edge(s, c, 2.0, 2.0).unwrap();
        b.add_edge(a, t, 1.0, 1.0).unwrap();
        b.add_edge(c, t, 1.0, 1.0).unwrap();
        let g = b.build().unwrap();

        let cache = PreprocessCache::new();
        cache.forward_tree(&g, s); // reaches t through a -> repaired
        cache.forward_tree(&g, c); // never sees a -> unchanged
        cache.forward_tree(&g, t); // only {t} -> unchanged
        assert_eq!(cache.forward_entries(), 3);

        let batch = [EdgeMutation::scale(a, t, 3.0, 1.0)];
        let g2 = g.apply_mutations(&batch).unwrap();
        let (warm, report) = cache.carry_over(&g2, &InvertedIndex::build(&g2), &batch);
        assert_eq!(
            (report.pair_trees_retained, report.pair_trees_evicted),
            (3, 0)
        );
        // From s, t is now cheaper through c: one tree changed.
        assert_eq!((report.trees_repaired, report.trees_rebuilt), (1, 0));
        assert_eq!(warm.forward_entries(), 3);
        // Forward trees stay out of the label-search counters.
        assert_eq!((warm.stats().retained, warm.stats().invalidated), (0, 0));

        // Every tree is a hit and matches a cold build on the mutated
        // graph, bit for bit, whether it was repaired or left alone.
        for i in g2.nodes() {
            let (warm_tree, hit) = warm.forward_tree(&g2, i);
            assert_eq!(hit, i != a, "every carried tree stays warm");
            let cold = forward_tree(&g2, Metric::Objective, i);
            for j in g2.nodes() {
                assert_eq!(warm_tree.is_reachable(j), cold.is_reachable(j));
                assert_eq!(
                    warm_tree.objective(j).to_bits(),
                    cold.objective(j).to_bits()
                );
                assert_eq!(warm_tree.budget(j).to_bits(), cold.budget(j).to_bits());
                assert_eq!(warm_tree.walk_from_source(j), cold.walk_from_source(j));
            }
        }
    }

    #[test]
    fn greedy_forward_trees_stay_within_capacity() {
        use crate::greedy::GreedyParams;
        use crate::query::KorQuery;
        use crate::search::{run, Algo, SearchRequest};
        use kor_graph::fixtures::t;

        let g = figure1();
        let index = InvertedIndex::build(&g);
        let cache = PreprocessCache::with_capacity(2);
        let request = SearchRequest::new(Algo::Greedy(GreedyParams::default()));
        for source in g.nodes() {
            let q = KorQuery::new(&g, source, v(7), vec![t(1), t(2)], 10.0).unwrap();
            run(&g, &index, &q, &request, Some(&cache)).unwrap();
            assert!(cache.forward_entries() <= 2);
        }
        // Seven sources reach v7 and each greedy run asks for its
        // source's tree; every build beyond the two kept entries was
        // evicted. The one context never overflows, so every eviction
        // is a forward tree's.
        let built = cache.inner.lock().unwrap().forward.misses;
        assert!(built >= 7, "{built} forward trees built");
        assert_eq!(cache.forward_entries(), 2);
        assert_eq!(cache.stats().evictions, built - 2);
        assert_eq!(cache.context_entries(), 1);
    }
}
