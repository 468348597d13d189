//! Deterministic, seeded world generator for scenario-diversity testing.
//!
//! The Flickr ([`crate::flickr`]) and road-network ([`crate::roadnet`])
//! generators mimic the paper's two evaluation datasets. This module
//! opens the *scenario* axis instead: small-to-medium synthetic worlds
//! with controlled topology (grid or ring road networks with perturbed
//! edge weights), Zipf-distributed keyword assignment (the same
//! heavy-tailed regime as [`crate::tags`]), and **canned query sets**
//! whose budgets are derived from actual shortest-path distances so
//! their tightness is controllable — the workload style the multi-cost
//! index and Top-k OSR follow-up papers use to expose algorithmic corner
//! cases.
//!
//! Everything is deterministic under (`topology`, knobs, `seed`): the
//! same [`GenConfig`] always produces the same [`Snapshot`], and the
//! binary form written by [`crate::snapshot::write_snapshot`] is
//! byte-identical across runs and platforms (fixed iteration order,
//! little-endian IEEE-754 bit patterns).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kor_graph::{Graph, GraphBuilder, KeywordId, NodeId};

use crate::queries::{CannedQuery, CannedQuerySet};
use crate::snapshot::Snapshot;
use crate::tags::TagModel;

/// The road-network shape of a generated world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// A `width × height` lattice: every node connects to its 4-neighbors
    /// with bidirectional edges. Dense in short alternative paths — the
    /// regime where label dominance does the most work.
    Grid {
        /// Columns (≥ 2).
        width: usize,
        /// Rows (≥ 2).
        height: usize,
    },
    /// A ring of `nodes` plus `chords` random shortcut chords. Sparse
    /// with a few long shortcuts — the regime where budget tightness
    /// decides between the ring way and the chord way.
    Ring {
        /// Nodes on the ring (≥ 3).
        nodes: usize,
        /// Random chords added across the ring.
        chords: usize,
    },
}

impl Topology {
    /// Number of nodes this topology produces.
    pub fn node_count(&self) -> usize {
        match self {
            Topology::Grid { width, height } => width * height,
            Topology::Ring { nodes, .. } => *nodes,
        }
    }

    /// Stable name used in CLI output and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Grid { .. } => "grid",
            Topology::Ring { .. } => "ring",
        }
    }
}

/// All knobs of the world generator.
///
/// **Seed contract:** two [`generate_world`] calls with equal configs
/// (including `seed`) produce identical worlds, and the snapshots
/// written from them are byte-identical. Any knob change — not just the
/// seed — may change every sampled value downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// World shape.
    pub topology: Topology,
    /// RNG seed (see the seed contract above).
    pub seed: u64,
    /// Keyword vocabulary size (≥ 1).
    pub vocab_size: usize,
    /// Zipf exponent for keyword assignment (`s ≈ 1` matches web tags).
    pub tag_exponent: f64,
    /// Tags per node: uniform in `1..=max_tags_per_node`.
    pub max_tags_per_node: usize,
    /// Relative edge-weight perturbation in `[0, 1)`: each edge budget is
    /// its geometric length scaled by `1 + jitter·U(-1, 1)`.
    pub weight_jitter: f64,
    /// Keyword counts, one canned query set per entry.
    pub keyword_counts: Vec<usize>,
    /// Queries per canned set.
    pub queries_per_set: usize,
    /// Budget tightness: each query's `Δ` is `tightness ×` the
    /// shortest-budget-path distance from its source to its target.
    /// `1.0` leaves no slack (detours are impossible), values well above
    /// `1` open the feasible region; values below `1` make every
    /// keyword-free query infeasible by construction.
    pub budget_tightness: f64,
}

impl GenConfig {
    /// A grid world with the default knobs.
    pub fn grid(width: usize, height: usize, seed: u64) -> Self {
        Self {
            topology: Topology::Grid { width, height },
            ..Self::base(seed)
        }
    }

    /// A ring world with the default knobs.
    pub fn ring(nodes: usize, chords: usize, seed: u64) -> Self {
        Self {
            topology: Topology::Ring { nodes, chords },
            ..Self::base(seed)
        }
    }

    fn base(seed: u64) -> Self {
        Self {
            topology: Topology::Grid {
                width: 8,
                height: 8,
            },
            seed,
            vocab_size: 50,
            tag_exponent: 1.0,
            max_tags_per_node: 3,
            weight_jitter: 0.3,
            keyword_counts: vec![2, 3],
            queries_per_set: 8,
            budget_tightness: 1.5,
        }
    }

    /// Validates the knob ranges, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match &self.topology {
            Topology::Grid { width, height } => {
                if *width < 2 || *height < 2 {
                    return Err(format!("grid must be at least 2×2, got {width}×{height}"));
                }
            }
            Topology::Ring { nodes, chords } => {
                if *nodes < 3 {
                    return Err(format!("ring needs at least 3 nodes, got {nodes}"));
                }
                // Chords connect non-adjacent pairs: n·(n−3)/2 of them.
                let max_chords = nodes * nodes.saturating_sub(3) / 2;
                if *chords > max_chords {
                    return Err(format!(
                        "a {nodes}-node ring fits at most {max_chords} chords, got {chords}"
                    ));
                }
            }
        }
        if self.vocab_size == 0 {
            return Err("vocabulary must not be empty".into());
        }
        if self.max_tags_per_node == 0 || self.max_tags_per_node > self.vocab_size {
            return Err(format!(
                "tags per node must be in 1..={}, got {}",
                self.vocab_size, self.max_tags_per_node
            ));
        }
        if !(0.0..1.0).contains(&self.weight_jitter) {
            return Err(format!(
                "weight jitter must be in [0, 1), got {}",
                self.weight_jitter
            ));
        }
        if !self.tag_exponent.is_finite() || self.tag_exponent < 0.0 {
            return Err(format!(
                "Zipf exponent must be ≥ 0, got {}",
                self.tag_exponent
            ));
        }
        if !self.budget_tightness.is_finite() || self.budget_tightness <= 0.0 {
            return Err(format!(
                "budget tightness must be > 0, got {}",
                self.budget_tightness
            ));
        }
        for &m in &self.keyword_counts {
            if m == 0 || m > self.vocab_size {
                return Err(format!(
                    "query keyword counts must be in 1..={}, got {m}",
                    self.vocab_size
                ));
            }
        }
        Ok(())
    }
}

/// Generates a full world — graph plus canned query sets — from the
/// config. Panics only on configs [`GenConfig::validate`] rejects.
pub fn generate_world(config: &GenConfig) -> Snapshot {
    config.validate().expect("invalid GenConfig");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let tags = TagModel::new(config.vocab_size, config.tag_exponent);

    let positions = node_positions(&config.topology);
    let mut builder = GraphBuilder::with_capacity(positions.len(), positions.len() * 4);
    for name in tags.names() {
        builder.vocab_mut().intern(name);
    }
    for &(x, y) in &positions {
        let n_tags = rng.gen_range(1..=config.max_tags_per_node);
        let ids: Vec<KeywordId> = tags
            .sample_distinct(&mut rng, n_tags)
            .into_iter()
            .map(|r| KeywordId(r as u32))
            .collect();
        builder.add_node_ids_at(ids, x, y);
    }

    add_topology_edges(&mut builder, &positions, config, &mut rng);
    let graph = builder.build().expect("generated world is valid");
    let query_sets = synthesize_queries(&graph, config, &mut rng);
    Snapshot { graph, query_sets }
}

/// Planar positions per topology, in node-id order.
fn node_positions(topology: &Topology) -> Vec<(f64, f64)> {
    match topology {
        Topology::Grid { width, height } => {
            let mut pts = Vec::with_capacity(width * height);
            for r in 0..*height {
                for c in 0..*width {
                    pts.push((c as f64, r as f64));
                }
            }
            pts
        }
        Topology::Ring { nodes, .. } => {
            // Radius chosen so adjacent nodes sit ~1 km apart.
            let n = *nodes as f64;
            let radius = n / (2.0 * std::f64::consts::PI);
            (0..*nodes)
                .map(|i| {
                    let angle = 2.0 * std::f64::consts::PI * i as f64 / n;
                    (radius * angle.cos(), radius * angle.sin())
                })
                .collect()
        }
    }
}

/// Adds one undirected (= two directed) edge with jittered weights: the
/// budget is the perturbed geometric length (identical in both
/// directions, like a road segment), the objective is an independent
/// uniform draw per direction.
fn jittered_edge(
    builder: &mut GraphBuilder,
    rng: &mut StdRng,
    positions: &[(f64, f64)],
    jitter: f64,
    a: usize,
    b: usize,
) {
    let (a_id, b_id) = (NodeId(a as u32), NodeId(b as u32));
    if builder.has_edge(a_id, b_id) {
        return;
    }
    let (x1, y1) = positions[a];
    let (x2, y2) = positions[b];
    let base = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt().max(1e-6);
    let budget = (base * (1.0 + jitter * rng.gen_range(-1.0..1.0))).max(1e-6);
    let o_ab = rng.gen_range(1e-6..1.0);
    let o_ba = rng.gen_range(1e-6..1.0);
    builder
        .add_edge(a_id, b_id, o_ab, budget)
        .expect("valid edge");
    builder
        .add_edge(b_id, a_id, o_ba, budget)
        .expect("valid edge");
}

fn add_topology_edges(
    builder: &mut GraphBuilder,
    positions: &[(f64, f64)],
    config: &GenConfig,
    rng: &mut StdRng,
) {
    let jitter = config.weight_jitter;
    match config.topology {
        Topology::Grid { width, height } => {
            for r in 0..height {
                for c in 0..width {
                    let v = r * width + c;
                    if c + 1 < width {
                        jittered_edge(builder, rng, positions, jitter, v, v + 1);
                    }
                    if r + 1 < height {
                        jittered_edge(builder, rng, positions, jitter, v, v + width);
                    }
                }
            }
        }
        Topology::Ring { nodes, chords } => {
            for i in 0..nodes {
                jittered_edge(builder, rng, positions, jitter, i, (i + 1) % nodes);
            }
            // Rejection-sample the chords; near saturation (validate
            // caps the request at the number of non-adjacent pairs)
            // collisions would stall a pure rejection loop, so a
            // deterministic sweep tops up whatever the sampler missed —
            // the chord count is exact, never silently short.
            let mut added = 0;
            let mut attempts = 0;
            while added < chords && attempts < chords * 20 + 100 {
                attempts += 1;
                let a = rng.gen_range(0..nodes);
                let b = rng.gen_range(0..nodes);
                // Skip self-chords, ring-adjacent pairs, and repeats.
                let adjacent = (a + 1) % nodes == b || (b + 1) % nodes == a;
                if a == b || adjacent || builder.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                    continue;
                }
                jittered_edge(builder, rng, positions, jitter, a, b);
                added += 1;
            }
            'sweep: for a in 0..nodes {
                for b in a + 1..nodes {
                    if added >= chords {
                        break 'sweep;
                    }
                    let adjacent = (a + 1) % nodes == b || (b + 1) % nodes == a;
                    if adjacent || builder.has_edge(NodeId(a as u32), NodeId(b as u32)) {
                        continue;
                    }
                    jittered_edge(builder, rng, positions, jitter, a, b);
                    added += 1;
                }
            }
        }
    }
}

/// Shortest-budget-path distance `source → target` (plain forward
/// Dijkstra; worlds are strongly connected by construction, so this
/// always succeeds for distinct nodes).
fn budget_distance(graph: &Graph, source: NodeId, target: NodeId) -> Option<f64> {
    // Non-negative f64 distances order identically to their IEEE bit
    // patterns, so the heap can avoid a float wrapper type.
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(Reverse((0, source.0)));
    while let Some(Reverse((d_bits, v))) = heap.pop() {
        let d = f64::from_bits(d_bits);
        if v == target.0 {
            return Some(d);
        }
        if d > dist[v as usize] {
            continue;
        }
        for e in graph.out_edges(NodeId(v)) {
            let nd = d + e.budget;
            if nd < dist[e.node.index()] {
                dist[e.node.index()] = nd;
                heap.push(Reverse((nd.to_bits(), e.node.0)));
            }
        }
    }
    None
}

/// Synthesizes the canned query sets: frequency-weighted keyword draws
/// over the keywords that actually occur, endpoints sampled uniformly,
/// budgets scaled off the real shortest-path distance.
fn synthesize_queries(graph: &Graph, config: &GenConfig, rng: &mut StdRng) -> Vec<CannedQuerySet> {
    // Document-frequency pool with cumulative weights (mirrors
    // `crate::queries::generate_workload`, which serves graphs without
    // canned budgets).
    let mut df = vec![0usize; graph.vocab().len()];
    for (_, t) in graph.keyword_postings() {
        df[t.index()] += 1;
    }
    let pool: Vec<(KeywordId, usize)> = df
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (KeywordId(i as u32), c))
        .collect();
    let mut cumulative: Vec<f64> = Vec::with_capacity(pool.len());
    let mut acc = 0.0;
    for (_, c) in &pool {
        acc += *c as f64;
        cumulative.push(acc);
    }

    let n = graph.node_count() as u32;
    config
        .keyword_counts
        .iter()
        .map(|&m| {
            // A small world may carry fewer *occurring* keywords than
            // the requested count; the set label reflects what the
            // queries actually hold, never the unmet request.
            let effective_m = m.min(pool.len());
            let queries = (0..config.queries_per_set)
                .map(|_| {
                    let (source, target, distance) = loop {
                        let s = NodeId(rng.gen_range(0..n));
                        let t = NodeId(rng.gen_range(0..n));
                        if s == t {
                            continue;
                        }
                        let d = budget_distance(graph, s, t)
                            .expect("generated worlds are strongly connected");
                        break (s, t, d);
                    };
                    let mut keywords: Vec<KeywordId> = Vec::with_capacity(effective_m);
                    let mut guard = 0;
                    while keywords.len() < effective_m && guard < 10_000 {
                        guard += 1;
                        let x = rng.gen_range(0.0..acc);
                        let at = cumulative.partition_point(|&c| c <= x);
                        let kw = pool[at.min(pool.len() - 1)].0;
                        if !keywords.contains(&kw) {
                            keywords.push(kw);
                        }
                    }
                    // Extreme frequency skews can starve the rejection
                    // sampler; top up deterministically so the set label
                    // is always exact.
                    for (kw, _) in &pool {
                        if keywords.len() >= effective_m {
                            break;
                        }
                        if !keywords.contains(kw) {
                            keywords.push(*kw);
                        }
                    }
                    keywords.sort_unstable();
                    CannedQuery {
                        source,
                        target,
                        keywords,
                        budget: distance * config.budget_tightness,
                    }
                })
                .collect();
            CannedQuerySet {
                keyword_count: effective_m,
                queries,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_positions() {
        let world = generate_world(&GenConfig::grid(5, 4, 1));
        let g = &world.graph;
        assert_eq!(g.node_count(), 20);
        // Lattice edge count: 2 · (h·(w−1) + w·(h−1)) directed edges.
        assert_eq!(g.edge_count(), 2 * (4 * 4 + 5 * 3));
        assert_eq!(g.position(NodeId(7)), Some((2.0, 1.0)));
        assert!(g.has_positions());
    }

    #[test]
    fn ring_shape_and_chords() {
        let world = generate_world(&GenConfig::ring(12, 3, 2));
        let g = &world.graph;
        assert_eq!(g.node_count(), 12);
        // 12 ring segments + 3 chords, each bidirectional.
        assert_eq!(g.edge_count(), 2 * (12 + 3));
    }

    #[test]
    fn worlds_are_strongly_connected() {
        for cfg in [GenConfig::grid(4, 4, 3), GenConfig::ring(10, 2, 3)] {
            let g = generate_world(&cfg).graph;
            for v in g.nodes().skip(1) {
                assert!(
                    budget_distance(&g, NodeId(0), v).is_some(),
                    "{} world: v0 cannot reach {v}",
                    cfg.topology.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_world(&GenConfig::grid(6, 5, 42));
        let b = generate_world(&GenConfig::grid(6, 5, 42));
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        for v in a.graph.nodes() {
            let ea: Vec<_> = a
                .graph
                .out_edges(v)
                .map(|e| (e.node, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            let eb: Vec<_> = b
                .graph
                .out_edges(v)
                .map(|e| (e.node, e.objective.to_bits(), e.budget.to_bits()))
                .collect();
            assert_eq!(ea, eb, "{v}");
            assert_eq!(a.graph.keywords(v), b.graph.keywords(v));
        }
        assert_eq!(a.query_sets, b.query_sets);

        let c = generate_world(&GenConfig::grid(6, 5, 43));
        assert_ne!(a.query_sets, c.query_sets, "different seed, same worlds?");
    }

    #[test]
    fn budgets_track_shortest_paths() {
        let cfg = GenConfig {
            budget_tightness: 2.0,
            ..GenConfig::grid(5, 5, 7)
        };
        let world = generate_world(&cfg);
        for set in &world.query_sets {
            assert_eq!(set.queries.len(), cfg.queries_per_set);
            for q in &set.queries {
                let d = budget_distance(&world.graph, q.source, q.target).unwrap();
                assert!((q.budget - 2.0 * d).abs() < 1e-9, "Δ={} d={d}", q.budget);
                assert_ne!(q.source, q.target);
                assert_eq!(q.keywords.len(), set.keyword_count);
                let mut sorted = q.keywords.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted, q.keywords, "keywords sorted + deduplicated");
            }
        }
    }

    #[test]
    fn query_keywords_occur_in_the_graph() {
        let world = generate_world(&GenConfig::ring(15, 4, 9));
        let occurs: std::collections::BTreeSet<KeywordId> =
            world.graph.keyword_postings().map(|(_, t)| t).collect();
        for set in &world.query_sets {
            for q in &set.queries {
                for kw in &q.keywords {
                    assert!(occurs.contains(kw), "{kw:?} occurs nowhere");
                }
            }
        }
    }

    #[test]
    fn ring_chord_count_is_exact_even_at_saturation() {
        // A 6-node ring fits exactly 6·3/2 = 9 chords; requesting all of
        // them must yield all of them (the deterministic sweep tops up
        // whatever rejection sampling misses).
        let world = generate_world(&GenConfig::ring(6, 9, 5));
        assert_eq!(world.graph.edge_count(), 2 * (6 + 9));
        // One past the maximum is rejected up front.
        assert!(GenConfig::ring(6, 10, 5).validate().is_err());
    }

    #[test]
    fn set_labels_match_actual_keyword_counts_on_tiny_worlds() {
        // 4 nodes × 1 tag each can carry at most 4 occurring keywords;
        // requesting 10 per query must label the set with what the
        // queries actually hold.
        let cfg = GenConfig {
            vocab_size: 12,
            max_tags_per_node: 1,
            keyword_counts: vec![10],
            queries_per_set: 5,
            ..GenConfig::grid(2, 2, 8)
        };
        let world = generate_world(&cfg);
        let set = &world.query_sets[0];
        assert!(set.keyword_count >= 1 && set.keyword_count <= 4);
        for q in &set.queries {
            assert_eq!(q.keywords.len(), set.keyword_count);
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(GenConfig::grid(1, 5, 0).validate().is_err());
        assert!(GenConfig::ring(2, 0, 0).validate().is_err());
        for bad in [
            GenConfig {
                vocab_size: 0,
                ..GenConfig::grid(4, 4, 0)
            },
            GenConfig {
                max_tags_per_node: 0,
                ..GenConfig::grid(4, 4, 0)
            },
            GenConfig {
                weight_jitter: 1.0,
                ..GenConfig::grid(4, 4, 0)
            },
            GenConfig {
                budget_tightness: 0.0,
                ..GenConfig::grid(4, 4, 0)
            },
            GenConfig {
                keyword_counts: vec![0],
                ..GenConfig::grid(4, 4, 0)
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
        assert!(GenConfig::grid(4, 4, 0).validate().is_ok());
    }
}
