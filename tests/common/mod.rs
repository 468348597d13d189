//! Shared by the oracle batteries: the generated worlds they sweep, the
//! searches they run, and the route re-walk they check answers with.

use kor::prelude::*;

const TOL: f64 = 1e-9;

/// Two topologies × 9 seeds, interleaved (grid, ring) per seed and
/// small enough that the brute-force oracle exhausts each quickly.
pub fn worlds() -> Vec<GenConfig> {
    let mut configs = Vec::new();
    for seed in 0..9 {
        configs.push(GenConfig {
            vocab_size: 12,
            max_tags_per_node: 2,
            keyword_counts: vec![1, 2],
            queries_per_set: 4,
            budget_tightness: 1.5,
            ..GenConfig::grid(3, 4, seed)
        });
        configs.push(GenConfig {
            vocab_size: 12,
            max_tags_per_node: 2,
            keyword_counts: vec![1, 2],
            queries_per_set: 4,
            budget_tightness: 1.6,
            ..GenConfig::ring(10, 3, 1000 + seed)
        });
    }
    configs
}

/// Every algorithm at the paper's defaults (ε = 0.5, β = 1.2, α = 0.5)
/// with `k = 1`, plus the two scaled searches at `k = 3` (KkR).
pub fn requests() -> Vec<SearchRequest> {
    let os = Algo::OsScaling(OsScalingParams::default());
    let bb = Algo::BucketBound(BucketBoundParams::default());
    let top3 = |algo| SearchRequest {
        k: 3,
        ..SearchRequest::new(algo)
    };
    vec![
        SearchRequest::new(Algo::Exact),
        SearchRequest::new(os.clone()),
        SearchRequest::new(bb.clone()),
        top3(os),
        top3(bb),
        SearchRequest::new(Algo::Greedy(GreedyParams::default())),
    ]
}

/// `name k=K` for assertion messages.
pub fn label(request: &SearchRequest) -> String {
    format!("{} k={}", request.algo.name(), request.k)
}

/// The canned queries of `sets` against `graph` (node ids and vocab
/// survive every mutation, so this can't fail).
pub fn canned_queries(graph: &Graph, sets: &[CannedQuerySet]) -> Vec<KorQuery> {
    sets.iter()
        .flat_map(|set| &set.queries)
        .map(|q| {
            KorQuery::new(graph, q.source, q.target, q.keywords.clone(), q.budget)
                .expect("canned queries are constructible")
        })
        .collect()
}

/// Re-walks a returned route against `graph`: it must run from the
/// query's source to its target over edges that exist there (a stale
/// tree citing a closed edge, or a shard search inventing a cut edge,
/// fails here), and its claimed scores must match the edge sums.
/// Returns what the walk measured: whether the route covers the query
/// keywords, and its budget score.
fn rewalk(graph: &Graph, query: &KorQuery, r: &RouteResult, what: &str) -> (bool, f64) {
    let nodes = r.route.nodes();
    assert_eq!(*nodes.first().unwrap(), query.source, "{what}: source");
    assert_eq!(*nodes.last().unwrap(), query.target, "{what}: target");
    let mut os = 0.0;
    let mut bs = 0.0;
    let mut mask = query.keywords.mask_of(graph.keywords(nodes[0]));
    for w in nodes.windows(2) {
        let e = graph
            .edge_between(w[0], w[1])
            .unwrap_or_else(|| panic!("{what}: edge {} -> {} does not exist", w[0], w[1]));
        os += e.objective;
        bs += e.budget;
        mask |= query.keywords.mask_of(graph.keywords(w[1]));
    }
    assert!(
        (os - r.objective).abs() < TOL,
        "{what}: OS {} ≠ {os}",
        r.objective
    );
    assert!(
        (bs - r.budget).abs() < TOL,
        "{what}: BS {} ≠ {bs}",
        r.budget
    );
    (query.keywords.is_covering(mask), bs)
}

/// [`rewalk`], then both hard constraints: the keywords are covered and
/// the budget limit holds.
pub fn verify_route(graph: &Graph, query: &KorQuery, r: &RouteResult, what: &str) {
    let (covers, bs) = rewalk(graph, query, r, what);
    assert!(covers, "{what}: keywords uncovered");
    assert!(
        bs <= query.budget + TOL,
        "{what}: budget {bs} > Δ {}",
        query.budget
    );
}

/// Re-walks every route of `outcome`. A label-search route must also
/// meet both hard constraints ([`verify_route`]). A greedy route may
/// break either one as a legitimate best effort, so instead its
/// `(covers_keywords, within_budget)` flags must equal what the walk
/// measured.
pub fn verify_outcome(graph: &Graph, query: &KorQuery, outcome: &SearchOutcome, what: &str) {
    for (i, r) in outcome.routes.iter().enumerate() {
        let what = format!("{what} #{i}");
        match outcome.greedy_flags {
            Some(flags) => {
                let (covers, bs) = rewalk(graph, query, r, &what);
                assert_eq!(
                    flags,
                    (covers, bs <= query.budget),
                    "{what}: greedy flags (covers, within) ≠ the re-walk"
                );
            }
            None => verify_route(graph, query, r, &what),
        }
    }
}

/// The answer's routes, in order, reduced to their exact bits.
pub fn keys(outcome: &SearchOutcome) -> Vec<(Vec<u32>, u64, u64)> {
    outcome.routes.iter().map(RouteResult::bits).collect()
}
