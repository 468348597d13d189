//! The exhaustive brute-force baseline (§3.2).
//!
//! Enumerates every path from the source whose budget stays within `Δ`
//! (paths need not be simple — the paper notes simple paths are not
//! enough for KOR) and keeps the best feasible route at the target.
//! Complexity `O(d^{⌊Δ/b_min⌋})`; the paper reports it at least two
//! orders of magnitude slower than `OSScaling` and often unable to finish
//! within a day. Intended for tiny graphs and ground-truth tests.

use kor_apsp::QueryContext;
use kor_graph::{Graph, NodeId, Route};

use crate::error::KorError;
use crate::query::KorQuery;
use crate::result::{RouteResult, SearchResult};
use crate::stats::SearchStats;

/// Safety limits for the exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct BruteForceParams {
    /// Abort after this many partial-path expansions.
    pub max_expansions: u64,
    /// Additionally prune partial paths that provably cannot finish
    /// within the budget (`BS + BS(σ_{v,t}) > Δ`). The paper's baseline
    /// only checks `BS ≤ Δ`; enabling this keeps the same answers while
    /// taming the search space.
    pub target_pruning: bool,
}

impl Default for BruteForceParams {
    fn default() -> Self {
        Self {
            max_expansions: 10_000_000,
            target_pruning: false,
        }
    }
}

/// Runs the exhaustive search.
///
/// # Errors
///
/// [`KorError::SearchSpaceExceeded`] if `max_expansions` is hit before
/// the space is exhausted (the result would not be trustworthy).
pub fn brute_force(
    graph: &Graph,
    query: &KorQuery,
    params: &BruteForceParams,
) -> Result<SearchResult, KorError> {
    let ctx = QueryContext::new(graph, query.target);
    let mut stats = SearchStats::default();
    let mut best: Option<(f64, f64, Vec<NodeId>)> = None;

    // DFS over partial paths; the stack stores full node sequences, which
    // is exactly the paper's queue-of-partial-paths formulation.
    let init_mask = query.keywords.mask_of(graph.keywords(query.source));
    let mut stack: Vec<(Vec<NodeId>, u64, f64, f64)> =
        vec![(vec![query.source], init_mask, 0.0, 0.0)];
    stats.labels_created += 1;
    let mut expansions = 0u64;

    while let Some((path, mask, os, bs)) = stack.pop() {
        expansions += 1;
        if expansions > params.max_expansions {
            return Err(KorError::SearchSpaceExceeded(params.max_expansions));
        }
        let node = *path.last().expect("paths are non-empty");

        if node == query.target && query.keywords.is_covering(mask) && bs <= query.budget {
            let better = match &best {
                None => true,
                Some((bos, bbs, _)) => os < *bos || (os == *bos && bs < *bbs),
            };
            if better {
                best = Some((os, bs, path.clone()));
                stats.upper_bound_updates += 1;
            }
        }

        // Objective scores only grow, so a partial path already at or
        // above the best found can never win.
        if let Some((bos, _, _)) = &best {
            if os >= *bos {
                stats.labels_pruned += 1;
                continue;
            }
        }

        stats.labels_expanded += 1;
        for e in graph.out_edges(node) {
            let nbs = bs + e.budget;
            if nbs > query.budget {
                stats.labels_pruned += 1;
                continue;
            }
            if params.target_pruning && nbs + ctx.bs_sigma(e.node) > query.budget {
                stats.labels_pruned += 1;
                continue;
            }
            let mut npath = path.clone();
            npath.push(e.node);
            let nmask = mask | query.keywords.mask_of(graph.keywords(e.node));
            stack.push((npath, nmask, os + e.objective, nbs));
            stats.labels_created += 1;
        }
    }

    Ok(SearchResult {
        route: best.map(|(objective, budget, nodes)| RouteResult {
            route: Route::new(nodes),
            objective,
            budget,
        }),
        stats,
        labels: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{single, Algo};
    use kor_graph::fixtures::{figure1, t, v};
    use kor_index::InvertedIndex;

    #[test]
    fn finds_example2_optimum() {
        let g = figure1();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = brute_force(&g, &q, &BruteForceParams::default()).unwrap();
        let route = r.route.expect("feasible");
        assert_eq!(route.objective, 6.0);
        assert_eq!(route.budget, 10.0);
        assert_eq!(route.route.nodes(), &[v(0), v(2), v(3), v(4), v(7)]);
    }

    #[test]
    fn agrees_with_exact_labeling_on_fixture() {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        for m in [vec![], vec![t(1)], vec![t(1), t(2)], vec![t(1), t(2), t(3)]] {
            for delta in [4.0, 5.0, 6.0, 8.0, 10.0, 15.0] {
                let q = KorQuery::new(&g, v(0), v(7), m.clone(), delta).unwrap();
                let bf = brute_force(&g, &q, &BruteForceParams::default()).unwrap();
                let ex = single(&g, &idx, &q, Algo::Exact).unwrap();
                match (&bf.route, &ex.route) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.objective, b.objective, "m={m:?} delta={delta}");
                    }
                    (a, b) => panic!("m={m:?} delta={delta}: bf={a:?} exact={b:?}"),
                }
            }
        }
    }

    #[test]
    fn target_pruning_preserves_answers() {
        let g = figure1();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2), t(3)], 12.0).unwrap();
        let plain = brute_force(&g, &q, &BruteForceParams::default()).unwrap();
        let pruned = brute_force(
            &g,
            &q,
            &BruteForceParams {
                target_pruning: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.route.as_ref().map(|r| r.objective),
            pruned.route.as_ref().map(|r| r.objective)
        );
        assert!(pruned.stats.labels_created <= plain.stats.labels_created);
    }

    #[test]
    fn expansion_cap_is_enforced() {
        let g = figure1();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = brute_force(
            &g,
            &q,
            &BruteForceParams {
                max_expansions: 3,
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(KorError::SearchSpaceExceeded(3))));
    }

    #[test]
    fn infeasible_detected() {
        let g = figure1();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 4.0).unwrap();
        let r = brute_force(&g, &q, &BruteForceParams::default()).unwrap();
        assert!(r.route.is_none());
    }
}
