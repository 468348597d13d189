//! Property test: every algorithm agrees with (or is provably bounded
//! by) the brute-force oracle on dozens of seeded generated worlds.
//!
//! `kor_core::brute` enumerates the whole search space, so on small
//! worlds it is ground truth. For each world the canned queries that
//! `kor_data::gen` synthesized (budgets scaled off real shortest-path
//! distances, so feasibility is genuinely mixed) are answered by every
//! algorithm and checked against the oracle:
//!
//! * exact labeling — identical feasibility and optimal objective;
//! * `OSScaling` — feasibility agreement plus the Theorem-2 bound
//!   `OS ≤ opt / (1 − ε)`;
//! * `BucketBound` — feasibility agreement plus the Theorem-3 bound
//!   `OS ≤ opt · β / (1 − ε)`;
//! * top-k `OSScaling` and `BucketBound` — sorted, distinct results
//!   whose best respects the bound;
//! * greedy — never *claims* feasibility on an infeasible query, and
//!   never beats the optimum;
//! * every returned route re-walked edge by edge: it must exist in the
//!   graph, cover the query keywords, and reproduce its claimed scores.

mod common;

use common::{canned_queries, keys, label, requests, verify_outcome, verify_route, worlds};
use kor::prelude::*;

const TOL: f64 = 1e-9;

/// The approximation ratio the algorithm guarantees against the optimum
/// (Theorems 2 and 3; 1 for exact), or `None` for the greedy heuristic.
fn guaranteed_ratio(algo: &Algo) -> Option<f64> {
    match algo {
        Algo::OsScaling(p) => Some(p.approximation_ratio()),
        Algo::BucketBound(p) => Some(p.approximation_ratio()),
        Algo::Exact => Some(1.0),
        Algo::Greedy(_) => None,
    }
}

#[test]
fn all_algorithms_agree_with_the_brute_force_oracle() {
    let brute_params = BruteForceParams {
        target_pruning: true,
        ..BruteForceParams::default()
    };
    let requests = requests();

    let mut total = 0usize;
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for config in worlds() {
        let world = generate_world(&config);
        let graph = &world.graph;
        let engine = KorEngine::new(graph);
        let world_label = format!("{} seed {}", config.topology.name(), config.seed);
        for query in canned_queries(graph, &world.query_sets) {
            let what = format!(
                "{world_label}: {} -> {} ({} kw, Δ {:.3})",
                query.source,
                query.target,
                query.keywords.len(),
                query.budget
            );
            total += 1;

            let oracle = engine
                .brute_force(&query, &brute_params)
                .unwrap_or_else(|e| panic!("{what}: oracle failed: {e}"));
            match &oracle.route {
                None => infeasible += 1,
                Some(opt) => {
                    feasible += 1;
                    verify_route(graph, &query, opt, &format!("{what} [oracle]"));
                }
            }

            for request in &requests {
                let what = format!("{what} [{}]", label(request));
                let outcome = engine.search(&query, request).unwrap();
                verify_outcome(graph, &query, &outcome, &what);
                let Some(opt) = oracle.route.as_ref().map(|r| r.objective) else {
                    assert!(
                        !outcome.is_feasible(),
                        "{what}: claims a feasible route on an infeasible query"
                    );
                    continue;
                };
                let ratio = guaranteed_ratio(&request.algo);
                let Some(best) = outcome.best().filter(|_| outcome.is_feasible()) else {
                    assert!(ratio.is_none(), "{what}: missed a feasible route");
                    continue;
                };
                assert!(best.objective >= opt - TOL, "{what}: beat the optimum");
                if let Some(ratio) = ratio {
                    assert!(
                        best.objective <= opt * ratio + TOL,
                        "{what}: bound violated: {} > {opt} × {ratio}",
                        best.objective
                    );
                }
                let bits = keys(&outcome);
                for (i, w) in outcome.routes.windows(2).enumerate() {
                    assert!(w[0].objective <= w[1].objective, "{what}: not sorted");
                    assert!(!bits[i + 1..].contains(&bits[i]), "{what}: duplicate route");
                }
            }
        }
    }
    // The sweep must actually exercise both outcomes, or the assertions
    // above prove nothing.
    assert_eq!(total, 18 * 2 * 4, "world/query sweep shrank unexpectedly");
    assert!(feasible >= 20, "only {feasible}/{total} feasible queries");
    assert!(
        infeasible >= 5,
        "only {infeasible}/{total} infeasible queries"
    );
}
