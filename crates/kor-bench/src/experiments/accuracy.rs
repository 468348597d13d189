//! Accuracy experiments: Figures 10–11 (relative ratio vs #keywords and
//! vs Δ) and Figures 12–13 (greedy α sweep with failure rates).

use kor_core::{Algo, BucketBoundParams, GreedyParams, KorEngine, OsScalingParams, SearchRequest};

use crate::context::Context;
use crate::report::{fmt_pct, fmt_ratio, Table};
use crate::runner::{failure_pct, label, relative_ratio, run_algo, to_query, QueryRun};

/// Figures 10–11: relative ratio (base: `OSScaling` ε = 0.1) of
/// `BucketBound` (ε = 0.5, β = 1.2), `Greedy-2` and `Greedy-1` — grouped
/// by keyword count (averaged over Δ) and by Δ (averaged over keyword
/// counts). Greedy ratios count only its feasible queries (§4.2.2).
pub fn fig10_11(ctx: &Context) -> Vec<Table> {
    let graph = ctx.flickr();
    let engine = KorEngine::new(&graph);
    let sets = ctx.workload(&graph, &ctx.profile.keyword_counts);
    let deltas = &ctx.profile.flickr_deltas_km;
    let algos = [
        Algo::BucketBound(BucketBoundParams::default()),
        Algo::Greedy(GreedyParams::with_beam(2)),
        Algo::Greedy(GreedyParams::with_beam(1)),
    ]
    .map(SearchRequest::new);
    let base_algo = SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.1)));

    // cell[mi][di] = (base runs, per-algo runs)
    let mut base_runs: Vec<Vec<Vec<QueryRun>>> = Vec::new();
    let mut algo_runs: Vec<Vec<Vec<Vec<QueryRun>>>> = algos.iter().map(|_| Vec::new()).collect();
    for set in &sets {
        let mut base_row = Vec::new();
        let mut algo_rows: Vec<Vec<Vec<QueryRun>>> = algos.iter().map(|_| Vec::new()).collect();
        for &delta in deltas {
            let queries: Vec<_> = set
                .queries
                .iter()
                .map(|s| to_query(&graph, s, delta))
                .collect();
            base_row.push(
                queries
                    .iter()
                    .map(|q| run_algo(&engine, q, &base_algo))
                    .collect::<Vec<_>>(),
            );
            for (ai, algo) in algos.iter().enumerate() {
                algo_rows[ai].push(
                    queries
                        .iter()
                        .map(|q| run_algo(&engine, q, algo))
                        .collect::<Vec<_>>(),
                );
            }
        }
        base_runs.push(base_row);
        for (ai, rows) in algo_rows.into_iter().enumerate() {
            algo_runs[ai].push(rows);
        }
    }

    let mut headers = vec!["#keywords".to_string()];
    headers.extend(algos.iter().map(label));
    let mut by_m = Table::new(
        "fig10",
        "Relative ratio vs number of query keywords (base: OSScaling ε = 0.1)",
        headers,
    );
    for (mi, m) in ctx.profile.keyword_counts.iter().enumerate() {
        let mut row = vec![m.to_string()];
        for runs in &algo_runs {
            let flat: Vec<QueryRun> = runs[mi].iter().flatten().copied().collect();
            let base: Vec<QueryRun> = base_runs[mi].iter().flatten().copied().collect();
            row.push(fmt_ratio(relative_ratio(&flat, &base)));
        }
        by_m.push_row(row);
    }

    let mut headers = vec!["Δ (km)".to_string()];
    headers.extend(algos.iter().map(label));
    let mut by_delta = Table::new(
        "fig11",
        "Relative ratio vs budget limit Δ (base: OSScaling ε = 0.1)",
        headers,
    );
    for (di, delta) in deltas.iter().enumerate() {
        let mut row = vec![format!("{delta}")];
        for runs in &algo_runs {
            let flat: Vec<QueryRun> = runs
                .iter()
                .flat_map(|per_m| per_m[di].iter())
                .copied()
                .collect();
            let base: Vec<QueryRun> = base_runs
                .iter()
                .flat_map(|per_m| per_m[di].iter())
                .copied()
                .collect();
            row.push(fmt_ratio(relative_ratio(&flat, &base)));
        }
        by_delta.push_row(row);
    }
    vec![by_m, by_delta]
}

/// Figures 12–13: greedy relative ratio and failure percentage as the
/// balance parameter α varies (Δ = 6 km, averaged over all keyword
/// counts).
pub fn fig12_13(ctx: &Context) -> Vec<Table> {
    let graph = ctx.flickr();
    let engine = KorEngine::new(&graph);
    let sets = ctx.workload(&graph, &ctx.profile.keyword_counts);
    let delta = ctx.profile.default_delta_km;
    let queries: Vec<_> = sets
        .iter()
        .flat_map(|set| set.queries.iter().map(|s| to_query(&graph, s, delta)))
        .collect();
    let base: Vec<QueryRun> = queries
        .iter()
        .map(|q| {
            run_algo(
                &engine,
                q,
                &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.1))),
            )
        })
        .collect();

    let mut ratio = Table::new(
        "fig12",
        "Greedy relative ratio vs α (Δ = 6 km; feasible queries only)",
        vec!["α", "Greedy-1", "Greedy-2"],
    );
    let mut failures = Table::new(
        "fig13",
        "Greedy failure percentage vs α (Δ = 6 km)",
        vec!["α", "Greedy-1", "Greedy-2"],
    );
    for &alpha in &ctx.profile.alphas {
        let mut ratio_row = vec![format!("{alpha}")];
        let mut fail_row = vec![format!("{alpha}")];
        for beam in [1usize, 2] {
            let params = GreedyParams {
                alpha,
                beam_width: beam,
                ..GreedyParams::default()
            };
            let runs: Vec<QueryRun> = queries
                .iter()
                .map(|q| {
                    run_algo(
                        &engine,
                        q,
                        &SearchRequest::new(Algo::Greedy(params.clone())),
                    )
                })
                .collect();
            ratio_row.push(fmt_ratio(relative_ratio(&runs, &base)));
            fail_row.push(fmt_pct(failure_pct(&runs, &base)));
        }
        ratio.push_row(ratio_row);
        failures.push_row(fail_row);
    }
    vec![ratio, failures]
}
