//! Parameter-sweep experiments: Figures 6–7 (ε), 8–9 (β), and 14–15
//! (equal theoretical bounds).

use kor_core::{Algo, BucketBoundParams, KorEngine, KorQuery, OsScalingParams, SearchRequest};

use crate::context::Context;
use crate::report::{fmt_ms, fmt_ratio, Table};
use crate::runner::{mean_ms, relative_ratio, run_algo, to_query, QueryRun};

/// The default single-cell workload: m = 6, Δ = 6 km on the Flickr-like
/// graph — shared by the ε/β/equal-bound sweeps.
fn default_queries(ctx: &Context) -> (std::sync::Arc<kor_graph::Graph>, Vec<KorQuery>) {
    let graph = ctx.flickr();
    let sets = ctx.workload(&graph, &[ctx.profile.default_keywords]);
    let queries: Vec<KorQuery> = sets[0]
        .queries
        .iter()
        .map(|s| to_query(&graph, s, ctx.profile.default_delta_km))
        .collect();
    (graph, queries)
}

fn run_all<G: AsRef<kor_graph::Graph>>(
    engine: &KorEngine<G>,
    queries: &[KorQuery],
    request: &SearchRequest,
) -> Vec<QueryRun> {
    queries
        .iter()
        .map(|q| run_algo(engine, q, request))
        .collect()
}

/// Figures 6–7: `OSScaling` runtime and relative ratio as ε grows.
/// The accuracy baseline is `OSScaling` at ε = 0.1 (§4.2.2).
pub fn fig6_7(ctx: &Context) -> Vec<Table> {
    let (graph, queries) = default_queries(ctx);
    let engine = KorEngine::new(&graph);
    let base = run_all(
        &engine,
        &queries,
        &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.1))),
    );
    let mut runtime = Table::new(
        "fig6",
        "OSScaling runtime vs ε (m = 6, Δ = 6 km)",
        vec!["ε", "runtime (ms)"],
    );
    let mut ratio = Table::new(
        "fig7",
        "OSScaling relative ratio vs ε (base: ε = 0.1)",
        vec!["ε", "relative ratio"],
    );
    for &eps in &ctx.profile.epsilons {
        let runs = if (eps - 0.1).abs() < 1e-12 {
            base.clone()
        } else {
            run_all(
                &engine,
                &queries,
                &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(eps))),
            )
        };
        runtime.push_row(vec![format!("{eps}"), fmt_ms(mean_ms(&runs))]);
        ratio.push_row(vec![
            format!("{eps}"),
            fmt_ratio(relative_ratio(&runs, &base)),
        ]);
    }
    vec![runtime, ratio]
}

/// Figures 8–9: `BucketBound` runtime and relative ratio as β grows
/// (ε = 0.5). Ratios are reported against both the ε = 0.1 baseline (the
/// paper's measure) and the ε = 0.5 `OSScaling` run (whose route shares
/// the bucket, so this column must stay below β).
pub fn fig8_9(ctx: &Context) -> Vec<Table> {
    let (graph, queries) = default_queries(ctx);
    let engine = KorEngine::new(&graph);
    let base01 = run_all(
        &engine,
        &queries,
        &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.1))),
    );
    let base05 = run_all(
        &engine,
        &queries,
        &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.5))),
    );
    let mut runtime = Table::new(
        "fig8",
        "BucketBound runtime vs β (ε = 0.5, m = 6, Δ = 6 km)",
        vec!["β", "runtime (ms)"],
    );
    let mut ratio = Table::new(
        "fig9",
        "BucketBound relative ratio vs β",
        vec!["β", "vs OSScaling ε=0.1", "vs OSScaling ε=0.5 (< β)"],
    );
    for &beta in &ctx.profile.betas {
        let runs = run_all(
            &engine,
            &queries,
            &SearchRequest::new(Algo::BucketBound(BucketBoundParams::with(0.5, beta))),
        );
        runtime.push_row(vec![format!("{beta}"), fmt_ms(mean_ms(&runs))]);
        ratio.push_row(vec![
            format!("{beta}"),
            fmt_ratio(relative_ratio(&runs, &base01)),
            fmt_ratio(relative_ratio(&runs, &base05)),
        ]);
    }
    vec![runtime, ratio]
}

/// Figures 14–15: `OSScaling` and `BucketBound` configured to the *same*
/// theoretical approximation ratio (2–10): runtime and relative ratio
/// (base: `OSScaling` ε = 0.1). ε is derived per algorithm:
/// `1/(1−ε) = bound` and `β/(1−ε) = bound` with β = 1.2.
pub fn fig14_15(ctx: &Context) -> Vec<Table> {
    let (graph, queries) = default_queries(ctx);
    let engine = KorEngine::new(&graph);
    let base = run_all(
        &engine,
        &queries,
        &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.1))),
    );
    let mut runtime = Table::new(
        "fig14",
        "Runtime at equal theoretical bounds (m = 6, Δ = 6 km)",
        vec!["bound", "OSScaling (ms)", "BucketBound (ms)"],
    );
    let mut ratio = Table::new(
        "fig15",
        "Relative ratio at equal theoretical bounds (base: ε = 0.1)",
        vec!["bound", "OSScaling", "BucketBound"],
    );
    for &bound in &ctx.profile.equal_bounds {
        let eps_os = OsScalingParams::epsilon_for_ratio(bound);
        let eps_bb = BucketBoundParams::epsilon_for_ratio(bound, 1.2);
        let os_runs = run_all(
            &engine,
            &queries,
            &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(eps_os))),
        );
        let bb_runs = run_all(
            &engine,
            &queries,
            &SearchRequest::new(Algo::BucketBound(BucketBoundParams::with(eps_bb, 1.2))),
        );
        runtime.push_row(vec![
            format!("{bound}"),
            fmt_ms(mean_ms(&os_runs)),
            fmt_ms(mean_ms(&bb_runs)),
        ]);
        ratio.push_row(vec![
            format!("{bound}"),
            fmt_ratio(relative_ratio(&os_runs, &base)),
            fmt_ratio(relative_ratio(&bb_runs, &base)),
        ]);
    }
    vec![runtime, ratio]
}
