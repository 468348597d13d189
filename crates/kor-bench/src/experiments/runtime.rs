//! Runtime experiments: Figures 4–5 (Flickr), 17 (scalability), and
//! 18–19 (synthetic road dataset).

use kor_core::{KorEngine, SearchRequest};
use kor_graph::Graph;

use crate::context::Context;
use crate::report::{fmt_ms, Table};
use crate::runner::{default_algos, label, mean_ms, run_algo, to_query, QueryRun};

/// Shared sweep: for every keyword set and every Δ, run all algorithms;
/// returns `runs[algo][m_index][delta_index]`.
fn keyword_delta_grid(
    graph: &Graph,
    ctx: &Context,
    keyword_counts: &[usize],
    deltas: &[f64],
    algos: &[SearchRequest],
    road: bool,
) -> Vec<Vec<Vec<Vec<QueryRun>>>> {
    let engine = KorEngine::new(graph);
    let sets = if road {
        ctx.road_workload(graph, keyword_counts)
    } else {
        ctx.workload(graph, keyword_counts)
    };
    let mut runs: Vec<Vec<Vec<Vec<QueryRun>>>> = algos
        .iter()
        .map(|_| {
            keyword_counts
                .iter()
                .map(|_| deltas.iter().map(|_| Vec::new()).collect())
                .collect()
        })
        .collect();
    for (mi, set) in sets.iter().enumerate() {
        for (di, &delta) in deltas.iter().enumerate() {
            for spec in &set.queries {
                let query = to_query(graph, spec, delta);
                for (ai, algo) in algos.iter().enumerate() {
                    runs[ai][mi][di].push(run_algo(&engine, &query, algo));
                }
            }
        }
    }
    runs
}

fn runtime_tables(
    ids: (&str, &str),
    titles: (&str, &str),
    keyword_counts: &[usize],
    deltas: &[f64],
    algos: &[SearchRequest],
    runs: &[Vec<Vec<Vec<QueryRun>>>],
) -> Vec<Table> {
    // First table: rows = keyword counts, averaged over all Δ.
    let mut headers = vec!["#keywords".to_string()];
    headers.extend(algos.iter().map(|a| format!("{} (ms)", label(a))));
    let mut by_m = Table::new(ids.0, titles.0, headers);
    for (mi, m) in keyword_counts.iter().enumerate() {
        let mut row = vec![m.to_string()];
        for algo_runs in runs {
            let flat: Vec<QueryRun> = algo_runs[mi].iter().flatten().copied().collect();
            row.push(fmt_ms(mean_ms(&flat)));
        }
        by_m.push_row(row);
    }
    // Second table: rows = Δ, averaged over all keyword counts.
    let mut headers = vec!["Δ (km)".to_string()];
    headers.extend(algos.iter().map(|a| format!("{} (ms)", label(a))));
    let mut by_delta = Table::new(ids.1, titles.1, headers);
    for (di, delta) in deltas.iter().enumerate() {
        let mut row = vec![format!("{delta}")];
        for algo_runs in runs {
            let flat: Vec<QueryRun> = algo_runs
                .iter()
                .flat_map(|per_m| per_m[di].iter())
                .copied()
                .collect();
            row.push(fmt_ms(mean_ms(&flat)));
        }
        by_delta.push_row(row);
    }
    vec![by_m, by_delta]
}

/// Figures 4–5: runtime on the Flickr-like dataset, varying the number
/// of query keywords (averaged over Δ ∈ {3,…,15} km) and varying Δ
/// (averaged over m ∈ {2,…,10}).
pub fn fig4_5(ctx: &Context) -> Vec<Table> {
    let graph = ctx.flickr();
    let algos = default_algos();
    let runs = keyword_delta_grid(
        &graph,
        ctx,
        &ctx.profile.keyword_counts,
        &ctx.profile.flickr_deltas_km,
        &algos,
        false,
    );
    runtime_tables(
        ("fig4", "fig5"),
        (
            "Runtime vs number of query keywords (Flickr-like)",
            "Runtime vs budget limit Δ (Flickr-like)",
        ),
        &ctx.profile.keyword_counts,
        &ctx.profile.flickr_deltas_km,
        &algos,
        &runs,
    )
}

/// Figure 17: scalability — runtime of all algorithms over road networks
/// of increasing size (m = 6, Δ = 30 km).
pub fn fig17(ctx: &Context) -> Vec<Table> {
    let algos = default_algos();
    let mut headers = vec!["nodes".to_string()];
    headers.extend(algos.iter().map(|a| format!("{} (ms)", label(a))));
    let mut table = Table::new(
        "fig17",
        "Scalability: runtime vs road-network size (m = 6, Δ = 30 km)",
        headers,
    );
    for &size in &ctx.profile.road_sizes {
        let graph = ctx.road(size);
        let engine = KorEngine::new(&graph);
        let sets = ctx.road_workload(&graph, &[ctx.profile.default_keywords]);
        let mut row = vec![size.to_string()];
        for algo in &algos {
            let mut runs = Vec::new();
            for spec in &sets[0].queries {
                let query = to_query(&graph, spec, ctx.profile.road_delta_km);
                runs.push(run_algo(&engine, &query, algo));
            }
            row.push(fmt_ms(mean_ms(&runs)));
        }
        table.push_row(row);
    }
    vec![table]
}

/// Figures 18–19: the Figures 4–5 sweep repeated on the smallest road
/// network (the paper's synthetic 5k-node dataset).
pub fn fig18_19(ctx: &Context) -> Vec<Table> {
    let graph = ctx.road(ctx.profile.road_sizes[0]);
    let algos = default_algos();
    let runs = keyword_delta_grid(
        &graph,
        ctx,
        &ctx.profile.keyword_counts,
        &ctx.profile.road_deltas_km,
        &algos,
        true,
    );
    runtime_tables(
        ("fig18", "fig19"),
        (
            "Runtime vs number of query keywords (synthetic road)",
            "Runtime vs budget limit Δ (synthetic road)",
        ),
        &ctx.profile.keyword_counts,
        &ctx.profile.road_deltas_km,
        &algos,
        &runs,
    )
}
