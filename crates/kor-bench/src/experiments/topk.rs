//! Figure 16: KkR (top-k) runtime as k grows.

use kor_core::{Algo, BucketBoundParams, OsScalingParams, SearchRequest};

use crate::context::Context;
use crate::report::{fmt_ms, Table};
use crate::runner::{mean_ms, run_algo, to_query, QueryRun};

/// Figure 16: runtime of the KkR variants of `OSScaling` and
/// `BucketBound` for k = 1…5 (ε = 0.5, β = 1.2, Δ = 6 km, averaged over
/// all keyword counts).
pub fn fig16(ctx: &Context) -> Vec<Table> {
    let graph = ctx.flickr();
    let engine = kor_core::KorEngine::new(&graph);
    let sets = ctx.workload(&graph, &ctx.profile.keyword_counts);
    let delta = ctx.profile.default_delta_km;
    let queries: Vec<_> = sets
        .iter()
        .flat_map(|set| set.queries.iter().map(|s| to_query(&graph, s, delta)))
        .collect();

    let mut table = Table::new(
        "fig16",
        "KkR runtime vs k (ε = 0.5, β = 1.2, Δ = 6 km)",
        vec!["k", "OSScaling (ms)", "BucketBound (ms)"],
    );
    for &k in &ctx.profile.ks {
        let runs = |algo: Algo| -> Vec<QueryRun> {
            let request = SearchRequest {
                k,
                ..SearchRequest::new(algo)
            };
            queries
                .iter()
                .map(|q| run_algo(&engine, q, &request))
                .collect()
        };
        let os = runs(Algo::OsScaling(OsScalingParams::default()));
        let bb = runs(Algo::BucketBound(BucketBoundParams::default()));
        table.push_row(vec![
            k.to_string(),
            fmt_ms(mean_ms(&os)),
            fmt_ms(mean_ms(&bb)),
        ]);
    }
    vec![table]
}
