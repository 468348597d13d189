//! Non-figure experiments: the Table-1 golden trace, the §4.2.7 example
//! routes, the optimization-strategy ablation, and the brute-force
//! comparison.

use std::time::Instant;

use kor_core::{
    brute_force, Algo, BruteForceParams, BucketBoundParams, KorEngine, KorQuery, OsScalingParams,
    SearchRequest,
};
use kor_data::{generate_roadnet, RoadNetConfig};
use kor_graph::fixtures::{figure1, t, v};
use kor_graph::QueryKeywords;

use crate::context::Context;
use crate::report::{fmt_ms, fmt_ratio, Table};
use crate::runner::{mean_ms, run_algo, to_query, QueryRun};

/// Table 1 of the paper: the label contents generated by `OSScaling` on
/// Example 2 (`Q = ⟨v0, v7, {t1, t2}, 10⟩`, ε = 0.5). The harness
/// re-derives the labels from the implementation and *asserts* the nine
/// published (node, λ, OS, BS) tuples are among them.
///
/// The paper scales by θ = ε·o_min·b_min/Δ = 1/20; the engine scales by
/// θ = ε·τ(s,t)·b_min/Δ with τ(v0, v7) = 4, so θ = 1/5 (see
/// `kor_core::Scaler::for_query`). Figure 1's objectives are integers,
/// so every ÔS at θ = 1/5 is exactly the paper's value ÷ 4, and the
/// table shows both.
pub fn table1(_ctx: &Context) -> Vec<Table> {
    let graph = figure1();
    let engine = KorEngine::new(&graph);
    let query = KorQuery::new(&graph, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
    let params = OsScalingParams {
        use_opt1: false,
        use_opt2: false,
        collect_labels: true,
        ..OsScalingParams::default()
    };
    let result = engine.os_scaling(&query, &params).unwrap();

    // (label, node, λ, ÔS at the paper's θ = 1/20, OS, BS), verbatim.
    let expected: [(&str, u32, u64, u64, f64, f64); 9] = [
        ("L00", 0, 0b00, 0, 0.0, 0.0),
        ("L01", 1, 0b00, 80, 4.0, 1.0),
        ("L11", 1, 0b01, 60, 3.0, 4.0),
        ("L02", 2, 0b10, 20, 1.0, 3.0),
        ("L03", 3, 0b01, 40, 2.0, 2.0),
        ("L13", 3, 0b11, 80, 4.0, 5.0),
        ("L04", 4, 0b01, 60, 3.0, 4.0),
        ("L05", 5, 0b11, 100, 5.0, 4.0),
        ("L06", 6, 0b11, 40, 2.0, 4.0),
    ];
    let qk = QueryKeywords::new(vec![t(1), t(2)]).unwrap();
    let mut table = Table::new(
        "table1",
        "Label contents of Example 2 (ε = 0.5; ÔS at θ = ε·τ(v0,v7)·b_min/Δ = 1/5, \
         the paper's θ = 1/20 column ÷ 4) — all verified",
        vec![
            "label",
            "node",
            "λ",
            "ÔS (θ=1/5)",
            "paper ÔS (θ=1/20)",
            "OS",
            "BS",
        ],
    );
    for (name, node, mask, paper_scaled, os, bs) in expected {
        let scaled = paper_scaled / 4;
        let found = result.labels.iter().any(|l| {
            l.node == v(node)
                && l.mask == mask
                && l.scaled == scaled
                && l.objective == os
                && l.budget == bs
        });
        assert!(found, "paper label {name} missing from the trace");
        let lambda: Vec<String> = (0..qk.len() as u32)
            .filter(|b| mask & (1 << b) != 0)
            .map(|b| format!("t{}", qk.id_at(b).0 + 1))
            .collect();
        table.push_row(vec![
            name.to_string(),
            format!("v{node}"),
            if lambda.is_empty() {
                "∅".to_string()
            } else {
                lambda.join(",")
            },
            scaled.to_string(),
            paper_scaled.to_string(),
            format!("{os}"),
            format!("{bs}"),
        ]);
    }
    // The traced answer itself:
    let route = result.route.expect("Example 2 is feasible");
    let mut answer = Table::new(
        "table1-answer",
        "Example 2 result route",
        vec!["route", "OS", "BS"],
    );
    answer.push_row(vec![
        route.route.to_string(),
        format!("{}", route.objective),
        format!("{}", route.budget),
    ]);
    vec![table, answer]
}

/// Figures 20–21 analogue: find a workload query whose optimal route
/// changes when Δ shrinks from 9 km to 6 km, and show both routes (the
/// paper's Dewitt-Clinton-Park → UN-Headquarters example).
pub fn fig20_21(ctx: &Context) -> Vec<Table> {
    let graph = ctx.flickr();
    let engine = KorEngine::new(&graph);
    let sets = ctx.workload(&graph, &[4]);
    let mut table = Table::new(
        "fig20-21",
        "Example: the optimal route changes as Δ tightens (9 km → 6 km)",
        vec!["Δ (km)", "stops", "OS", "BS", "popularity"],
    );
    for spec in &sets[0].queries {
        let q9 = to_query(&graph, spec, 9.0);
        let q6 = to_query(&graph, spec, 6.0);
        let r9 = engine.os_scaling(&q9, &OsScalingParams::default()).unwrap();
        let r6 = engine.os_scaling(&q6, &OsScalingParams::default()).unwrap();
        if let (Some(a), Some(b)) = (&r9.route, &r6.route) {
            if a.route.nodes() != b.route.nodes() {
                for (delta, r) in [(9.0, a), (6.0, b)] {
                    table.push_row(vec![
                        format!("{delta}"),
                        r.route.len().to_string(),
                        format!("{:.3}", r.objective),
                        format!("{:.3}", r.budget),
                        format!("{:.3e}", (-r.objective).exp()),
                    ]);
                }
                // Like the paper: the 9 km route is more popular and gets
                // pruned at Δ = 6 km.
                assert!(b.objective >= a.objective - 1e-9);
                return vec![table];
            }
        }
    }
    table.push_row(vec![
        "n/a".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "no contrasting query in this workload".into(),
    ]);
    vec![table]
}

/// §4.2.1: "Without employing the optimization strategies, both
/// algorithms will be 3–5 times slower." Measures `OSScaling` and
/// `BucketBound` with and without Optimization Strategies 1–2.
pub fn ablation(ctx: &Context) -> Vec<Table> {
    let graph = ctx.flickr();
    let engine = KorEngine::new(&graph);
    let sets = ctx.workload(&graph, &[ctx.profile.default_keywords]);
    let queries: Vec<KorQuery> = sets[0]
        .queries
        .iter()
        .map(|s| to_query(&graph, s, ctx.profile.default_delta_km))
        .collect();

    let variants: [(&str, Algo); 4] = [
        (
            "OSScaling +opts",
            Algo::OsScaling(OsScalingParams::default()),
        ),
        (
            "OSScaling -opts",
            Algo::OsScaling(OsScalingParams::without_optimizations(0.5)),
        ),
        (
            "BucketBound +opts",
            Algo::BucketBound(BucketBoundParams::default()),
        ),
        (
            "BucketBound -opts",
            Algo::BucketBound(BucketBoundParams {
                use_opt1: false,
                use_opt2: false,
                ..BucketBoundParams::default()
            }),
        ),
    ];
    let mut table = Table::new(
        "ablation",
        "Optimization strategies 1–2 on/off (m = 6, Δ = 6 km)",
        vec!["variant", "runtime (ms)"],
    );
    let mut times = Vec::new();
    for (label, algo) in &variants {
        let request = SearchRequest::new(algo.clone());
        let runs: Vec<QueryRun> = queries
            .iter()
            .map(|q| run_algo(&engine, q, &request))
            .collect();
        let ms = mean_ms(&runs);
        times.push(ms);
        table.push_row(vec![(*label).to_string(), fmt_ms(ms)]);
    }
    let mut speedup = Table::new(
        "ablation-speedup",
        "Speed-up from the optimization strategies",
        vec!["algorithm", "speed-up ×"],
    );
    speedup.push_row(vec![
        "OSScaling".into(),
        fmt_ratio(times[1] / times[0].max(1e-9)),
    ]);
    speedup.push_row(vec![
        "BucketBound".into(),
        fmt_ratio(times[3] / times[2].max(1e-9)),
    ]);
    vec![table, speedup]
}

/// §4.2.1–4.2.2: the exhaustive baseline against `OSScaling` on a small
/// road network (the paper could not finish brute force on the full
/// datasets within a day).
pub fn brute(ctx: &Context) -> Vec<Table> {
    let graph = generate_roadnet(&RoadNetConfig {
        nodes: 60,
        area_km: 8.0,
        vocab_size: 40,
        seed: 17,
        ..RoadNetConfig::small()
    });
    let engine = KorEngine::new(&graph);
    let index = kor_index::InvertedIndex::build(&graph);
    let workload = kor_data::generate_workload(
        &graph,
        &index,
        &kor_data::WorkloadConfig {
            keyword_counts: vec![2],
            queries_per_set: ctx.profile.queries_per_set.min(10),
            frequency_weighted: true,
            max_euclidean_km: Some(4.0),
            min_doc_fraction: 0.0,
            seed: 3,
        },
    );
    let delta = 9.0;
    let mut brute_total = 0.0f64;
    let mut os_total = 0.0f64;
    let mut compared = 0usize;
    for spec in &workload[0].queries {
        let query = to_query(&graph, spec, delta);
        let start = Instant::now();
        let bf = brute_force(
            &graph,
            &query,
            &BruteForceParams {
                max_expansions: 50_000_000,
                target_pruning: false,
            },
        );
        let bf_ms = start.elapsed().as_secs_f64() * 1e3;
        let os_run = run_algo(
            &engine,
            &query,
            &SearchRequest::new(Algo::OsScaling(OsScalingParams::with_epsilon(0.1))),
        );
        if let Ok(bf) = bf {
            brute_total += bf_ms;
            os_total += os_run.micros as f64 / 1e3;
            compared += 1;
            // Sanity: OSScaling at ε=0.1 stays within its bound of the
            // true optimum.
            if let (Some(opt), Some(found)) = (bf.route.as_ref(), os_run.objective) {
                assert!(found <= opt.objective / 0.9 + 1e-9);
            }
        }
    }
    let mut table = Table::new(
        "brute",
        "Brute force vs OSScaling (60-node road network, m = 2)",
        vec!["measure", "value"],
    );
    table.push_row(vec!["queries compared".into(), compared.to_string()]);
    table.push_row(vec![
        "brute force mean (ms)".into(),
        fmt_ms(brute_total / compared.max(1) as f64),
    ]);
    table.push_row(vec![
        "OSScaling ε=0.1 mean (ms)".into(),
        fmt_ms(os_total / compared.max(1) as f64),
    ]);
    table.push_row(vec![
        "slowdown ×".into(),
        fmt_ratio(brute_total / os_total.max(1e-9)),
    ]);
    vec![table]
}
