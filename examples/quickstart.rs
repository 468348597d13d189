//! Quickstart: the paper's running example (Figure 1 / Example 2),
//! end to end.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use kor::graph::fixtures::{figure1, t, v};
use kor::prelude::*;

fn main() {
    // The Figure-1 graph of the paper: 8 locations, keywords t1..t5, two
    // weights per edge (objective, budget).
    let graph = figure1();
    println!("Graph:\n{}\n", graph.stats());

    let engine = KorEngine::new(&graph);

    // Example 2 of the paper: Q = ⟨v0, v7, {t1, t2}, Δ = 10⟩, ε = 0.5.
    let query = KorQuery::new(&graph, v(0), v(7), vec![t(1), t(2)], 10.0).expect("valid query");

    println!(
        "Query: from {} to {} covering {{t1, t2}} within Δ = 10\n",
        v(0),
        v(7)
    );

    // Every search is one `SearchRequest` through `KorEngine::search`.
    let searches = [
        // OSScaling (Algorithm 1) — 1/(1−ε) approximation.
        (
            "OSScaling (ε = 0.5)",
            Algo::OsScaling(OsScalingParams::default()),
        ),
        // BucketBound (Algorithm 2) — β/(1−ε) approximation, faster.
        (
            "BucketBound (ε = 0.5, β = 1.2)",
            Algo::BucketBound(BucketBoundParams::default()),
        ),
        // Greedy (Algorithm 3) — no guarantee, fastest.
        ("Greedy-1 (α = 0.5)", Algo::Greedy(GreedyParams::default())),
        // Exact ground truth for this small instance.
        ("Exact", Algo::Exact),
    ];
    for (name, algo) in searches {
        let outcome = engine
            .search(&query, &SearchRequest::new(algo))
            .expect("valid parameters");
        match outcome.best() {
            Some(r) => println!(
                "{name}: {} OS = {} BS = {}  [{} labels] feasible = {}",
                r.route,
                r.objective,
                r.budget,
                outcome.stats.labels_created,
                outcome.is_feasible()
            ),
            None => println!("{name}: no feasible route"),
        }
    }

    // Top-3 routes (KkR, §3.5): the same search with k = 3.
    let topk = engine
        .search(
            &query,
            &SearchRequest {
                k: 3,
                ..SearchRequest::new(Algo::OsScaling(OsScalingParams::default()))
            },
        )
        .unwrap();
    println!("\nTop-3 routes (KkR):");
    for (i, r) in topk.routes.iter().enumerate() {
        println!(
            "  #{}: {} OS = {} BS = {}",
            i + 1,
            r.route,
            r.objective,
            r.budget
        );
    }
}
