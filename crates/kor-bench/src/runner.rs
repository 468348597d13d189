//! Measurement helpers shared by all experiments.

use std::time::Instant;

use kor_core::{
    Algo, BucketBoundParams, GreedyParams, KorEngine, KorQuery, OsScalingParams, SearchRequest,
};
use kor_data::QuerySpec;
use kor_graph::Graph;

/// Display name of a request in table headers: the paper's algorithm
/// name, `Greedy-<beam>`, and a ` k=<k>` suffix for KkR requests.
pub fn label(request: &SearchRequest) -> String {
    let name = match &request.algo {
        Algo::OsScaling(_) => "OSScaling".into(),
        Algo::BucketBound(_) => "BucketBound".into(),
        Algo::Exact => "Exact".into(),
        Algo::Greedy(p) => format!("Greedy-{}", p.beam_width),
    };
    match request.k {
        1 => name,
        k => format!("{name} k={k}"),
    }
}

/// The figures' default line-up at the paper's defaults (ε = 0.5,
/// β = 1.2, α = 0.5): OSScaling, BucketBound, Greedy-2, Greedy-1.
pub fn default_algos() -> Vec<SearchRequest> {
    [
        Algo::OsScaling(OsScalingParams::default()),
        Algo::BucketBound(BucketBoundParams::default()),
        Algo::Greedy(GreedyParams::with_beam(2)),
        Algo::Greedy(GreedyParams::with_beam(1)),
    ]
    .into_iter()
    .map(SearchRequest::new)
    .collect()
}

/// Outcome of one (algorithm, query) measurement.
#[derive(Debug, Clone, Copy)]
pub struct QueryRun {
    /// Whether a feasible route was produced (for greedy: both hard
    /// constraints met).
    pub feasible: bool,
    /// The objective score of the returned feasible route.
    pub objective: Option<f64>,
    /// Wall-clock time in microseconds.
    pub micros: u64,
}

/// Runs one request on one query. A greedy route that breaks a hard
/// constraint counts as a failure.
pub fn run_algo<G: AsRef<kor_graph::Graph>>(
    engine: &KorEngine<G>,
    query: &KorQuery,
    request: &SearchRequest,
) -> QueryRun {
    let start = Instant::now();
    let outcome = engine.search(query, request).expect("valid params");
    let feasible = outcome.is_feasible();
    QueryRun {
        feasible,
        objective: outcome.best().filter(|_| feasible).map(|r| r.objective),
        micros: start.elapsed().as_micros() as u64,
    }
}

/// Instantiates a spec with a budget.
pub fn to_query(graph: &Graph, spec: &QuerySpec, delta: f64) -> KorQuery {
    KorQuery::new(
        graph,
        spec.source,
        spec.target,
        spec.keywords.clone(),
        delta,
    )
    .expect("generated specs are valid")
}

/// Mean runtime in milliseconds.
pub fn mean_ms(runs: &[QueryRun]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(|r| r.micros as f64).sum::<f64>() / runs.len() as f64 / 1_000.0
}

/// Mean ratio `run.objective / base.objective` over queries where both
/// sides found a feasible route (the paper's relative-ratio measure).
pub fn relative_ratio(runs: &[QueryRun], base: &[QueryRun]) -> f64 {
    assert_eq!(runs.len(), base.len(), "ratio needs aligned run vectors");
    let mut sum = 0.0;
    let mut n = 0usize;
    for (r, b) in runs.iter().zip(base) {
        if let (Some(ro), Some(bo)) = (r.objective, b.objective) {
            if bo > 0.0 {
                sum += ro / bo;
                n += 1;
            }
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Percentage of queries with no feasible answer from this algorithm,
/// among queries the reference found feasible (the paper's greedy
/// failure percentage).
pub fn failure_pct(runs: &[QueryRun], base: &[QueryRun]) -> f64 {
    assert_eq!(runs.len(), base.len());
    let mut failures = 0usize;
    let mut total = 0usize;
    for (r, b) in runs.iter().zip(base) {
        if b.feasible {
            total += 1;
            if !r.feasible {
                failures += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * failures as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, t, v};

    fn run(feasible: bool, objective: Option<f64>, micros: u64) -> QueryRun {
        QueryRun {
            feasible,
            objective,
            micros,
        }
    }

    #[test]
    fn mean_ms_averages() {
        let runs = vec![run(true, Some(1.0), 1000), run(true, Some(2.0), 3000)];
        assert!((mean_ms(&runs) - 2.0).abs() < 1e-12);
        assert_eq!(mean_ms(&[]), 0.0);
    }

    #[test]
    fn relative_ratio_skips_infeasible() {
        let base = vec![
            run(true, Some(2.0), 0),
            run(false, None, 0),
            run(true, Some(4.0), 0),
        ];
        let runs = vec![
            run(true, Some(3.0), 0),
            run(true, Some(9.0), 0),
            run(false, None, 0),
        ];
        // only the first pair counts: 3/2
        assert!((relative_ratio(&runs, &base) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn failure_pct_counts_reference_feasible_only() {
        let base = vec![
            run(true, Some(1.0), 0),
            run(true, Some(1.0), 0),
            run(false, None, 0),
        ];
        let runs = vec![
            run(false, None, 0),
            run(true, Some(2.0), 0),
            run(false, None, 0),
        ];
        assert!((failure_pct(&runs, &base) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn run_algo_measures_all_variants() {
        let g = figure1();
        let engine = KorEngine::new(&g);
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        for request in default_algos() {
            let r = run_algo(&engine, &q, &request);
            assert!(r.feasible, "{}", label(&request));
            assert!(r.objective.unwrap() > 0.0);
        }
        for (algo, k) in [
            (Algo::OsScaling(OsScalingParams::default()), 3),
            (Algo::BucketBound(BucketBoundParams::default()), 2),
        ] {
            let top = run_algo(
                &engine,
                &q,
                &SearchRequest {
                    k,
                    ..SearchRequest::new(algo)
                },
            );
            assert!(top.feasible);
        }
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(label(&default_algos()[0]), "OSScaling");
        assert_eq!(label(&default_algos()[2]), "Greedy-2");
        let top = SearchRequest {
            k: 4,
            ..SearchRequest::new(Algo::BucketBound(BucketBoundParams::default()))
        };
        assert_eq!(label(&top), "BucketBound k=4");
    }
}
