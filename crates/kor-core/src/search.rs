//! The one search entry point: a typed [`SearchRequest`] in, a typed
//! [`SearchOutcome`] out.
//!
//! The paper runs four searches — `OSScaling`, `BucketBound`, the
//! greedy heuristic and the exact ground truth — and its KkR extension
//! (§3.5) is the same label search with k-dominance, so `k` is a field
//! of the request rather than a separate algorithm. Every front end
//! (the engine, the serve handler, the CLI, the benches) builds an
//! [`Algo`] and a [`SearchRequest`] and calls [`crate::KorEngine::search`];
//! [`search_uncached`] runs the same request with no warm state as the
//! reference the warm ≡ cold batteries compare against.

use std::time::Instant;

use kor_graph::Graph;
use kor_index::InvertedIndex;

use crate::cache::PreprocessCache;
use crate::error::KorError;
use crate::greedy::{greedy_search, GreedyParams, GreedyRoute};
use crate::label::LabelSnapshot;
use crate::labeling::{label_search, LabelAlgo};
use crate::params::{BucketBoundParams, OsScalingParams, ScaleAnchor};
use crate::query::KorQuery;
use crate::result::{RouteResult, SearchResult};
use crate::stats::SearchStats;

/// A search algorithm with its tuning parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Algo {
    /// `OSScaling` (Algorithm 1), the `1/(1−ε)`-approximation.
    OsScaling(OsScalingParams),
    /// `BucketBound` (Algorithm 2), the `β/(1−ε)`-approximation.
    BucketBound(BucketBoundParams),
    /// Exact optimum via label dominance on unscaled scores.
    Exact,
    /// The α-weighted greedy heuristic (Algorithm 3).
    Greedy(GreedyParams),
}

/// The knobs a request may set, in the order they are checked.
const KNOBS: [&str; 4] = ["epsilon", "beta", "alpha", "beam"];

impl Algo {
    /// The algorithm's wire/CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::OsScaling(_) => "os-scaling",
            Algo::BucketBound(_) => "bucket-bound",
            Algo::Exact => "exact",
            Algo::Greedy(_) => "greedy",
        }
    }

    /// Builds the algorithm named `name` from optional tuning knobs.
    /// Omitted knobs take the `*Params::default()` values, so every
    /// front end shares one set of defaults.
    ///
    /// # Errors
    ///
    /// [`KorError::InvalidBeamWidth`] for `beam = 0`,
    /// [`KorError::UnknownAlgo`] for an unknown name, and
    /// [`KorError::KnobNotApplicable`] for a knob the algorithm never
    /// reads (a client bug of the same class as a misspelled key).
    /// Range checks on the knob values happen when the search runs.
    pub fn from_knobs(
        name: &str,
        epsilon: Option<f64>,
        beta: Option<f64>,
        alpha: Option<f64>,
        beam: Option<usize>,
    ) -> Result<Algo, KorError> {
        if beam == Some(0) {
            return Err(KorError::InvalidBeamWidth);
        }
        let (algo, applies) = match name {
            "os-scaling" => {
                let mut p = OsScalingParams::default();
                p.epsilon = epsilon.unwrap_or(p.epsilon);
                (Algo::OsScaling(p), [true, false, false, false])
            }
            "bucket-bound" => {
                let mut p = BucketBoundParams::default();
                p.epsilon = epsilon.unwrap_or(p.epsilon);
                p.beta = beta.unwrap_or(p.beta);
                (Algo::BucketBound(p), [true, true, false, false])
            }
            "exact" => (Algo::Exact, [false; 4]),
            "greedy" => {
                let mut p = GreedyParams::default();
                p.alpha = alpha.unwrap_or(p.alpha);
                p.beam_width = beam.unwrap_or(p.beam_width);
                (Algo::Greedy(p), [false, false, true, true])
            }
            other => return Err(KorError::UnknownAlgo(other.to_string())),
        };
        let given = [
            epsilon.is_some(),
            beta.is_some(),
            alpha.is_some(),
            beam.is_some(),
        ];
        match (0..KNOBS.len()).find(|&i| given[i] && !applies[i]) {
            Some(i) => Err(KorError::KnobNotApplicable {
                knob: KNOBS[i],
                algo: algo.name(),
            }),
            None => Ok(algo),
        }
    }

    /// Whether the algorithm can answer on a shard subgraph: the label
    /// searches can; greedy cannot, because its forward `τ` trees consult
    /// paths that may cross shards even when the final route would not.
    pub fn runs_shard_locally(&self) -> bool {
        !matches!(self, Algo::Greedy(_))
    }

    /// This algorithm with its scaling extrema pinned to `anchor` (see
    /// [`ScaleAnchor`]). Only the scaled searches read an anchor.
    pub fn anchored(&self, anchor: ScaleAnchor) -> Algo {
        let mut algo = self.clone();
        match &mut algo {
            Algo::OsScaling(p) => p.anchor = Some(anchor),
            Algo::BucketBound(p) => p.anchor = Some(anchor),
            Algo::Exact | Algo::Greedy(_) => {}
        }
        algo
    }
}

/// One search: which algorithm, how many routes, and until when.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// The algorithm and its parameters.
    pub algo: Algo,
    /// Number of routes wanted (KkR, §3.5). `1` asks for the single best
    /// route; `k > 1` is supported by the two scaled label searches.
    pub k: usize,
    /// Abort the label search with [`KorError::DeadlineExceeded`] once
    /// this instant passes (checked at the first queue pop, then every
    /// 1024th). `None` runs to exhaustion. The greedy heuristic does no
    /// label search and ignores it.
    pub deadline: Option<Instant>,
}

impl SearchRequest {
    /// A request for the single best route with no deadline.
    pub fn new(algo: Algo) -> Self {
        Self {
            algo,
            k: 1,
            deadline: None,
        }
    }

    /// Checks `k` against the algorithm: `k = 0` is never valid, and
    /// `exact` and `greedy` return a single route.
    fn validate(&self) -> Result<(), KorError> {
        if self.k == 0 {
            return Err(KorError::InvalidK);
        }
        if self.k > 1 && matches!(self.algo, Algo::Exact | Algo::Greedy(_)) {
            return Err(KorError::TopKUnsupported(self.algo.name()));
        }
        Ok(())
    }
}

/// What a search found.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Up to `k` routes in ascending objective order; empty when no
    /// route was found.
    pub routes: Vec<RouteResult>,
    /// Label-search counters (all zero for greedy).
    pub stats: SearchStats,
    /// Snapshots of every label created, in creation order (only when
    /// the params asked for `collect_labels`).
    pub labels: Vec<LabelSnapshot>,
    /// Greedy only: `(covers_keywords, within_budget)` of the returned
    /// route, which — unlike a label search's — may violate either hard
    /// constraint. `None` for label searches and when greedy found no
    /// route.
    pub greedy_flags: Option<(bool, bool)>,
}

impl SearchOutcome {
    /// The best route, if any.
    pub fn best(&self) -> Option<&RouteResult> {
        self.routes.first()
    }

    /// Whether a route was found that meets both hard constraints.
    pub fn is_feasible(&self) -> bool {
        !self.routes.is_empty() && self.greedy_flags.is_none_or(|(c, w)| c && w)
    }

    fn from_greedy(route: Option<GreedyRoute>) -> Self {
        match route {
            Some(g) => Self {
                greedy_flags: Some((g.covers_keywords, g.within_budget)),
                routes: vec![RouteResult {
                    route: g.route,
                    objective: g.objective,
                    budget: g.budget,
                }],
                ..Self::default()
            },
            None => Self::default(),
        }
    }

    /// The greedy heuristic's view of this outcome: the route with its
    /// constraint flags (both `true` for label-search routes).
    pub(crate) fn into_greedy(self) -> Option<GreedyRoute> {
        let (covers_keywords, within_budget) = self.greedy_flags.unwrap_or((true, true));
        self.routes.into_iter().next().map(|r| GreedyRoute {
            route: r.route,
            objective: r.objective,
            budget: r.budget,
            covers_keywords,
            within_budget,
        })
    }
}

impl From<SearchOutcome> for SearchResult {
    /// Keeps the best route (a `k = 1` outcome has at most one).
    fn from(outcome: SearchOutcome) -> Self {
        SearchResult {
            route: outcome.routes.into_iter().next(),
            stats: outcome.stats,
            labels: outcome.labels,
        }
    }
}

/// Runs `request` with no warm state: every backward tree is rebuilt,
/// no landmark bounds are consulted, keyword reach is computed in one
/// combined pass, and greedy builds each forward tree once. Answers are
/// byte-identical to [`crate::KorEngine::search`]; this is the reference
/// path the warm ≡ cold checks compare against.
///
/// # Errors
///
/// As [`crate::KorEngine::search`].
pub fn search_uncached(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    request: &SearchRequest,
) -> Result<SearchOutcome, KorError> {
    run(graph, index, query, request, None)
}

/// Validates `request` and dispatches it to its algorithm.
pub(crate) fn run(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    request: &SearchRequest,
    cache: Option<&PreprocessCache>,
) -> Result<SearchOutcome, KorError> {
    request.validate()?;
    let labels = |algo, params: &OsScalingParams| {
        label_search(graph, index, query, algo, params, request, cache)
    };
    match &request.algo {
        Algo::OsScaling(p) => {
            p.validate()?;
            labels(LabelAlgo::OsScaling, p)
        }
        Algo::BucketBound(p) => {
            p.validate()?;
            // Algorithm 1's knobs, plus β.
            let scaling = OsScalingParams {
                epsilon: p.epsilon,
                use_opt1: p.use_opt1,
                use_opt2: p.use_opt2,
                infrequent_threshold: p.infrequent_threshold,
                collect_labels: p.collect_labels,
                anchor: p.anchor,
            };
            labels(LabelAlgo::BucketBound(p.beta), &scaling)
        }
        Algo::Exact => labels(LabelAlgo::Exact, &OsScalingParams::default()),
        Algo::Greedy(p) => {
            greedy_search(graph, index, query, p, cache).map(SearchOutcome::from_greedy)
        }
    }
}

/// A cold single-route search, the unit tests' reference answer.
#[cfg(test)]
pub(crate) fn single(
    g: &Graph,
    idx: &InvertedIndex,
    q: &KorQuery,
    algo: Algo,
) -> Result<SearchResult, KorError> {
    search_uncached(g, idx, q, &SearchRequest::new(algo)).map(SearchResult::from)
}

/// Every algorithm at its default parameters.
#[cfg(test)]
pub(crate) fn every_algo() -> [Algo; 4] {
    [
        Algo::OsScaling(OsScalingParams::default()),
        Algo::BucketBound(BucketBoundParams::default()),
        Algo::Exact,
        Algo::Greedy(GreedyParams::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, t, v};

    #[test]
    fn request_validation_matches_the_wire_text() {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let run = |algo: &Algo, k: usize| {
            search_uncached(
                &g,
                &idx,
                &q,
                &SearchRequest {
                    k,
                    ..SearchRequest::new(algo.clone())
                },
            )
        };
        for algo in &every_algo() {
            let err = run(algo, 0).unwrap_err();
            assert_eq!(err, KorError::InvalidK, "{}", algo.name());
            assert_eq!(err.to_string(), "\"k\" must be ≥ 1");
            assert!(run(algo, 1).is_ok(), "{}", algo.name());
            let top2 = run(algo, 2);
            match algo {
                Algo::Exact | Algo::Greedy(_) => assert_eq!(
                    top2.unwrap_err().to_string(),
                    format!("\"{}\" does not support k > 1", algo.name())
                ),
                _ => assert!(top2.is_ok(), "{}", algo.name()),
            }
        }

        // Each rejected knob combination → the serve's error text.
        let knobs = Algo::from_knobs;
        let rejected = [
            (
                knobs("greedy", None, None, None, Some(0)),
                "\"beam\" must be ≥ 1",
            ),
            (
                knobs("nosuch", None, None, None, Some(0)),
                "\"beam\" must be ≥ 1",
            ),
            (
                knobs("nosuch", None, None, None, None),
                "unknown algo \"nosuch\" (expected os-scaling, bucket-bound, exact, or greedy)",
            ),
            (
                knobs("exact", Some(0.9), None, None, None),
                "\"epsilon\" does not apply to algo \"exact\"",
            ),
            (
                knobs("os-scaling", None, Some(1.5), Some(0.5), None),
                "\"beta\" does not apply to algo \"os-scaling\"",
            ),
            (
                knobs("bucket-bound", None, None, None, Some(2)),
                "\"beam\" does not apply to algo \"bucket-bound\"",
            ),
            (
                knobs("greedy", Some(0.5), None, None, None),
                "\"epsilon\" does not apply to algo \"greedy\"",
            ),
            (
                knobs("greedy", None, Some(1.5), None, None),
                "\"beta\" does not apply to algo \"greedy\"",
            ),
        ];
        for (got, text) in rejected {
            assert_eq!(got.unwrap_err().to_string(), text);
        }
    }

    #[test]
    fn knobs_fill_from_the_params_defaults() {
        assert_eq!(
            Algo::from_knobs("os-scaling", None, None, None, None),
            Ok(Algo::OsScaling(OsScalingParams::default()))
        );
        assert_eq!(
            Algo::from_knobs("bucket-bound", None, Some(1.5), None, None),
            Ok(Algo::BucketBound(BucketBoundParams {
                beta: 1.5,
                ..BucketBoundParams::default()
            }))
        );
        assert_eq!(
            Algo::from_knobs("greedy", None, None, Some(0.25), Some(2)),
            Ok(Algo::Greedy(GreedyParams {
                alpha: 0.25,
                beam_width: 2,
                ..GreedyParams::default()
            }))
        );
        // Names round-trip; only the scaled searches take an anchor.
        let anchor = ScaleAnchor::of(&figure1());
        for algo in every_algo() {
            let name = algo.name();
            assert_eq!(
                Algo::from_knobs(name, None, None, None, None),
                Ok(algo.clone())
            );
            assert_eq!(algo.runs_shard_locally(), name != "greedy");
            match algo.anchored(anchor) {
                Algo::OsScaling(p) => assert_eq!(p.anchor, Some(anchor)),
                Algo::BucketBound(p) => assert_eq!(p.anchor, Some(anchor)),
                other => assert_eq!(other, algo),
            }
        }
    }
}
