//! The greedy heuristic (Algorithm 3).
//!
//! From the source, repeatedly pick the next node holding an uncovered
//! query keyword that minimizes Equation 1:
//!
//! ```text
//! score(v_j, R_i) = α·(R_i.OS + OS(τ_{i,j}) + OS(τ_{j,t}))
//!                 + (1−α)·(R_i.BS + BS(τ_{i,j}) + BS(τ_{j,t}))
//! ```
//!
//! until all keywords are selected, then finish with `τ` to the target.
//! `Greedy-b` explores a beam of the `b` best candidates per step (the
//! paper evaluates `b ∈ {1, 2}`). The default **keywords-first** variant
//! always covers the query keywords but may overrun the budget; the
//! **budget-first** variant (end of §3.4) never overruns the budget but
//! may leave keywords uncovered. Neither carries a performance guarantee.

use std::sync::Arc;

use kor_apsp::{QueryContext, Tree};
use kor_graph::{Graph, NodeId, Route};
use kor_index::InvertedIndex;

use crate::cache::PreprocessCache;
use crate::error::KorError;
use crate::query::KorQuery;

/// Which hard constraint the greedy heuristic refuses to violate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyMode {
    /// Always cover all query keywords; the budget may be exceeded
    /// (Algorithm 3 as printed).
    KeywordsFirst,
    /// Never exceed the budget; keywords may remain uncovered (the §3.4
    /// modification).
    BudgetFirst,
}

/// Parameters for the greedy heuristic.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyParams {
    /// Balance `α ∈ [0, 1]` between objective (α→1) and budget (α→0) in
    /// Equation 1.
    ///
    /// Note: the paper's prose description of the extremes is swapped
    /// relative to Equation 1; we follow the equation, where `α = 1`
    /// scores by objective only.
    pub alpha: f64,
    /// Beam width `b ≥ 1` (`Greedy-1`, `Greedy-2`, …).
    pub beam_width: usize,
    /// Hard-constraint priority.
    pub mode: GreedyMode,
}

impl Default for GreedyParams {
    /// The paper's default: `α = 0.5`, `Greedy-1`, keywords-first.
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beam_width: 1,
            mode: GreedyMode::KeywordsFirst,
        }
    }
}

impl GreedyParams {
    /// `Greedy-b` with the default α.
    pub fn with_beam(beam_width: usize) -> Self {
        Self {
            beam_width,
            ..Self::default()
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), KorError> {
        if !self.alpha.is_finite() || !(0.0..=1.0).contains(&self.alpha) {
            return Err(KorError::InvalidAlpha(self.alpha));
        }
        if self.beam_width == 0 {
            return Err(KorError::InvalidBeamWidth);
        }
        Ok(())
    }
}

/// A route produced by the greedy heuristic, which — unlike the
/// approximation algorithms — may violate either hard constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyRoute {
    /// The materialized route.
    pub route: Route,
    /// Objective score `OS(R)`.
    pub objective: f64,
    /// Budget score `BS(R)`.
    pub budget: f64,
    /// Whether the route covers all query keywords.
    pub covers_keywords: bool,
    /// Whether `BS(R) ≤ Δ`.
    pub within_budget: bool,
}

impl GreedyRoute {
    /// Whether both hard constraints hold.
    pub fn is_feasible(&self) -> bool {
        self.covers_keywords && self.within_budget
    }
}

/// One beam-search state: the chain of selected waypoints.
#[derive(Debug, Clone)]
struct State {
    waypoints: Vec<NodeId>,
    mask: u64,
    objective: f64,
    budget: f64,
}

/// Runs the greedy heuristic. Returns `Ok(None)` when the heuristic gets
/// stuck (target unreachable or no admissible candidate), which the paper
/// reports as a failed query. A supplied `cache` serves the to-target
/// backward tree pair and the forward trees from each waypoint.
pub(crate) fn greedy_search(
    graph: &Graph,
    index: &InvertedIndex,
    query: &KorQuery,
    params: &GreedyParams,
    cache: Option<&PreprocessCache>,
) -> Result<Option<GreedyRoute>, KorError> {
    params.validate()?;
    // Without a shared cache, a scratch one that never evicts holds this
    // call's trees, so each is still built at most once.
    let scratch;
    let cache = match cache {
        Some(cache) => cache,
        None => {
            scratch = PreprocessCache::with_capacity(usize::MAX);
            &scratch
        }
    };
    // All "to target" τ costs come from one backward tree; the forward
    // trees only answer the "from the current waypoint" legs.
    let (ctx, _) = cache.context(graph, query.target);
    if !ctx.reaches_target(query.source) {
        return Ok(None);
    }
    let init = State {
        waypoints: vec![query.source],
        mask: query.keywords.mask_of(graph.keywords(query.source)),
        objective: 0.0,
        budget: 0.0,
    };
    let mut complete: Vec<State> = Vec::new();
    explore(
        graph,
        index,
        cache,
        &ctx,
        query,
        params,
        init,
        &mut complete,
    );
    // Prefer feasible routes, then covering ones, then lowest objective.
    let best = complete.into_iter().min_by(|a, b| {
        let fa = rank(query, a);
        let fb = rank(query, b);
        fa.cmp(&fb)
            .then_with(|| a.objective.total_cmp(&b.objective))
            .then_with(|| a.budget.total_cmp(&b.budget))
    });
    Ok(best.and_then(|s| materialize(graph, cache, &ctx, query, &s)))
}

/// Rank 0: feasible; 1: covers keywords only; 2: within budget only;
/// 3: neither.
fn rank(query: &KorQuery, s: &State) -> u8 {
    let covers = query.keywords.is_covering(s.mask);
    let within = s.budget <= query.budget;
    match (covers, within) {
        (true, true) => 0,
        (true, false) => 1,
        (false, true) => 2,
        (false, false) => 3,
    }
}

#[allow(clippy::too_many_arguments)]
fn explore(
    graph: &Graph,
    index: &InvertedIndex,
    cache: &PreprocessCache,
    ctx: &QueryContext,
    query: &KorQuery,
    params: &GreedyParams,
    state: State,
    complete: &mut Vec<State>,
) {
    let cur = *state.waypoints.last().expect("states start at the source");
    if query.keywords.is_covering(state.mask) {
        finalize(ctx, query, params, state, cur, complete);
        return;
    }
    // Candidate nodes: all locations holding an uncovered query keyword
    // (Algorithm 3 lines 3–5), scored by Equation 1. The `τ` legs from
    // `cur` come from one forward tree, fetched on the first candidate.
    let mut legs: Option<Arc<Tree>> = None;
    let mut scored: Vec<(f64, NodeId, f64, f64)> = Vec::new();
    for (_, kw) in query.keywords.uncovered(state.mask) {
        for &j in index.postings(kw) {
            if scored.iter().any(|&(_, n, _, _)| n == j) {
                continue;
            }
            let legs = legs.get_or_insert_with(|| cache.forward_tree(graph, cur).0);
            if !legs.is_reachable(j) {
                continue;
            }
            let Some(finish) = ctx.tau_to_target(j) else {
                continue;
            };
            let (leg_obj, leg_bud) = (legs.objective(j), legs.budget(j));
            let total_bud = state.budget + leg_bud + finish.budget;
            if params.mode == GreedyMode::BudgetFirst && total_bud > query.budget {
                continue;
            }
            let total_obj = state.objective + leg_obj + finish.objective;
            let score = params.alpha * total_obj + (1.0 - params.alpha) * total_bud;
            scored.push((score, j, leg_obj, leg_bud));
        }
    }
    if scored.is_empty() {
        // Stuck (keywords-first) or budget exhausted (budget-first): head
        // straight to the target with what we have.
        finalize(ctx, query, params, state, cur, complete);
        return;
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    for &(_, j, leg_obj, leg_bud) in scored.iter().take(params.beam_width) {
        let mut next = state.clone();
        next.waypoints.push(j);
        next.mask |= query.keywords.mask_of(graph.keywords(j));
        next.objective += leg_obj;
        next.budget += leg_bud;
        explore(graph, index, cache, ctx, query, params, next, complete);
    }
}

/// Appends the final `τ(cur, t)` leg (lines 12–13) and records the state;
/// drops the branch if the target is unreachable. In budget-first mode a
/// completion that overruns `Δ` is dropped too — that mode's contract is
/// to never exceed the budget.
fn finalize(
    ctx: &QueryContext,
    query: &KorQuery,
    params: &GreedyParams,
    mut state: State,
    cur: NodeId,
    complete: &mut Vec<State>,
) {
    let Some(finish) = ctx.tau_to_target(cur) else {
        return;
    };
    state.objective += finish.objective;
    state.budget += finish.budget;
    if params.mode == GreedyMode::BudgetFirst && state.budget > query.budget {
        return;
    }
    state.waypoints.push(query.target);
    complete.push(state);
}

/// Concatenates the `τ` legs between consecutive waypoints into the full
/// route and re-derives exact scores and coverage from the graph.
fn materialize(
    graph: &Graph,
    cache: &PreprocessCache,
    ctx: &QueryContext,
    query: &KorQuery,
    state: &State,
) -> Option<GreedyRoute> {
    let mut route = Route::trivial(state.waypoints[0]);
    let n = state.waypoints.len();
    for (i, w) in state.waypoints.windows(2).enumerate() {
        // The final leg always ends at the target: reuse the backward
        // tree instead of building a forward tree from the last waypoint.
        let leg = if i + 2 == n {
            ctx.tau_route(w[0])?.nodes().to_vec()
        } else {
            let (tree, _) = cache.forward_tree(graph, w[0]);
            tree.walk_from_source(w[1])?
        };
        route.extend_with(&Route::new(leg));
    }
    let (objective, budget) = route.scores(graph).expect("τ legs follow graph edges");
    // Coverage from the actual route: intermediate nodes may cover extra
    // keywords beyond the selected waypoints.
    let covers_keywords = route.covers(graph, query.keywords.ids());
    Some(GreedyRoute {
        within_budget: budget <= query.budget,
        covers_keywords,
        objective,
        budget,
        route,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::{figure1, t, v};

    fn setup() -> (Graph, InvertedIndex) {
        let g = figure1();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    fn run(
        g: &Graph,
        idx: &InvertedIndex,
        q: &KorQuery,
        params: &GreedyParams,
    ) -> Option<GreedyRoute> {
        greedy_search(g, idx, q, params, None).unwrap()
    }

    #[test]
    fn covers_keywords_on_example_query() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 10.0).unwrap();
        let r = run(&g, &idx, &q, &GreedyParams::default()).expect("completes");
        assert!(r.covers_keywords);
        assert_eq!(r.route.nodes().first(), Some(&v(0)));
        assert_eq!(r.route.nodes().last(), Some(&v(7)));
        // scores must be the true route scores
        let (os, bs) = r.route.scores(&g).unwrap();
        assert_eq!((os, bs), (r.objective, r.budget));
    }

    #[test]
    fn greedy2_no_worse_than_greedy1() {
        let (g, idx) = setup();
        for delta in [6.0, 8.0, 10.0, 12.0] {
            let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], delta).unwrap();
            let g1 = run(&g, &idx, &q, &GreedyParams::with_beam(1));
            let g2 = run(&g, &idx, &q, &GreedyParams::with_beam(2));
            if let (Some(a), Some(b)) = (&g1, &g2) {
                if a.is_feasible() && b.is_feasible() {
                    assert!(b.objective <= a.objective + 1e-9, "delta={delta}");
                }
            }
        }
    }

    #[test]
    fn keywords_first_may_overrun_budget() {
        let (g, idx) = setup();
        // Δ = 5 is too tight for covering {t1, t2} (min feasible BS is 5
        // via ⟨v0,v3,v5,v7⟩ — greedy may or may not find it but must
        // still cover the keywords in KeywordsFirst mode).
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 5.0).unwrap();
        if let Some(r) = run(&g, &idx, &q, &GreedyParams::default()) {
            assert!(r.covers_keywords);
        }
    }

    #[test]
    fn budget_first_never_overruns() {
        let (g, idx) = setup();
        for delta in [4.0, 5.0, 7.0, 10.0] {
            let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], delta).unwrap();
            let params = GreedyParams {
                mode: GreedyMode::BudgetFirst,
                ..GreedyParams::default()
            };
            if let Some(r) = run(&g, &idx, &q, &params) {
                assert!(r.within_budget, "delta={delta}: budget {}", r.budget);
            }
        }
    }

    #[test]
    fn source_covering_all_goes_straight() {
        let (g, idx) = setup();
        // t3 is covered by v0 itself.
        let q = KorQuery::new(&g, v(0), v(7), vec![t(3)], 10.0).unwrap();
        let r = run(&g, &idx, &q, &GreedyParams::default()).expect("completes");
        assert_eq!(r.route.nodes(), &[v(0), v(3), v(4), v(7)]);
        assert_eq!(r.objective, 4.0);
        assert!(r.is_feasible());
    }

    #[test]
    fn unreachable_target_returns_none() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(1), v(7), vec![t(1)], 10.0).unwrap();
        assert!(run(&g, &idx, &q, &GreedyParams::default()).is_none());
    }

    #[test]
    fn unreachable_keyword_falls_back_to_partial_cover() {
        let (g, idx) = setup();
        // t5 (only at the sink v1) cannot be covered en route to v7;
        // greedy gets stuck and heads to the target without it.
        let q = KorQuery::new(&g, v(0), v(7), vec![t(5)], 10.0).unwrap();
        let r = run(&g, &idx, &q, &GreedyParams::default()).expect("reaches target");
        assert!(!r.covers_keywords);
        assert_eq!(r.route.nodes().last(), Some(&v(7)));
    }

    #[test]
    fn alpha_zero_prefers_cheap_budget() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1), t(2)], 12.0).unwrap();
        let budget_led = run(
            &g,
            &idx,
            &q,
            &GreedyParams {
                alpha: 0.0,
                ..GreedyParams::default()
            },
        )
        .unwrap();
        let objective_led = run(
            &g,
            &idx,
            &q,
            &GreedyParams {
                alpha: 1.0,
                ..GreedyParams::default()
            },
        )
        .unwrap();
        assert!(budget_led.budget <= objective_led.budget + 1e-9);
    }

    #[test]
    fn invalid_params_rejected() {
        let (g, idx) = setup();
        let q = KorQuery::new(&g, v(0), v(7), vec![t(1)], 10.0).unwrap();
        assert!(matches!(
            greedy_search(
                &g,
                &idx,
                &q,
                &GreedyParams {
                    alpha: 1.5,
                    ..GreedyParams::default()
                },
                None
            ),
            Err(KorError::InvalidAlpha(_))
        ));
        assert!(matches!(
            greedy_search(
                &g,
                &idx,
                &q,
                &GreedyParams {
                    beam_width: 0,
                    ..GreedyParams::default()
                },
                None
            ),
            Err(KorError::InvalidBeamWidth)
        ));
    }
}
