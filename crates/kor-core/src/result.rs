//! Result types for the search algorithms.

use kor_graph::Route;

use crate::label::LabelSnapshot;
use crate::stats::SearchStats;

/// A feasible route with its scores.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    /// The full route `⟨v_s, …, v_t⟩`.
    pub route: Route,
    /// Objective score `OS(R)`.
    pub objective: f64,
    /// Budget score `BS(R)`.
    pub budget: f64,
}

impl RouteResult {
    /// The route reduced to its exact bits — node ids and the IEEE-754
    /// bit patterns of both scores — for byte-identity checks.
    pub fn bits(&self) -> (Vec<u32>, u64, u64) {
        (
            self.route.nodes().iter().map(|n| n.0).collect(),
            self.objective.to_bits(),
            self.budget.to_bits(),
        )
    }
}

/// Outcome of a single-route search (`OSScaling`, `BucketBound`, exact,
/// brute force); the typed engine adapters and [`crate::brute_force`]
/// return it.
#[derive(Debug, Clone, Default)]
pub struct SearchResult {
    /// The best route found, or `None` when no feasible route exists.
    pub route: Option<RouteResult>,
    /// Instrumentation counters.
    pub stats: SearchStats,
    /// Snapshots of every label created, in creation order (only when
    /// `collect_labels` was requested).
    pub labels: Vec<LabelSnapshot>,
}

impl SearchResult {
    /// Whether a feasible route was found.
    pub fn is_feasible(&self) -> bool {
        self.route.is_some()
    }

    /// The objective score of the found route (`+inf` when infeasible),
    /// convenient for ratio computations.
    pub fn objective_or_inf(&self) -> f64 {
        self.route.as_ref().map_or(f64::INFINITY, |r| r.objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchOutcome;
    use kor_graph::NodeId;

    fn rr(objective: f64) -> RouteResult {
        RouteResult {
            route: Route::new(vec![NodeId(0), NodeId(1)]),
            objective,
            budget: 1.0,
        }
    }

    #[test]
    fn search_result_accessors() {
        let empty = SearchResult::default();
        assert!(!empty.is_feasible());
        assert!(empty.objective_or_inf().is_infinite());
        let found = SearchResult {
            route: Some(rr(3.5)),
            ..Default::default()
        };
        assert!(found.is_feasible());
        assert_eq!(found.objective_or_inf(), 3.5);
        assert_eq!(
            rr(3.5).bits(),
            (vec![0, 1], 3.5f64.to_bits(), 1.0f64.to_bits())
        );
    }

    #[test]
    fn topk_accessors() {
        let mut r = SearchOutcome::default();
        assert!(!r.is_feasible());
        assert!(r.best().is_none());
        r.routes = vec![rr(1.0), rr(2.0)];
        assert!(r.is_feasible());
        assert_eq!(r.best().unwrap().objective, 1.0);
        // A greedy route that breaks a hard constraint is not feasible.
        r.greedy_flags = Some((true, false));
        assert!(!r.is_feasible());
        let single = SearchResult::from(r);
        assert_eq!(single.objective_or_inf(), 1.0);
    }
}
