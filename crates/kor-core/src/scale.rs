//! Objective-score scaling (§3.2).
//!
//! **Deviation from the paper.** The paper scales by
//! `θ = ε·o_min·b_min/Δ`, where `o_min` serves only as a lower bound on
//! the optimum's objective. The label searches take
//! `θ = ε·max(τ(s,t), o_min)·b_min/Δ` instead ([`Scaler::for_query`]):
//! `τ(s,t)`, the query's min-objective path score, is a lower bound on
//! every `s → t` route and usually far larger than `o_min`, so θ grows
//! and fewer labels survive scaled dominance. Theorems 2 and 3 still
//! hold by the same argument: each edge loses less than θ to the floor,
//! a route within `Δ` has at most `Δ/b_min` edges, so a route loses less
//! than `ε·max(τ(s,t), o_min) ≤ ε·OPT` in all. [`Scaler::new`] keeps the
//! paper's θ for Example 1 and Table 1.

use kor_graph::Graph;

/// The scaling transform `ô = ⌊o/θ⌋` with `θ = ε·L·b_min/Δ`, where `L`
/// is a lower bound on the objective of every route the search can
/// return.
///
/// Scaling maps edge objectives to integers so that the number of
/// non-dominated labels per node is bounded (Lemma 1), at the cost of the
/// `1/(1−ε)` approximation (Theorem 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaler {
    theta: f64,
}

impl Scaler {
    /// The paper's scaler for a graph, `ε`, and budget limit `Δ`:
    /// `L = o_min`.
    ///
    /// Degenerate inputs (edgeless graph, `Δ = 0`) fall back to `θ = 1`,
    /// which simply floors objectives; such queries are answered before
    /// any label is scaled, so the choice never matters.
    pub fn new(graph: &Graph, epsilon: f64, delta: f64) -> Self {
        Self::from_bound(graph.o_min(), graph.b_min(), epsilon, delta)
    }

    /// The scaler of one query, as `OSScaling` and `BucketBound` use it:
    /// `L = τ(s,t)`, the query's min-objective path score `tau_st`, or
    /// `o_min` when `τ(s,t) ≤ o_min` or is not finite (`s = t` gives
    /// `τ(s,t) = 0`; an unreachable target gives `+∞`). `o_min` and
    /// `b_min` are the edge-weight extrema, passed in so a pinned
    /// [`crate::ScaleAnchor`] can supply them. Same degenerate fallback
    /// as [`Self::new`].
    pub(crate) fn for_query(tau_st: f64, o_min: f64, b_min: f64, epsilon: f64, delta: f64) -> Self {
        let bound = if tau_st.is_finite() && tau_st > o_min {
            tau_st
        } else {
            o_min
        };
        Self::from_bound(bound, b_min, epsilon, delta)
    }

    /// `θ = ε·bound·b_min/Δ`, or `1` when that is not a positive number.
    fn from_bound(bound: f64, b_min: f64, epsilon: f64, delta: f64) -> Self {
        let theta = epsilon * bound * b_min / delta;
        if theta.is_finite() && theta > 0.0 {
            Self { theta }
        } else {
            Self { theta: 1.0 }
        }
    }

    /// A scaler that performs no approximation-relevant rounding is not
    /// representable (θ → 0), so exact search uses a different dominance
    /// mode; this constructor exists for tests that need a fixed θ.
    pub fn with_theta(theta: f64) -> Self {
        assert!(theta.is_finite() && theta > 0.0, "θ must be positive");
        Self { theta }
    }

    /// The scaling factor `θ`.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Scales one objective value: `⌊o/θ⌋` (saturating).
    #[inline]
    pub fn scale(&self, objective: f64) -> u64 {
        let v = (objective / self.theta).floor();
        if v >= u64::MAX as f64 {
            u64::MAX
        } else if v <= 0.0 {
            0
        } else {
            v as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kor_graph::fixtures::figure1;
    use kor_graph::GraphBuilder;

    #[test]
    fn example1_theta_is_one_twentieth() {
        // Example 1: Δ = 10, ε = 0.5 ⇒ θ = 0.5·1·1/10 = 1/20, so objective
        // values scale to 20× their original value.
        let g = figure1();
        let s = Scaler::new(&g, 0.5, 10.0);
        assert!((s.theta() - 0.05).abs() < 1e-15);
        assert_eq!(s.scale(5.0), 100); // R1's label ÔS in Example 1
        assert_eq!(s.scale(6.0), 120); // R2's label ÔS
        assert_eq!(s.scale(1.0), 20);
        assert_eq!(s.scale(2.0), 40);
    }

    #[test]
    fn query_theta_comes_from_tau_st() {
        // Example 2's τ(v0, v7) = 4 (⟨v0,v3,v4,v7⟩): θ = 0.5·4·1/10 = 1/5,
        // four times the paper's 1/20, so figure 1's integer objectives
        // scale to exactly a quarter of Example 1's values.
        let g = figure1();
        let s = Scaler::for_query(4.0, g.o_min(), g.b_min(), 0.5, 10.0);
        assert_eq!(s.theta(), 0.2);
        assert_eq!(s.scale(5.0), 25);
        assert_eq!(s.scale(6.0), 30);
        // The extrema's b_min scales θ as in the paper's formula.
        let s = Scaler::for_query(4.0, 1.0, 2.0, 0.5, 10.0);
        assert_eq!(s.theta(), 0.4);
    }

    #[test]
    fn query_theta_falls_back_to_o_min() {
        let g = figure1();
        let paper = Scaler::new(&g, 0.5, 10.0);
        // s = t: τ(s,t) = 0.
        assert_eq!(
            Scaler::for_query(0.0, g.o_min(), g.b_min(), 0.5, 10.0),
            paper
        );
        // τ(s,t) ≤ o_min, including equality.
        for tau in [0.5, g.o_min()] {
            assert_eq!(
                Scaler::for_query(tau, g.o_min(), g.b_min(), 0.5, 10.0),
                paper
            );
        }
        // An unreachable target: τ(s,t) = +∞.
        let s = Scaler::for_query(f64::INFINITY, g.o_min(), g.b_min(), 0.5, 10.0);
        assert_eq!(s, paper);
        // The degenerate fallback still applies.
        assert_eq!(Scaler::for_query(4.0, 1.0, 1.0, 0.5, 0.0).theta(), 1.0);
        assert_eq!(Scaler::for_query(0.0, 0.0, 0.0, 0.5, 10.0).theta(), 1.0);
    }

    #[test]
    fn scaling_floors() {
        let s = Scaler::with_theta(0.3);
        assert_eq!(s.scale(1.0), 3); // 3.33… → 3
        assert_eq!(s.scale(0.29), 0);
        assert_eq!(s.scale(0.0), 0);
    }

    #[test]
    fn degenerate_inputs_fall_back() {
        let empty = GraphBuilder::new().build().unwrap();
        let s = Scaler::new(&empty, 0.5, 10.0);
        assert_eq!(s.theta(), 1.0);
        let g = figure1();
        let s0 = Scaler::new(&g, 0.5, 0.0);
        assert_eq!(s0.theta(), 1.0);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let s = Scaler::with_theta(1e-300);
        assert_eq!(s.scale(1e300), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "θ must be positive")]
    fn with_theta_rejects_zero() {
        let _ = Scaler::with_theta(0.0);
    }
}
