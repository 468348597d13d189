//! Algorithm parameters with the paper's defaults.

use kor_graph::Graph;

use crate::error::KorError;

/// Edge-weight extrema pinned from a *reference* graph, overriding the
/// search graph's own extrema in every place a scaled search consults
/// them (the scaling factor `θ = ε·o_min·b_min/Δ` and the bucket base
/// fallback).
///
/// This is the shard-scoped search entry point: a shard subgraph holds
/// only its own edges, so its extrema can differ from the full
/// dataset's, which would silently change `θ` and with it every scaled
/// label key. A router answering a query on one shard anchors the
/// search to the fused graph's extrema so the shard-local result is
/// bit-compatible with what the single fused engine computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleAnchor {
    /// The reference graph's smallest edge objective.
    pub o_min: f64,
    /// The reference graph's smallest edge budget.
    pub b_min: f64,
}

impl ScaleAnchor {
    /// Captures the extrema of `graph` (typically the fused full
    /// dataset, not the shard subgraph the search will run on).
    pub fn of(graph: &Graph) -> Self {
        Self {
            o_min: graph.o_min(),
            b_min: graph.b_min(),
        }
    }
}

/// Parameters for `OSScaling` (Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct OsScalingParams {
    /// Scaling parameter `ε ∈ (0, 1)`; approximation ratio is `1/(1−ε)`.
    /// Larger values run faster but degrade accuracy (paper Figures 6–7).
    pub epsilon: f64,
    /// Enable Optimization Strategy 1 (jump to the nearest node holding an
    /// uncovered keyword to find a feasible route early).
    pub use_opt1: bool,
    /// Enable Optimization Strategy 2 (prune via the least frequent query
    /// keyword when it is rare enough).
    pub use_opt2: bool,
    /// Document-frequency fraction below which a keyword counts as
    /// infrequent for Optimization Strategy 2 (the paper suggests 1 %).
    pub infrequent_threshold: f64,
    /// Record a snapshot of every label created (golden-trace tests and
    /// debugging; costs memory).
    pub collect_labels: bool,
    /// Pin the scaling extrema to a reference graph's instead of the
    /// search graph's (see [`ScaleAnchor`]). `None` — the default —
    /// reads them from the graph being searched.
    pub anchor: Option<ScaleAnchor>,
}

impl Default for OsScalingParams {
    /// The paper's default: `ε = 0.5`, both optimizations on, 1 %
    /// infrequency threshold.
    fn default() -> Self {
        Self {
            epsilon: 0.5,
            use_opt1: true,
            use_opt2: true,
            infrequent_threshold: 0.01,
            collect_labels: false,
            anchor: None,
        }
    }
}

impl OsScalingParams {
    /// Convenience constructor with a custom `ε`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    /// The paper's plain Algorithm 1 without optimization strategies
    /// (used by the optimization-ablation experiment).
    pub fn without_optimizations(epsilon: f64) -> Self {
        Self {
            epsilon,
            use_opt1: false,
            use_opt2: false,
            ..Self::default()
        }
    }

    /// Validates the parameter ranges.
    pub fn validate(&self) -> Result<(), KorError> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 || self.epsilon >= 1.0 {
            return Err(KorError::InvalidEpsilon(self.epsilon));
        }
        Ok(())
    }

    /// The theoretical approximation ratio `1/(1−ε)`.
    pub fn approximation_ratio(&self) -> f64 {
        1.0 / (1.0 - self.epsilon)
    }

    /// The `ε` achieving a desired `1/(1−ε)` approximation ratio
    /// (used by the equal-bound comparison, paper §4.2.3).
    pub fn epsilon_for_ratio(ratio: f64) -> f64 {
        1.0 - 1.0 / ratio
    }
}

/// Parameters for `BucketBound` (Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct BucketBoundParams {
    /// Scaling parameter `ε ∈ (0, 1)` (shared with `OSScaling`).
    pub epsilon: f64,
    /// Bucket growth factor `β > 1`; approximation ratio is `β/(1−ε)`.
    /// Larger values run faster but degrade accuracy (paper Figures 8–9).
    pub beta: f64,
    /// Optimization Strategy 1 (see [`OsScalingParams::use_opt1`]).
    pub use_opt1: bool,
    /// Optimization Strategy 2 (see [`OsScalingParams::use_opt2`]).
    pub use_opt2: bool,
    /// Infrequency threshold for Optimization Strategy 2.
    pub infrequent_threshold: f64,
    /// Record label snapshots.
    pub collect_labels: bool,
    /// Pin the scaling extrema to a reference graph's (see
    /// [`ScaleAnchor`] and [`OsScalingParams::anchor`]).
    pub anchor: Option<ScaleAnchor>,
}

impl Default for BucketBoundParams {
    /// The paper's default: `ε = 0.5`, `β = 1.2`.
    fn default() -> Self {
        Self {
            epsilon: 0.5,
            beta: 1.2,
            use_opt1: true,
            use_opt2: true,
            infrequent_threshold: 0.01,
            collect_labels: false,
            anchor: None,
        }
    }
}

impl BucketBoundParams {
    /// Convenience constructor with custom `ε` and `β`.
    pub fn with(epsilon: f64, beta: f64) -> Self {
        Self {
            epsilon,
            beta,
            ..Self::default()
        }
    }

    /// Validates the parameter ranges.
    pub fn validate(&self) -> Result<(), KorError> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 || self.epsilon >= 1.0 {
            return Err(KorError::InvalidEpsilon(self.epsilon));
        }
        if !self.beta.is_finite() || self.beta <= 1.0 {
            return Err(KorError::InvalidBeta(self.beta));
        }
        Ok(())
    }

    /// The theoretical approximation ratio `β/(1−ε)`.
    pub fn approximation_ratio(&self) -> f64 {
        self.beta / (1.0 - self.epsilon)
    }

    /// The `ε` achieving a desired `β/(1−ε)` ratio at this `β`
    /// (equal-bound comparison, §4.2.3).
    pub fn epsilon_for_ratio(ratio: f64, beta: f64) -> f64 {
        1.0 - beta / ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = OsScalingParams::default();
        assert_eq!(p.epsilon, 0.5);
        assert!(p.use_opt1 && p.use_opt2);
        assert_eq!(p.infrequent_threshold, 0.01);
        let b = BucketBoundParams::default();
        assert_eq!(b.epsilon, 0.5);
        assert_eq!(b.beta, 1.2);
    }

    #[test]
    fn validation_ranges() {
        assert!(OsScalingParams::with_epsilon(0.5).validate().is_ok());
        for eps in [0.0, 1.0, -0.1, 1.5, f64::NAN] {
            assert!(OsScalingParams::with_epsilon(eps).validate().is_err());
        }
        assert!(BucketBoundParams::with(0.5, 1.2).validate().is_ok());
        for beta in [1.0, 0.5, f64::INFINITY] {
            assert!(BucketBoundParams::with(0.5, beta).validate().is_err());
        }
    }

    #[test]
    fn approximation_ratios() {
        assert!((OsScalingParams::with_epsilon(0.5).approximation_ratio() - 2.0).abs() < 1e-12);
        assert!((BucketBoundParams::with(0.5, 1.2).approximation_ratio() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn epsilon_for_ratio_round_trips() {
        let eps = OsScalingParams::epsilon_for_ratio(4.0);
        assert!((OsScalingParams::with_epsilon(eps).approximation_ratio() - 4.0).abs() < 1e-9);
        let eps2 = BucketBoundParams::epsilon_for_ratio(4.0, 1.2);
        assert!((BucketBoundParams::with(eps2, 1.2).approximation_ratio() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn without_optimizations_disables_both() {
        let p = OsScalingParams::without_optimizations(0.3);
        assert!(!p.use_opt1 && !p.use_opt2);
        assert_eq!(p.epsilon, 0.3);
    }
}
