//! Error type for KOR queries and algorithm parameters.

use std::fmt;

use kor_graph::{NodeId, QueryKeywordsError};

/// Errors raised when validating queries or algorithm parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum KorError {
    /// A query endpoint is not a node of the graph.
    UnknownNode(NodeId),
    /// The budget limit `Δ` is negative or not finite.
    InvalidBudget(f64),
    /// The scaling parameter `ε` is outside `(0, 1)`.
    InvalidEpsilon(f64),
    /// The bucket parameter `β` is not `> 1`.
    InvalidBeta(f64),
    /// The greedy balance parameter `α` is outside `[0, 1]`.
    InvalidAlpha(f64),
    /// The beam width for the greedy algorithm is zero.
    InvalidBeamWidth,
    /// `k = 0` requested.
    InvalidK,
    /// `k > 1` requested from an algorithm that returns one route.
    TopKUnsupported(&'static str),
    /// No algorithm has this name.
    UnknownAlgo(String),
    /// A tuning knob the chosen algorithm never reads.
    KnobNotApplicable {
        /// The knob's wire/CLI name.
        knob: &'static str,
        /// The algorithm's wire/CLI name.
        algo: &'static str,
    },
    /// The query keyword set is invalid.
    Keywords(QueryKeywordsError),
    /// Brute force aborted after the configured number of expansions.
    SearchSpaceExceeded(u64),
    /// A label search ran past its deadline and was cancelled.
    DeadlineExceeded,
}

impl fmt::Display for KorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KorError::UnknownNode(v) => write!(f, "query endpoint {v} is not in the graph"),
            KorError::InvalidBudget(d) => {
                write!(f, "budget limit Δ = {d} must be finite and non-negative")
            }
            KorError::InvalidEpsilon(e) => {
                write!(f, "scaling parameter ε = {e} must lie in (0, 1)")
            }
            KorError::InvalidBeta(b) => write!(f, "bucket parameter β = {b} must be > 1"),
            KorError::InvalidAlpha(a) => {
                write!(f, "greedy balance parameter α = {a} must lie in [0, 1]")
            }
            KorError::InvalidBeamWidth => write!(f, "\"beam\" must be ≥ 1"),
            KorError::InvalidK => write!(f, "\"k\" must be ≥ 1"),
            KorError::TopKUnsupported(algo) => write!(f, "{algo:?} does not support k > 1"),
            KorError::UnknownAlgo(name) => write!(
                f,
                "unknown algo {name:?} (expected os-scaling, bucket-bound, exact, or greedy)"
            ),
            KorError::KnobNotApplicable { knob, algo } => {
                write!(f, "{knob:?} does not apply to algo {algo:?}")
            }
            KorError::Keywords(e) => write!(f, "{e}"),
            KorError::SearchSpaceExceeded(n) => {
                write!(f, "brute force exceeded {n} expansions")
            }
            KorError::DeadlineExceeded => write!(f, "search deadline exceeded"),
        }
    }
}

impl std::error::Error for KorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KorError::Keywords(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryKeywordsError> for KorError {
    fn from(e: QueryKeywordsError) -> Self {
        KorError::Keywords(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(KorError::UnknownNode(NodeId(4)).to_string().contains("v4"));
        assert!(KorError::InvalidBudget(-1.0).to_string().contains("-1"));
        assert!(KorError::InvalidEpsilon(1.5).to_string().contains("1.5"));
        assert!(KorError::InvalidBeta(0.9).to_string().contains("0.9"));
        assert!(KorError::InvalidAlpha(2.0).to_string().contains("2"));
        assert!(KorError::InvalidBeamWidth.to_string().contains("beam"));
        assert_eq!(KorError::InvalidK.to_string(), "\"k\" must be ≥ 1");
        assert!(KorError::TopKUnsupported("exact")
            .to_string()
            .contains("k > 1"));
        assert!(KorError::UnknownAlgo("x".into())
            .to_string()
            .contains("\"x\""));
        assert!(KorError::DeadlineExceeded.to_string().contains("deadline"));
    }

    #[test]
    fn keywords_error_chains() {
        use std::error::Error;
        let e = KorError::from(QueryKeywordsError::TooMany(40));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("40"));
    }
}
