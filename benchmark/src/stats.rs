//! Latency summaries over `kor::percentile`, and the rule for which
//! percentiles a sample supports.

use kor::percentile::{percentile_sorted, sort_samples};

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL: usize = 10;

/// Percentiles the diagnostics consider, highest first.
const TAILS: [(f64, &str); 4] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.95, "p95"),
    (0.90, "p90"),
];

/// Rank of percentile `p` among `n ≥ 1` sorted samples — the index
/// `kor::percentile::percentile_sorted` picks.
fn rank(n: usize, p: f64) -> usize {
    ((p * (n - 1) as f64).round() as usize).min(n - 1)
}

/// Whether `n` samples put at least [`MIN_TAIL`] samples beyond
/// percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - rank(n, p) >= MIN_TAIL
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` into a sample set.
    pub fn new(mut values: Vec<f64>) -> Self {
        sort_samples(&mut values);
        Samples(values)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`0.0` when empty).
    pub fn pct(&self, p: f64) -> f64 {
        percentile_sorted(&self.0, p)
    }

    /// Arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Largest sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }

    /// `p50 …, pNN …, max … (n=…)` with every supported tail, in `unit`.
    pub fn describe(&self, unit: &str) -> String {
        let mut out = format!("p50 {:.4} {unit}", self.pct(0.5));
        for (p, label) in TAILS.into_iter().rev() {
            if supports(self.len(), p) {
                out.push_str(&format!(", {label} {:.4} {unit}", self.pct(p)));
            }
        }
        out.push_str(&format!(
            ", max {:.4} {unit} (n={})",
            self.max(),
            self.len()
        ));
        out
    }
}

/// Median of a small set (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).pct(0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_percentiles_have_ten_samples_beyond_them() {
        for n in 0..5000 {
            let samples = Samples::new((0..n).map(|i| i as f64).collect());
            for (p, _) in TAILS {
                let beyond = samples.0.iter().filter(|&&x| x > samples.pct(p)).count();
                assert_eq!(
                    supports(n, p),
                    beyond >= MIN_TAIL,
                    "n={n} p={p}: {beyond} beyond"
                );
            }
        }
        assert!(supports(200, 0.95));
        assert!(!supports(150, 0.95));
        assert!(supports(1000, 0.99));
        assert!(!supports(900, 0.99));
    }

    #[test]
    fn describe_lists_only_supported_tails() {
        let s = Samples::new((0..150).map(f64::from).collect());
        let text = s.describe("ms");
        assert!(text.contains("p90 "), "{text}");
        assert!(!text.contains("p95"), "{text}");
        assert!(text.ends_with("(n=150)"), "{text}");
    }

    #[test]
    fn median_of_three() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
