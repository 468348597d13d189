//! Percentile extraction over latency samples, and the one latency
//! summary `kor bench`, `kor batch` and `kor loadtest` report.
//!
//! The harnesses previously inlined the same nearest-rank closure; the
//! copies drifted on the degenerate inputs a smoke run can produce (a
//! pass aborted after 0–3 samples). This helper pins the behaviour:
//! never panic, and stay monotone in `p` so `p50 ≤ p95 ≤ p99` holds for
//! every sample count.

/// Nearest-rank percentile of `samples` (need not be sorted; a working
/// copy is sorted internally). Prefer [`percentile_sorted`] when taking
/// several percentiles of one set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sort_samples(&mut sorted);
    percentile_sorted(&sorted, p)
}

/// Sorts latency samples with a total order (NaN sorts last, so a NaN
/// sample can only perturb the top percentiles, not all of them).
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of an already-sorted sample set.
///
/// * `samples` empty ⇒ `0.0` (a smoke pass with no completed requests
///   reports zero latency rather than panicking);
/// * `p` is clamped to `[0, 1]`, the rank index to the sample range;
/// * monotone in `p`: for any fixed sample set, a larger `p` can never
///   select an earlier (smaller) sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Summary of one latency sample set, in the samples' unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Smallest sample.
    pub min: f64,
    /// Arithmetic mean (summed in ascending order).
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(mut samples: Vec<f64>) -> Option<Self> {
        sort_samples(&mut samples);
        let (&min, &max) = (samples.first()?, samples.last()?);
        let pct = |p: f64| percentile_sorted(&samples, p);
        Some(Self {
            min,
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The degenerate counts the smoke profiles can produce: none of
    /// them may panic or order the percentiles backwards.
    #[test]
    fn tiny_sample_counts_stay_ordered() {
        let sets: [&[f64]; 4] = [&[], &[5.0], &[5.0, 1.0], &[9.0, 1.0, 5.0]];
        for samples in sets {
            let p50 = percentile(samples, 0.50);
            let p95 = percentile(samples, 0.95);
            let p99 = percentile(samples, 0.99);
            assert!(p50 <= p95, "{samples:?}: p50 {p50} > p95 {p95}");
            assert!(p95 <= p99, "{samples:?}: p95 {p95} > p99 {p99}");
        }
    }

    #[test]
    fn summary_of_samples() {
        assert_eq!(LatencySummary::of(Vec::new()), None);
        let s = LatencySummary::of((1..=100).rev().map(f64::from).collect()).unwrap();
        assert_eq!((s.min, s.p50, s.p95, s.max), (1.0, 51.0, 95.0, 100.0));
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    fn empty_reports_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted(&[], 0.99), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
    }

    #[test]
    fn out_of_range_p_is_clamped() {
        let samples = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, -0.5), 1.0);
        assert_eq!(percentile(&samples, 1.5), 3.0);
        assert_eq!(percentile(&samples, f64::NAN), 1.0);
    }

    #[test]
    fn nearest_rank_on_larger_sets() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 51.0); // round(0.5·99) = 50
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
    }

    #[test]
    fn monotone_in_p_across_counts() {
        for n in 0..8 {
            let samples: Vec<f64> = (0..n).map(|i| f64::from(i) * 3.5).collect();
            let mut last = f64::NEG_INFINITY;
            for i in 0..=20 {
                let v = percentile(&samples, f64::from(i) / 20.0);
                assert!(v >= last, "n={n}: not monotone at step {i}");
                last = v;
            }
        }
    }
}
