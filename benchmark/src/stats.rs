//! Order statistics the harness reports: medians, quartiles, and the tail
//! percentile a sample is large enough to support.

/// `v` sorted ascending. Panics on NaN: every sample is a measured duration
/// or count.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    s
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method) gives
/// them — the rule the acceptance check is stated in. Needs two samples.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two samples");
    let s = sorted(v);
    let len = s.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile range as a share of the median: the run-to-run spread the
/// acceptance check compares against a metric's bound.
pub fn spread(v: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(v);
    (q3 - q1) / median(v)
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `want` that still has at least ten
/// samples beyond it; the median when the sample is too small for any tail.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Tail value of `samples` at `want`, degraded by [`supported_percentile`].
/// Returns `(value, percentile actually used)`.
pub fn tail(samples: &[f64], want: f64) -> (f64, f64) {
    let s = sorted(samples);
    let p = supported_percentile(s.len(), want);
    (percentile(&s, p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly ten beyond it.
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        // 500 samples support p98, not p99.
        assert!((supported_percentile(500, 0.99) - 0.98).abs() < 1e-12);
        assert!((supported_percentile(100, 0.99) - 0.90).abs() < 1e-12);
        // Too few for any tail: fall back to the median.
        assert_eq!(supported_percentile(19, 0.99), 0.5);
        assert_eq!(supported_percentile(5, 0.99), 0.5);
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        let (v, p) = tail(&s, 0.99);
        assert_eq!(v, 490.0);
        assert!((p - 0.98).abs() < 1e-12);
    }
}
