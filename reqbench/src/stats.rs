//! Order statistics: nearest-rank percentiles, the "ten samples beyond"
//! rule, medians and the quartile spread the acceptance check uses.

/// Nearest-rank percentile of an ascending slice (`0 < q <= 1`): the
/// smallest sample with at least `q·n` samples at or below it. 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Whether `n` samples leave at least ten beyond the `q` percentile's rank —
/// below that a percentile is one or two outliers, not a tail.
pub fn has_tail(n: usize, q: f64) -> bool {
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n.max(1));
    n >= rank + 10
}

/// Sorts in place and returns the slice, for the percentile calls.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the mean of the two middle samples for even counts (what
/// Python's `statistics.median` returns). 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the acceptance check compares with a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // Never interpolates: the answer is always one of the samples.
        let w = [1.0, 2.0, 10.0];
        assert_eq!(percentile(&w, 0.5), 2.0);
        assert_eq!(percentile(&w, 0.67), 10.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn tail_rule_wants_ten_samples_beyond() {
        // p95 of 200 leaves exactly 10 beyond rank 190.
        assert!(has_tail(200, 0.95));
        assert!(!has_tail(199, 0.95));
        // p99 needs 1000.
        assert!(has_tail(1000, 0.99));
        assert!(!has_tail(999, 0.99));
        assert!(has_tail(20, 0.50));
        assert!(!has_tail(19, 0.50));
        assert!(!has_tail(0, 0.50));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
