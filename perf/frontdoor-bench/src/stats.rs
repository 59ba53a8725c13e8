//! The arithmetic the reports rest on: order statistics, spreads, best-of-R.

/// Nearest-rank percentile of `values` (`p` in `[0, 100]`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual midpoint rule for even counts; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so spreads computed here
/// and by a driver script agree. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let below = (position.floor() as usize).clamp(1, n - 1);
        // No clamp on the fraction: like Python, a short sample
        // extrapolates past its ends.
        let fraction = position - below as f64;
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median; 0 when it is undefined
/// (fewer than two values, or a zero median).
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// Smallest value; `f64::INFINITY` when empty.
pub fn best_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 5.0);
        assert_eq!(percentile(&values, 90.0), 9.0);
        assert_eq!(percentile(&values, 100.0), 10.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_takes_the_midpoint_of_an_even_count() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past the ends of a short sample.
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&values) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(iqr_over_median(&[7.0]), 0.0);
    }

    #[test]
    fn best_of_is_the_minimum() {
        assert_eq!(best_of(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(best_of(&[]), f64::INFINITY);
    }
}
