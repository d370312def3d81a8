//! Exact sample statistics: quantiles from every client-side sample,
//! never from histogram buckets.

/// A percentile needs at least this many samples strictly beyond its
/// rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending sample, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (a p99 needs 1 000 samples).
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of an ascending sample (`None` when empty) — for the few
/// set-up repetitions of a run, which are not a latency tail.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Sorts a sample ascending (total order; NaN-free by construction).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Some(990.0));
        assert_eq!(quantile(&xs, 0.5), Some(500.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
