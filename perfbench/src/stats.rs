//! Order statistics over host timings.

/// The median of `xs` (mean of the middle pair for an even count); NaN when
/// empty. Sorts `xs` in place.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0–100) by the nearest-rank rule; NaN when empty.
/// Sorts `xs` in place.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The highest percentile among 50, 90, 99 and 99.9 that leaves at least
/// ten samples above it, or `None` when even the median does not.
pub fn supported_percentile(samples: usize) -> Option<f64> {
    // In per mille, so the count above the percentile is exact.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|per_mille| samples * (1000 - per_mille) >= 10 * 1000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 99.0), 99.0);
        assert_eq!(percentile(&mut xs, 100.0), 100.0);
        assert_eq!(percentile(&mut [5.0], 99.0), 5.0);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(6), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
    }
}
