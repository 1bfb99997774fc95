//! Order statistics over samples.

/// The `q` quantile (0..=1) of an ascending slice by linear
/// interpolation between closest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The `q` quantile of an ascending slice of readings from a clock that
/// truncates to whole nanoseconds. Each reading `v` stands for the
/// interval `[v, v + 1)`, and the quantile interpolates within the run
/// of equal readings it falls in, so a pile of identical readings does
/// not pin it to an integer; 0 for an empty slice.
pub fn quantile_truncated(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * sorted.len() as f64;
    let v = sorted[(rank as usize).min(sorted.len() - 1)];
    let below = sorted.partition_point(|&x| x < v);
    let at = sorted.partition_point(|&x| x <= v) - below;
    v as f64 + ((rank - below as f64) / at as f64).clamp(0.0, 1.0)
}

/// Item-wise medians of equally long series: item `k` of the result is
/// the median of item `k` across `series`. Empty when the series are
/// empty or differ in length.
pub fn aligned_medians(series: &[Vec<f64>]) -> Vec<f64> {
    let len = series.first().map_or(0, Vec::len);
    if series.iter().any(|s| s.len() != len) {
        return Vec::new();
    }
    (0..len)
        .map(|k| median(&series.iter().map(|s| s[k]).collect::<Vec<_>>()))
        .collect()
}

/// Median of arbitrary floats; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.9), 46.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn truncated_quantiles_spread_ties_over_the_nanosecond() {
        assert_eq!(quantile_truncated(&[10, 10, 10, 10], 0.5), 10.5);
        assert_eq!(quantile_truncated(&[10, 20, 30, 40], 0.5), 30.0);
        assert_eq!(quantile_truncated(&[10, 20, 20, 40], 0.5), 20.5);
        assert_eq!(quantile_truncated(&[7], 1.0), 8.0);
        assert_eq!(quantile_truncated(&[], 0.5), 0.0);
    }

    #[test]
    fn aligned_medians_are_item_wise() {
        let series = vec![vec![1.0, 10.0], vec![3.0, 90.0], vec![2.0, 20.0]];
        assert_eq!(aligned_medians(&series), vec![2.0, 20.0]);
        assert!(aligned_medians(&[vec![1.0], vec![1.0, 2.0]]).is_empty());
        assert!(aligned_medians(&[]).is_empty());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
