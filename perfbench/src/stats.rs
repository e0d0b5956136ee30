//! Order statistics shared by every workload.

/// The `p`-th percentile (`0.0..=100.0`) of ascending `sorted` values,
/// linearly interpolated between closest ranks (the "inclusive" method of
/// Python's `statistics.quantiles`). Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let (first, last) = (sorted.first()?, sorted.last()?);
    if sorted.len() == 1 || p <= 0.0 {
        return Some(*first);
    }
    if p >= 100.0 {
        return Some(*last);
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac)
}

/// Sorts `values` in place (NaN-free input) and returns the median.
pub fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        // rank = 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((percentile(&v, 90.0).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        let mut odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut odd), Some(3.0));
    }

    #[test]
    fn percentile_matches_python_inclusive_quartiles() {
        // statistics.quantiles([1..10], n=4, method="inclusive")
        // == [3.25, 5.5, 7.75]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 25.0), Some(3.25));
        assert_eq!(percentile(&v, 50.0), Some(5.5));
        assert_eq!(percentile(&v, 75.0), Some(7.75));
    }
}
