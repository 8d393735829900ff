//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p`% of all samples at or below it. `p` is clamped
/// to `0..=100`; an empty slice yields `None`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample ascending (total order; NaN never occurs in timings).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (nearest rank).
pub fn median(v: &[f64]) -> Option<f64> {
    percentile(&sorted(v.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 99.5), Some(100.0));
    }

    #[test]
    fn small_and_empty_samples() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 51.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 150.0), Some(3.0));
    }

    #[test]
    fn percentile_is_a_sample_value_and_monotone() {
        let v = sorted(vec![5.5, 0.1, 3.2, 9.9, 3.2, 7.0, 1.0]);
        let mut last = f64::MIN;
        for p in 0..=100 {
            let x = percentile(&v, f64::from(p)).unwrap();
            assert!(v.contains(&x));
            assert!(x >= last);
            last = x;
        }
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
