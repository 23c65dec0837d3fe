//! Percentiles with an explicit sample-count rule for tails.

/// Tail percentiles are reported only when at least this many samples lie
/// beyond them, so a p95 never rests on one or two outliers.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, or `None` when
/// it is a tail (`p > 0.5`) with fewer than [`MIN_BEYOND_TAIL`] samples
/// strictly beyond its rank, or when there are no samples at all.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if p > 0.5 && n - rank < MIN_BEYOND_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median (`None` on no samples).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly 10 beyond it; p95 has only 5.
        assert_eq!(percentile(&hundred, 0.90), Some(90.0));
        assert_eq!(percentile(&hundred, 0.95), None);
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&two_hundred, 0.95), Some(190.0));
        assert_eq!(percentile(&two_hundred[..199], 0.95), None);
        // The median is not a tail and needs only one sample.
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&a), Some(3.0));
    }
}
