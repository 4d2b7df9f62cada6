//! Order statistics with the benchmark's percentile rule.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise its value would be set by a handful of
/// outliers and jump between runs.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples a run may end with: enough that [`MIN_BEYOND`] samples lie
/// beyond the 90th percentile.
pub const MIN_SAMPLES: usize = 100;

/// Nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of any non-empty sample set (the mean of the two middle values
/// for an even count). The per-layer and set-up medians use this: they
/// are medians of few samples, not tail percentiles.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn no_percentile_with_fewer_than_ten_samples_beyond_it() {
        // 99 samples: rank of p90 is 90, only 9 lie beyond it
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // 100 samples: exactly 10 lie beyond the 90th
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        // p99 needs 1000 samples
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // the median needs 20
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn min_samples_supports_p90() {
        let samples = ramp(MIN_SAMPLES);
        assert!(percentile(&samples, 0.9).is_some());
        assert!(percentile(&samples[1..], 0.9).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples = ramp(200);
        samples.reverse();
        assert_eq!(percentile(&samples, 0.5), Some(100.0));
        assert_eq!(percentile(&samples, 0.9), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
