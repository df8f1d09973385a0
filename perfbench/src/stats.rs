//! Order statistics for the reported timings.
//!
//! Timings are reported as a median plus the highest percentile that has
//! at least [`TAIL_SAMPLES`] samples beyond it, with the sample count
//! stated. Failed operations enter latency samples as `f64::INFINITY`,
//! so a failure counts as missing every limit.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The percentile ladder the tail rule picks from, highest first.
const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p).max(1) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// whole per-mille so that `99.0 × 1000` lands exactly on rank 990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// The highest ladder percentile with at least [`TAIL_SAMPLES`] samples
/// strictly beyond its rank, or `None` when there are too few samples
/// for even the minimum.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n >= rank(n, p).max(1) + TAIL_SAMPLES)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(11), Some(0.0));
        assert_eq!(tail_percentile(10), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn failures_sort_last_and_count_against_the_tail() {
        let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        samples.extend([f64::INFINITY; 20]);
        samples.sort_by(f64::total_cmp);
        assert!(percentile(&samples, 99.0).is_infinite());
        assert_eq!(percentile(&samples, 50.0), 510.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
