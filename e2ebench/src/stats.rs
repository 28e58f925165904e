//! Sample summaries: the median, and the highest percentile the sample
//! count supports.

/// Percentiles considered for the tail, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: f64 = 10.0;

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest of [`TAILS`] with at least [`TAIL_SUPPORT`] samples
    /// beyond it, as `(percentile, value)`; `None` when even the 75th
    /// lacks that support.
    pub tail: Option<(f64, f64)>,
}

/// The `p`-th percentile of ascending `sorted`, linearly interpolated
/// between closest ranks. `sorted` must be non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Summarize `samples` (NaN-free).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Summary {
            n,
            p50: 0.0,
            tail: None,
        };
    }
    let tail = TAILS
        .iter()
        .find(|&&p| n as f64 * (1.0 - p / 100.0) >= TAIL_SUPPORT)
        .map(|&p| (p, percentile(&sorted, p)));
    Summary {
        n,
        p50: percentile(&sorted, 50.0),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the helper's own sort is exercised.
        (0..n).rev().map(|k| k as f64).collect()
    }

    #[test]
    fn reports_count_and_median() {
        let s = summarize(&ramp(101));
        assert_eq!(s.n, 101);
        assert_eq!(s.p50, 50.0);
        assert_eq!(summarize(&[4.0, 1.0]).p50, 2.5);
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 150 samples: 15 lie beyond p90, only 7.5 beyond p95.
        let s = summarize(&ramp(150));
        assert_eq!(s.tail.map(|t| t.0), Some(90.0));
        assert!((s.tail.unwrap().1 - 134.1).abs() < 1e-9);
        // 1000 samples support p99 exactly (10 beyond), not p99.9.
        assert_eq!(summarize(&ramp(1000)).tail.map(|t| t.0), Some(99.0));
        // 40 samples: 10 beyond p75, 4 beyond p90.
        assert_eq!(summarize(&ramp(40)).tail.map(|t| t.0), Some(75.0));
        // Too few samples for any tail.
        assert_eq!(summarize(&ramp(39)).tail, None);
    }
}
