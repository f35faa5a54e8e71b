//! The one percentile helper every reported latency goes through.
//!
//! A percentile is reported only when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie beyond it. Below that, the helper
//! returns `None` and the caller reports the metric as missing (or fails
//! the run), never as a number. Percentiles use the nearest-rank rule, so
//! every reported value is one that was actually measured.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the helper will report, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A latency sample summarised honestly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank). Reported for any non-empty sample.
    pub p50: f64,
    /// The highest ladder percentile with at least [`MIN_BEYOND`]
    /// samples beyond it, as `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

/// Number of samples strictly beyond the nearest-rank `pct` percentile
/// of `n` samples.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

/// One-based nearest rank of the `pct` percentile among `n` samples, in
/// integer arithmetic on tenths of a percent so that e.g. p99 of 1000
/// samples is exactly rank 990.
fn rank(n: usize, pct: f64) -> usize {
    let tenths = (pct * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Whether `n` samples support reporting the `pct` percentile.
pub fn supports(n: usize, pct: f64) -> bool {
    n > 0 && beyond(n, pct) >= MIN_BEYOND
}

/// The `pct` percentile of `samples`, or `None` when the sample is too
/// small to support it. Sorts `samples` in place.
pub fn percentile(samples: &mut [f64], pct: f64) -> Option<f64> {
    if !supports(samples.len(), pct) {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[rank(samples.len(), pct) - 1])
}

/// Median plus the highest supported tail percentile, or `None` for an
/// empty sample. Sorts `samples` in place.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let at = |pct: f64| samples[rank(n, pct) - 1];
    let tail = LADDER
        .iter()
        .find(|&&pct| supports(n, pct))
        .map(|&pct| (pct, at(pct)));
    Some(Summary {
        n,
        p50: at(50.0),
        tail,
    })
}

/// Median (nearest rank) of a sample; NaN when it is empty.
pub fn median(samples: &mut [f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.p50)
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.p50)?;
        match self.tail {
            Some((pct, v)) => write!(f, ", p{pct} {v:.4}")?,
            None => write!(f, ", tail unsupported")?,
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert_eq!(percentile(&mut ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&mut ramp(999), 99.0), None);
    }

    #[test]
    fn small_samples_never_report_a_tail() {
        // The n=2 and n=16 "p99" a latency list of segment closes gives.
        for n in [1, 2, 16, 19] {
            let s = summarize(&mut ramp(n)).unwrap();
            assert_eq!(s.tail, None, "n={n}");
            assert_eq!(s.n, n);
        }
        assert_eq!(percentile(&mut ramp(16), 99.0), None);
    }

    #[test]
    fn tail_is_the_highest_supported_ladder_step() {
        assert_eq!(summarize(&mut ramp(40)).unwrap().tail, Some((75.0, 30.0)));
        assert_eq!(summarize(&mut ramp(100)).unwrap().tail, Some((90.0, 90.0)));
        assert_eq!(summarize(&mut ramp(200)).unwrap().tail, Some((95.0, 190.0)));
        assert_eq!(
            summarize(&mut ramp(10_000)).unwrap().tail,
            Some((99.9, 9990.0))
        );
    }

    #[test]
    fn every_reported_tail_leaves_ten_samples_beyond() {
        for n in 1..3000 {
            let mut v = ramp(n);
            if let Some((_, value)) = summarize(&mut v).unwrap().tail {
                let above = v.iter().filter(|&&x| x > value).count();
                assert!(above >= MIN_BEYOND, "n={n}: {above} beyond {value}");
            }
        }
    }

    #[test]
    fn median_is_a_measured_value_and_order_free() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        let mut w = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut w), 2.0);
        assert!(summarize(&mut []).is_none());
    }
}
