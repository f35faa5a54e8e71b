//! Movement detection (paper §4.1).
//!
//! The self-TRRS `κ(P_i(t), P_i(t − l_mv))` of one antenna against its own
//! measurement `l_mv` seconds earlier stays ≈1 while static and drops
//! sharply under any motion — sensitive enough to catch transient stops
//! that accelerometer/gyroscope detectors miss (Fig. 7). A fixed threshold
//! works because a static antenna's TRRS "always touches close to 1".

use crate::trrs::{trrs_norm, NormSnapshot};
use std::collections::VecDeque;
use std::ops::Index;

/// Movement-detection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovementConfig {
    /// Lag `l_mv` in samples — long enough that real motion moves the
    /// antenna by millimetres within it (§4.1's example: 0.01 s at 1 m/s
    /// = 1 cm).
    pub lag: usize,
    /// Virtual-massive block length for the self-TRRS.
    pub virtual_antennas: usize,
    /// TRRS below this ⇒ moving.
    pub threshold: f64,
}

impl MovementConfig {
    /// Defaults for a sample rate: `l_mv` ≈ 50 ms, V ≈ 50 ms worth of
    /// snapshots, threshold 0.85.
    pub fn for_sample_rate(sample_rate_hz: f64) -> Self {
        Self {
            lag: ((0.05 * sample_rate_hz).round() as usize).max(1),
            virtual_antennas: ((0.05 * sample_rate_hz).round() as usize).clamp(1, 30),
            // With matched-delay sanitation a static antenna's self-TRRS
            // sits above ~0.97, so 0.92 keeps a clean static margin while
            // staying sensitive to slowly-decorrelating (deep-NLOS) motion.
            threshold: 0.92,
        }
    }
}

/// The movement indicator: self-TRRS of one antenna at lag `l_mv`, per
/// sample. The first `lag` samples (no history yet) report 1.0 (static).
///
/// Bit-identical to `trrs_massive(series, series, t, t − lag, V)` per
/// sample, computed in one pass: every block of that definition averages
/// the lagged self-TRRS terms `d[u] = κ(s[u], s[u − lag])` for
/// `u ∈ [max(t − V/2, lag), min(t + V/2, n − 1)]`, so each term is
/// computed once and each block sums its terms in increasing `u`, the
/// definition's exact order and skip rule.
pub fn movement_indicator(series: &[NormSnapshot], config: MovementConfig) -> Vec<f64> {
    let n = series.len();
    let lag = config.lag;
    let half = config.virtual_antennas / 2;
    let d: Vec<f64> = (lag.min(n)..n)
        .map(|u| lagged_term(series, u, lag))
        .collect();
    (0..n)
        .map(|t| {
            if t < lag {
                return 1.0;
            }
            let lo = t.saturating_sub(half).max(lag);
            let hi = (t + half).min(n - 1);
            block_mean(d[lo - lag..=hi - lag].iter().copied())
        })
        .collect()
}

/// The lagged self-TRRS term `d[u] = κ(s[u], s[u − lag])` of a series
/// (a slice in batch, the snapshot ring in a stream).
fn lagged_term<S>(s: &S, u: usize, lag: usize) -> f64
where
    S: Index<usize, Output = NormSnapshot> + ?Sized,
{
    trrs_norm(&s[u], &s[u - lag])
}

/// Mean of a block of `d` terms, summed in iteration order; 0 for an
/// empty block (`trrs_massive`'s no-overlap value).
fn block_mean(terms: impl Iterator<Item = f64>) -> f64 {
    let mut acc = 0.0;
    let mut count = 0usize;
    for d in terms {
        acc += d;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

/// The causal [`movement_indicator`] of one live antenna: the `d` terms
/// of the newest `V/2 + 1` samples, each computed once, when its sample
/// arrives.
///
/// A stream evaluates the indicator at its newest sample `t` over the
/// ring `[base, t]` it holds, so the block loses its future half and
/// every term whose lag partner predates the ring: it averages `d[u]` for
/// `u ∈ [max(t − V/2, base + lag), t]` — exactly what
/// [`movement_indicator`] returns for the last sample of that ring.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaggedTerms {
    /// `(u, d[u])`, increasing `u`.
    terms: VecDeque<(usize, f64)>,
}

impl LaggedTerms {
    /// Takes the antenna's ring `[base, t]` after sample `t` arrived and
    /// returns the indicator at `t`, or `None` while the ring holds no
    /// sample `lag` behind `t`.
    pub(crate) fn advance(
        &mut self,
        ring: &VecDeque<NormSnapshot>,
        base: usize,
        config: MovementConfig,
    ) -> Option<f64> {
        let len = ring.len();
        if len <= config.lag {
            return None;
        }
        let t = base + len - 1;
        let first = t
            .saturating_sub(config.virtual_antennas / 2)
            .max(base + config.lag);
        while self.terms.front().is_some_and(|&(u, _)| u < first) {
            self.terms.pop_front();
        }
        let d = lagged_term(ring, len - 1, config.lag);
        self.terms.push_back((t, d));
        Some(self.value())
    }

    /// The block mean of the held terms.
    pub(crate) fn value(&self) -> f64 {
        block_mean(self.terms.iter().map(|&(_, d)| d))
    }

    /// Forgets every term (a stream split restarts the ring).
    pub(crate) fn clear(&mut self) {
        self.terms.clear();
    }
}

/// Thresholded movement detection. Returns one flag per sample
/// (`true` = moving).
pub fn detect_movement(series: &[NormSnapshot], config: MovementConfig) -> Vec<bool> {
    movement_indicator(series, config)
        .into_iter()
        .map(|v| v < config.threshold)
        .collect()
}

/// Data-driven threshold between the static (≈1) and moving (low) modes
/// of an indicator trace: Otsu's method on a 64-bin histogram, maximising
/// the between-class variance. Useful when deploying into an environment
/// whose indicator floor is unknown; falls back to `default_threshold`
/// when the trace does not actually contain both modes (e.g. it is all
/// static).
pub fn auto_threshold(indicator: &[f64], default_threshold: f64) -> f64 {
    if indicator.len() < 16 {
        return default_threshold;
    }
    const BINS: usize = 64;
    let mut hist = [0usize; BINS];
    for &v in indicator {
        let b = ((v.clamp(0.0, 1.0)) * (BINS - 1) as f64).round() as usize;
        hist[b] += 1;
    }
    let total = indicator.len() as f64;
    let total_mean: f64 = hist
        .iter()
        .enumerate()
        .map(|(b, &c)| b as f64 * c as f64)
        .sum::<f64>()
        / total;
    let mut best = (0usize, 0.0f64);
    let mut w0 = 0.0;
    let mut sum0 = 0.0;
    for (b, &count) in hist.iter().enumerate().take(BINS - 1) {
        w0 += count as f64;
        sum0 += b as f64 * count as f64;
        if w0 == 0.0 || w0 == total {
            continue;
        }
        let w1 = total - w0;
        let mu0 = sum0 / w0;
        let mu1 = (total_mean * total - sum0) / w1;
        let between = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
        if between > best.1 {
            best = (b, between);
        }
    }
    let threshold = (best.0 as f64 + 0.5) / (BINS - 1) as f64;
    // Require genuinely bimodal data: both modes populated and the split
    // away from the edges. Otherwise keep the caller's default.
    let below = indicator.iter().filter(|&&v| v < threshold).count();
    let frac = below as f64 / total;
    if !(0.02..=0.98).contains(&frac) || !(0.1..=0.99).contains(&threshold) {
        return default_threshold;
    }
    threshold
}

/// Contiguous moving segments `[start, end)` from a flag sequence,
/// discarding segments shorter than `min_len` samples (debounce).
pub fn moving_segments(flags: &[bool], min_len: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &m) in flags.iter().enumerate() {
        match (m, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                if i - s >= min_len {
                    out.push((s, i));
                }
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        if flags.len() - s >= min_len {
            out.push((s, flags.len()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_csi::frame::CsiSnapshot;
    use rim_dsp::complex::Complex64;

    /// splitmix64-style avalanche so values are nonlinear in the input
    /// (a linear hash makes every snapshot a pure linear-phase vector,
    /// which the TRRS cannot tell apart).
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn snapshot(tag: u64) -> CsiSnapshot {
        CsiSnapshot {
            per_tx: vec![(0..16)
                .map(|k| {
                    let x = (mix(tag.wrapping_mul(0xD1B54A33).wrapping_add(k as u64)) >> 12) as f64
                        / (1u64 << 52) as f64;
                    Complex64::from_polar(1.0, x * std::f64::consts::TAU)
                })
                .collect()],
        }
    }

    /// Static then moving then static: tags repeat, then change, then
    /// repeat.
    fn stop_go_series() -> Vec<NormSnapshot> {
        let mut tags = Vec::new();
        tags.extend(std::iter::repeat_n(1u64, 30)); // static
        tags.extend(100..130u64); // moving: every snapshot fresh
        tags.extend(std::iter::repeat_n(2u64, 30)); // static again
        let snaps: Vec<CsiSnapshot> = tags.into_iter().map(snapshot).collect();
        NormSnapshot::series(&snaps)
    }

    fn config() -> MovementConfig {
        MovementConfig {
            lag: 4,
            virtual_antennas: 3,
            threshold: 0.85,
        }
    }

    #[test]
    fn indicator_high_static_low_moving() {
        let series = stop_go_series();
        let ind = movement_indicator(&series, config());
        assert!(ind[20] > 0.99, "static: {}", ind[20]);
        assert!(ind[45] < 0.6, "moving: {}", ind[45]);
        assert!(ind[80] > 0.99, "static again: {}", ind[80]);
    }

    #[test]
    fn detection_flags_match_segments() {
        let series = stop_go_series();
        let flags = detect_movement(&series, config());
        assert!(!flags[20]);
        assert!(flags[45]);
        assert!(!flags[80]);
        let segs = moving_segments(&flags, 5);
        assert_eq!(segs.len(), 1, "one moving burst: {segs:?}");
        let (s, e) = segs[0];
        assert!((28..=36).contains(&s), "start near 30: {s}");
        assert!((58..=68).contains(&e), "end near 60: {e}");
    }

    #[test]
    fn early_samples_default_static() {
        let series = stop_go_series();
        let ind = movement_indicator(&series, config());
        for v in &ind[..4] {
            assert_eq!(*v, 1.0);
        }
    }

    #[test]
    fn segments_debounce_and_tail() {
        let flags = vec![false, true, false, true, true, true, true];
        // min_len 2 drops the single-sample blip, keeps the tail segment.
        assert_eq!(moving_segments(&flags, 2), vec![(3, 7)]);
        assert_eq!(moving_segments(&flags, 1), vec![(1, 2), (3, 7)]);
        assert!(moving_segments(&[], 1).is_empty());
        assert!(moving_segments(&[false; 5], 1).is_empty());
    }

    #[test]
    fn auto_threshold_splits_bimodal_indicator() {
        let series = stop_go_series();
        let ind = movement_indicator(&series, config());
        let th = auto_threshold(&ind, 0.92);
        // The split must separate the static (≈1) samples from the moving
        // (≈0.1–0.6) ones.
        assert!(th > 0.4 && th < 0.99, "threshold {th}");
        let flags: Vec<bool> = ind.iter().map(|&v| v < th).collect();
        assert!(!flags[20] && flags[45] && !flags[80]);
    }

    #[test]
    fn auto_threshold_falls_back_on_unimodal_data() {
        // All-static indicator: no legitimate split exists.
        let ind = vec![0.99; 200];
        assert_eq!(auto_threshold(&ind, 0.92), 0.92);
        // Too few samples.
        assert_eq!(auto_threshold(&[0.5; 4], 0.8), 0.8);
    }

    #[test]
    fn config_scales() {
        let c = MovementConfig::for_sample_rate(200.0);
        assert_eq!(c.lag, 10);
        assert!(c.virtual_antennas >= 1);
        let c2 = MovementConfig::for_sample_rate(20.0);
        assert!(c2.lag >= 1);
    }
}
