//! CSI phase sanitation.
//!
//! Removes the linear phase distortion (STO/SFO slope plus constant
//! offset) from a CFR — the calibration the paper applies per antenna
//! independently before computing TRRS (§3.2, footnote 3). SpotFi \[13\]
//! fits a line to the unwrapped phase; [`sanitize_matched_delay`] finds
//! the slope by a matched-delay search instead, which one corrupted
//! deep-fade phase cannot derail. The remaining per-packet *initial*
//! phase is irrelevant because the TRRS takes a magnitude.

use rim_dsp::complex::Complex64;
use rim_dsp::stats::wrap_angle;
use std::cell::RefCell;

/// Unwraps a phase sequence: adds multiples of 2π so consecutive samples
/// never jump by more than π.
///
/// Jumps are closed one 2π turn at a time. A jump of more than 65,536
/// turns, or one that subtracting 2π cannot shrink because the values are
/// too large for it to change them, is reduced in closed form instead, so
/// the function returns for every input. A non-finite entry passes
/// through unchanged, and so does the entry after it, which has no finite
/// neighbour to unwrap against.
pub fn unwrap_phase(phases: &[f64]) -> Vec<f64> {
    use std::f64::consts::{PI, TAU};
    let mut out: Vec<f64> = Vec::with_capacity(phases.len());
    let mut offset = 0.0;
    for (i, &p) in phases.iter().enumerate() {
        if i > 0 {
            let prev = out[i - 1];
            let mut cur = p + offset;
            // False for NaN and infinite jumps.
            if (cur - prev).abs() <= f64::from(UNWRAP_LOOP_TURNS) * TAU {
                let mut turns = UNWRAP_LOOP_TURNS + 1;
                while cur - prev > PI && turns > 0 {
                    cur -= TAU;
                    offset -= TAU;
                    turns -= 1;
                }
                while cur - prev < -PI && turns > 0 {
                    cur += TAU;
                    offset += TAU;
                    turns -= 1;
                }
            }
            if (cur - prev).abs() > PI && cur.is_finite() && prev.is_finite() {
                cur = prev + wrap_angle(wrap_angle(cur) - wrap_angle(prev));
                offset = cur - p;
            }
            out.push(cur);
        } else {
            out.push(p);
        }
    }
    out
}

/// Turns [`unwrap_phase`] steps through one at a time before it reduces a
/// jump in closed form. Phases from `arg()` jump by at most one turn.
const UNWRAP_LOOP_TURNS: u32 = 1 << 16;

/// Removes the linear phase via a *matched-delay* search: finds the slope
/// `β★ = argmax_β |Σ_k H_k e^{−jβ·idx_k}|` (the delay of the strongest
/// time-domain tap) by coarse grid plus parabolic refinement, then removes
/// `β★·idx + intercept`.
///
/// Unlike the unwrap-and-fit approach, this is robust to phase noise on
/// deep-fade subcarriers (a single corrupted phase sample can derail
/// unwrapping and inject a ±2π/N slope error, jittering the fingerprint
/// packet to packet). Both the channel's own bulk delay and the per-packet
/// STO/SFO slope are removed consistently, so the residual is a stable
/// location signature.
pub fn sanitize_matched_delay(cfr: &mut [Complex64], indices: &[i32]) {
    if cfr.len() < 2 || cfr.len() != indices.len() {
        return;
    }
    let eval = |beta: f64| -> f64 {
        let mut acc = rim_dsp::complex::ZERO;
        for (h, &i) in cfr.iter().zip(indices) {
            acc += *h * Complex64::cis(-beta * i as f64);
        }
        acc.norm_sqr()
    };
    let (b0, coarse) = COARSE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.as_ref().is_some_and(|t| t.indices != indices) {
            *cache = None;
        }
        cache
            .get_or_insert_with(|| CoarseTwiddles::new(indices))
            .argmax(cfr)
    });
    // Fine pass across the coarse peak's neighbourhood, then parabolic
    // refinement at the fine step.
    let step = coarse / 8.0;
    let best = {
        let mut fine = (b0, f64::NEG_INFINITY);
        for s in -8..=8 {
            let beta = b0 + s as f64 * step;
            let v = eval(beta);
            if v > fine.1 {
                fine = (beta, v);
            }
        }
        fine
    };
    let (b0, v0) = best;
    let vm = eval(b0 - step);
    let vp = eval(b0 + step);
    let denom = vm - 2.0 * v0 + vp;
    let beta = if denom < -1e-12 {
        b0 + 0.5 * (vm - vp) / denom * step
    } else {
        b0
    };
    // Remove slope and the intercept (phase of the aligned sum).
    let mut acc = rim_dsp::complex::ZERO;
    for (h, &i) in cfr.iter().zip(indices) {
        acc += *h * Complex64::cis(-beta * i as f64);
    }
    let intercept = acc.arg();
    for (h, &i) in cfr.iter_mut().zip(indices) {
        *h *= Complex64::cis(-(beta * i as f64 + intercept));
    }
}

thread_local! {
    /// The coarse twiddles of the grid this thread sanitized last.
    static COARSE: RefCell<Option<CoarseTwiddles>> = const { RefCell::new(None) };
}

/// The coarse β grid of one subcarrier grid and its twiddle matrix
/// `e^{−jβ_s·idx_k}`. Neither depends on the packet, so building the
/// matrix once per grid leaves the coarse search only multiply–adds.
struct CoarseTwiddles {
    /// The subcarrier indices the grid was built for.
    indices: Vec<i32>,
    /// Coarse β step, rad/index.
    step: f64,
    /// β steps on either side of zero.
    n_steps: i32,
    /// `table[k * width + j] = cis(−β_j·idx_k)` with `β_j = (j − n_steps)·step`
    /// and `width = 2·n_steps + 1`: one row per subcarrier.
    table: Vec<Complex64>,
}

impl CoarseTwiddles {
    /// Builds the grid for `indices` (at least one entry). The table holds
    /// about span × `indices.len()` entries.
    fn new(indices: &[i32]) -> Self {
        let (lo, hi) = indices
            .iter()
            .fold((i32::MAX, i32::MIN), |(lo, hi), &i| (lo.min(i), hi.max(i)));
        // The main lobe of |Σ H e^{-jβ idx}| is about 2π/span wide, where
        // span is the index extent of the grid — so the search step must
        // scale with the grid. A fixed step sized for the 56/114-entry
        // layouts straddles VHT80's ±122-span lobe, and the slope error it
        // leaves behind (a fraction of the step, amplified by the edge
        // index) jitters the fingerprint packet to packet: a static
        // antenna's self-TRRS sags toward the movement threshold and stops
        // go undetected.
        let span = (i64::from(hi) - i64::from(lo)).max(1) as f64;
        let lobe = std::f64::consts::TAU / span;
        // ≥4 coarse samples per main lobe guarantees the sampled maximum
        // lands on it (the strongest sidelobe sits 13 dB down).
        let step = (lobe / 4.0).min(0.02);
        let range = 0.8f64;
        let n_steps = (range / step).ceil() as i32;
        let table = indices
            .iter()
            .flat_map(|&i| {
                (-n_steps..=n_steps).map(move |s| Complex64::cis(-(s as f64 * step) * i as f64))
            })
            .collect();
        Self {
            indices: indices.to_vec(),
            step,
            n_steps,
            table,
        }
    }

    /// The coarse β maximising `|Σ_k H_k e^{−jβ·idx_k}|²` (the first on
    /// ties, scanning β upwards), and the coarse step.
    ///
    /// Each accumulator sums over `k` in index order with the same complex
    /// multiply and add as a direct evaluation, so every objective value,
    /// and with it the chosen β, is bit-identical to evaluating the
    /// twiddles on the fly.
    fn argmax(&self, cfr: &[Complex64]) -> (f64, f64) {
        let mut sums = vec![rim_dsp::complex::ZERO; 2 * self.n_steps as usize + 1];
        for (h, row) in cfr.iter().zip(self.table.chunks_exact(sums.len())) {
            for (acc, t) in sums.iter_mut().zip(row) {
                *acc += *h * *t;
            }
        }
        let mut best = (0.0f64, f64::NEG_INFINITY);
        for (s, acc) in (-self.n_steps..).zip(&sums) {
            let v = acc.norm_sqr();
            if v > best.1 {
                best = (s as f64 * self.step, v);
            }
        }
        (best.0, self.step)
    }
}

/// Why [`sanitize_snapshot`] rejected a MIMO snapshot. Either way the
/// snapshot is left untouched so the caller can discard it as loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizeError {
    /// A NaN or infinite CFR value. Non-finite amplitudes would otherwise
    /// survive sanitation (the matched-delay objective turns NaN into a
    /// flat-NaN CFR) and silently poison every TRRS downstream.
    NonFinite {
        /// TX-antenna index of the offending CFR.
        tx: usize,
        /// Subcarrier position (index into the CFR) of the first
        /// non-finite value.
        subcarrier: usize,
    },
    /// A CFR whose length differs from the subcarrier grid's. Its phase
    /// cannot be sanitized against the grid, and an unsanitized CFR
    /// among sanitized ones would corrupt the fingerprint.
    Ragged {
        /// TX-antenna index of the offending CFR.
        tx: usize,
        /// Entries in the CFR.
        len: usize,
        /// Entries in the subcarrier grid.
        expected: usize,
    },
}

impl std::fmt::Display for SanitizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanitizeError::NonFinite { tx, subcarrier } => write!(
                f,
                "non-finite CSI amplitude at tx {tx} subcarrier {subcarrier}"
            )?,
            SanitizeError::Ragged { tx, len, expected } => write!(
                f,
                "CFR at tx {tx} has {len} subcarriers but the grid has {expected}"
            )?,
        }
        write!(
            f,
            "; treat the packet as lost (the recorder maps rejected \
             snapshots to loss so interpolation can repair them)"
        )
    }
}

impl std::error::Error for SanitizeError {}

/// Sanitizes every CFR of a MIMO snapshot (`csi[tx][subcarrier]`) with the
/// robust matched-delay method.
///
/// # Errors
/// [`SanitizeError::Ragged`] when a CFR's length differs from
/// `indices.len()`, and [`SanitizeError::NonFinite`] when any CFR entry is
/// NaN or infinite; the first offending TX is reported and the snapshot
/// is left untouched so the caller can discard it as loss.
pub fn sanitize_snapshot(csi: &mut [Vec<Complex64>], indices: &[i32]) -> Result<(), SanitizeError> {
    for (tx, cfr) in csi.iter().enumerate() {
        if cfr.len() != indices.len() {
            return Err(SanitizeError::Ragged {
                tx,
                len: cfr.len(),
                expected: indices.len(),
            });
        }
        if let Some(subcarrier) = cfr.iter().position(|h| !h.is_finite()) {
            return Err(SanitizeError::NonFinite { tx, subcarrier });
        }
    }
    for cfr in csi {
        sanitize_matched_delay(cfr, indices);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_restores_continuity() {
        // A steep linear phase wraps repeatedly; unwrap must restore it.
        let true_phase: Vec<f64> = (0..50).map(|k| 0.7 * k as f64).collect();
        let wrapped: Vec<f64> = true_phase
            .iter()
            .map(|&p| rim_dsp::stats::wrap_angle(p))
            .collect();
        let unwrapped = unwrap_phase(&wrapped);
        for (u, t) in unwrapped.iter().zip(&true_phase) {
            assert!((u - t).abs() < 1e-9, "{u} vs {t}");
        }
    }

    #[test]
    fn unwrap_handles_empty_and_single() {
        assert!(unwrap_phase(&[]).is_empty());
        assert_eq!(unwrap_phase(&[1.2]), vec![1.2]);
    }

    #[test]
    fn unwrap_returns_on_infinite_and_huge_jumps() {
        // Subtracting 2π cannot change either value, so a turn-by-turn
        // loop would never close these jumps.
        let inf = unwrap_phase(&[0.0, f64::INFINITY]);
        assert_eq!(inf[0], 0.0);
        assert_eq!(inf[1], f64::INFINITY, "non-finite entries propagate");
        let huge = unwrap_phase(&[0.0, 1e300]);
        assert_eq!(huge[0], 0.0);
        assert!(huge[1].abs() <= std::f64::consts::PI, "{}", huge[1]);
        // The entries after either keep unwrapping.
        let after = unwrap_phase(&[0.0, f64::NEG_INFINITY, 0.5, 0.7, 1e300, 1.1]);
        assert_eq!(after[1], f64::NEG_INFINITY);
        assert_eq!(after[2], 0.5);
        assert_eq!(after[3], 0.7);
        for w in after[3..].windows(2) {
            assert!((w[1] - w[0]).abs() <= std::f64::consts::PI, "{after:?}");
        }
        // A value so large that 2π is below half its ulp, a small jump away.
        let stuck = unwrap_phase(&[2f64.powi(56), 2f64.powi(56) + 16.0]);
        assert!(
            (stuck[1] - stuck[0]).abs() <= std::f64::consts::PI,
            "{stuck:?}"
        );
    }

    #[test]
    fn sanitize_snapshot_covers_all_tx() {
        let indices: Vec<i32> = (0..16).collect();
        let mut csi: Vec<Vec<Complex64>> = (0..3)
            .map(|t| {
                indices
                    .iter()
                    .map(|&i| Complex64::from_polar(1.0, (0.2 + 0.1 * t as f64) * i as f64))
                    .collect()
            })
            .collect();
        sanitize_snapshot(&mut csi, &indices).unwrap();
        // A pure linear-phase CFR is a single tap: after matched-delay
        // sanitation the phase is flat.
        for cfr in &csi {
            for h in cfr {
                assert!(h.arg().abs() < 1e-3, "{}", h.arg());
            }
        }
    }

    #[test]
    fn sanitize_snapshot_rejects_non_finite_untouched() {
        let indices: Vec<i32> = (0..16).collect();
        let mut csi: Vec<Vec<Complex64>> = (0..2)
            .map(|t| {
                indices
                    .iter()
                    .map(|&i| Complex64::from_polar(1.0, (0.2 + 0.1 * t as f64) * i as f64))
                    .collect()
            })
            .collect();
        csi[1][5] = Complex64::new(f64::NAN, 0.3);
        let before = csi.clone();
        let err = sanitize_snapshot(&mut csi, &indices).unwrap_err();
        assert_eq!(
            err,
            SanitizeError::NonFinite {
                tx: 1,
                subcarrier: 5
            }
        );
        assert!(err.to_string().contains("tx 1"), "{err}");
        assert!(err.to_string().contains("subcarrier 5"), "{err}");
        // Rejection leaves the snapshot untouched — even the clean TX 0
        // must not be half-sanitised.
        let assert_untouched = |csi: &[Vec<Complex64>], before: &[Vec<Complex64>]| {
            assert_eq!(csi.len(), before.len());
            for (a, b) in csi.iter().zip(before) {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "unchanged on rejection"
                    );
                }
            }
        };
        assert_untouched(&csi, &before);
        let inf = vec![vec![Complex64::new(f64::INFINITY, 0.0); 16]];
        let mut inf_csi = inf.clone();
        assert!(sanitize_snapshot(&mut inf_csi, &indices).is_err());

        // A ragged CFR — here the last TX is one subcarrier short — is
        // rejected the same way, before any TX is sanitised.
        let mut ragged = before.clone();
        ragged[1][5] = Complex64::from_re(1.0);
        ragged[1].pop();
        let ragged_before = ragged.clone();
        let err = sanitize_snapshot(&mut ragged, &indices).unwrap_err();
        assert_eq!(
            err,
            SanitizeError::Ragged {
                tx: 1,
                len: 15,
                expected: 16
            }
        );
        assert!(err.to_string().contains("tx 1"), "{err}");
        assert!(err.to_string().contains("15 subcarriers"), "{err}");
        assert_untouched(&ragged, &ragged_before);
        // A grid-length mismatch on every TX, short CFRs included.
        let mut short = vec![vec![Complex64::from_re(1.0); 1]];
        assert!(matches!(
            sanitize_snapshot(&mut short, &indices),
            Err(SanitizeError::Ragged { tx: 0, .. })
        ));
    }

    #[test]
    fn matched_delay_invariant_to_timing_offset() {
        // Multipath channel, two different STO slopes: the sanitised
        // fingerprints must agree (TRRS ≈ 1).
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.05 * i as f64)
                    + Complex64::from_polar(0.5, -0.21 * i as f64)
                    + Complex64::from_polar(0.3, 0.4 * i as f64 + 1.0)
            })
            .collect();
        let mut a = channel.clone();
        let mut b: Vec<Complex64> = channel
            .iter()
            .zip(&indices)
            .map(|(h, &i)| *h * Complex64::from_polar(1.0, -0.23 * i as f64 + 0.7))
            .collect();
        sanitize_matched_delay(&mut a, &indices);
        sanitize_matched_delay(&mut b, &indices);
        let ip = rim_dsp::inner_product(&a, &b).abs();
        let trrs = ip * ip / (rim_dsp::norm_sqr(&a) * rim_dsp::norm_sqr(&b));
        assert!(trrs > 0.999, "matched-delay invariance: {trrs}");
    }

    #[test]
    fn matched_delay_robust_to_single_bad_phase() {
        // One corrupted deep-fade subcarrier must not disturb the rest of
        // the fingerprint (the unwrap-based fit fails this).
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| Complex64::cis(0.05 * i as f64) + Complex64::from_polar(0.4, -0.3 * i as f64))
            .collect();
        let mut clean = channel.clone();
        let mut bad = channel.clone();
        bad[20] = Complex64::from_polar(1e-4, 2.9); // fade + garbage phase
        sanitize_matched_delay(&mut clean, &indices);
        sanitize_matched_delay(&mut bad, &indices);
        let ip = rim_dsp::inner_product(&clean, &bad).abs();
        let trrs = ip * ip / (rim_dsp::norm_sqr(&clean) * rim_dsp::norm_sqr(&bad));
        assert!(trrs > 0.98, "robustness: {trrs}");
    }

    #[test]
    fn matched_delay_invariant_on_wide_grids() {
        // Regression: on a VHT80-scale grid (±122 span) the β search must
        // still resolve the slope finely enough that two packets of the
        // same channel under different per-packet timing offsets sanitise
        // to near-identical fingerprints. With a fixed 0.02 rad/index
        // step the residual slope error left TRRS near 0.96 here — below
        // the 0.92 movement threshold once channel noise stacks on top —
        // so stop-and-go motion on 242-subcarrier devices never detected
        // its stops.
        let indices: Vec<i32> = (-122..=-2).chain(2..=122).collect();
        let channel: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.013 * i as f64)
                    + Complex64::from_polar(0.5, -0.047 * i as f64)
                    + Complex64::from_polar(0.3, 0.09 * i as f64 + 1.0)
            })
            .collect();
        for (sto_a, sto_b) in [(0.0, -0.23), (0.11, 0.017), (-0.31, 0.29)] {
            let offset = |sto: f64| -> Vec<Complex64> {
                channel
                    .iter()
                    .zip(&indices)
                    .map(|(h, &i)| *h * Complex64::from_polar(1.0, sto * i as f64 + 0.7))
                    .collect()
            };
            let mut a = offset(sto_a);
            let mut b = offset(sto_b);
            sanitize_matched_delay(&mut a, &indices);
            sanitize_matched_delay(&mut b, &indices);
            let ip = rim_dsp::inner_product(&a, &b).abs();
            let trrs = ip * ip / (rim_dsp::norm_sqr(&a) * rim_dsp::norm_sqr(&b));
            assert!(
                trrs > 0.9995,
                "wide-grid invariance for STO {sto_a} vs {sto_b}: {trrs}"
            );
        }
    }

    #[test]
    fn matched_delay_short_input_is_noop() {
        let mut one = vec![Complex64::from_polar(1.0, 0.5)];
        let orig = one.clone();
        sanitize_matched_delay(&mut one, &[0]);
        assert_eq!(one, orig);
    }
}
