//! CSI phase sanitation.
//!
//! Removes the linear phase distortion (STO/SFO slope plus constant
//! offset) from a CFR — the calibration the paper applies per antenna
//! independently before computing TRRS (§3.2, footnote 3). SpotFi \[13\]
//! fits a line to the unwrapped phase; [`sanitize_matched_delay`] finds
//! the slope by a matched-delay search instead, which one corrupted
//! deep-fade phase cannot derail. The remaining per-packet *initial*
//! phase is irrelevant because the TRRS takes a magnitude.

use rim_dsp::complex::{Complex64, ZERO};
use rim_dsp::fft::fft_pow2_in_place;
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
///
/// # Screen, then confirm
///
/// The search is defined by an exhaustive scan of the objective
/// `v(β) = |Σ_k H_k·cis(−β·idx_k)|²`, summed in index order: every coarse
/// `β = s·Δ` (`|s| ≤ n`), then the 17 fine `β = b₀ + s·Δ/8` (`|s| ≤ 8`)
/// around the coarse winner `b₀`, each pass keeping its first maximum.
/// The output is bit-identical to that scan, but few βs are evaluated
/// directly:
///
/// 1. *Screen.* Every coarse value comes from one chirp-z transform (a
///    Bluestein convolution on a radix-2 FFT); every fine value from one
///    `cis` base vector advanced by a per-grid rotation vector. Each
///    screened value lies within `δ` of the direct one; the bound and its
///    derivation are on `BetaScreen::new`.
/// 2. *Confirm.* Only βs whose screened value is not below `max − 2δ` are
///    evaluated directly, in ascending β with a strict `>`. The exhaustive
///    winner `s★` always passes: for every `s`, its screened value is at
///    least `v(s★) − δ ≥ v(s) − δ ≥ screened(s) − 2δ`. Every β that ties
///    it passes too, so the first maximum among the candidates is the
///    exhaustive one.
///
/// A point is skipped only when its screened value compares below the
/// threshold, so a NaN or infinite screened value or bound (NaN or
/// infinite CSI, or amplitudes whose square overflows) admits every
/// point, and the confirm loop becomes the exhaustive direct scan.
pub fn sanitize_matched_delay(cfr: &mut [Complex64], indices: &[i32]) {
    if cfr.len() < 2 || cfr.len() != indices.len() {
        return;
    }
    let eval = |beta: f64| objective(cfr, indices, beta);
    let ((b0, v0), step) = SCREEN.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.as_ref().is_some_and(|s| s.indices != indices) {
            *cache = None;
        }
        cache
            .get_or_insert_with(|| BetaScreen::new(indices))
            .search(cfr, &eval)
    });
    // Parabolic refinement at the fine step.
    let vm = eval(b0 - step);
    let vp = eval(b0 + step);
    let denom = vm - 2.0 * v0 + vp;
    let beta = if denom < -1e-12 {
        b0 + 0.5 * (vm - vp) / denom * step
    } else {
        b0
    };
    // Remove slope and the intercept (phase of the aligned sum).
    let mut acc = ZERO;
    for (h, &i) in cfr.iter().zip(indices) {
        acc += *h * Complex64::cis(-beta * i as f64);
    }
    let intercept = acc.arg();
    for (h, &i) in cfr.iter_mut().zip(indices) {
        *h *= Complex64::cis(-(beta * i as f64 + intercept));
    }
}

/// The search objective `|Σ_k H_k·cis(−β·idx_k)|²`, evaluated directly
/// in index order: the definition every screened value is held to.
fn objective(cfr: &[Complex64], indices: &[i32], beta: f64) -> f64 {
    let mut acc = ZERO;
    for (h, &i) in cfr.iter().zip(indices) {
        acc += *h * Complex64::cis(-beta * i as f64);
    }
    acc.norm_sqr()
}

/// Fine βs on each side of the coarse winner; the fine step is the coarse
/// step over this count.
const FINE_HALF: i32 = 8;

thread_local! {
    /// The β screen of the grid this thread sanitized last.
    static SCREEN: RefCell<Option<BetaScreen>> = const { RefCell::new(None) };
}

/// What the β search of one subcarrier grid keeps between CFRs: the
/// coarse grid, the chirp-z transform's chirp and kernel spectrum, the
/// fine rotation vector and the error bound, plus scratch space so a CFR
/// allocates nothing. About `16·(2L + 2N + M)` bytes plus `8·(2n + 1)`;
/// on VHT80 (`L = 512`, `N = 242`, `M = 245`, `n = 125`) about 30 KB.
struct BetaScreen {
    /// The subcarrier indices the screen was built for.
    indices: Vec<i32>,
    /// Smallest index: the chirp-z input slot of subcarrier `k` is
    /// `idx_k − lo`.
    lo: i64,
    /// Coarse β step `Δ`, rad/index.
    step: f64,
    /// Coarse β steps on either side of zero, `n`.
    n_steps: i32,
    /// `cis(−Δ·m²/2)` for `m = 0..=hi − lo`.
    chirp: Vec<Complex64>,
    /// FFT of the length-`L` kernel `κ[r mod L] = cis(Δ·(r − n)²/2)`,
    /// `r ∈ [−(M − 1), 2n]`, pre-scaled by `1/L`.
    kernel: Vec<Complex64>,
    /// `cis(−(Δ/8)·idx_k)`: one fine step per subcarrier.
    rotation: Vec<Complex64>,
    /// `δ / S²`: see [`BetaScreen::new`].
    rel_bound: f64,
    /// Scratch: the chirp-z spectrum, length `L`.
    spectrum: Vec<Complex64>,
    /// Scratch: the screened coarse objective, length `2n + 1`.
    screened: Vec<f64>,
    /// Scratch: the fine phasors `H_k·cis(−β·idx_k)`, length `N`.
    phasors: Vec<Complex64>,
}

impl BetaScreen {
    /// Builds the screen for `indices` (at least one entry).
    ///
    /// # The bound δ
    ///
    /// Both a screened value and a direct one approximate the same
    /// `|F(β)|²`, `F(β) = Σ_k H_k e^{−jβ·idx_k}`, and `|F| ≤ S = Σ|H_k|`.
    /// With `u = 2⁻⁵³`, each error of `F` below is a first-order sum of
    /// standard rounding bounds (a `cis` 2u, a complex product 3u, a
    /// recursive sum of N terms N·u, an angle `x` rounded to `u·|x|`), in
    /// units of `S`, with constants rounded up. `R` is the largest
    /// `|β·idx|` searched, `(n + 1)·Δ·max|idx|`.
    ///
    /// * Direct evaluation: the angle `β·idx` and β itself rounded, the
    ///   `cis`, the product and the sum: `ε_d = u·(N + 6 + 2R)`.
    /// * Fine screen: the base vector as above; 16 rotation steps of at
    ///   most a product and a rotation `cis` (5u) each; the base angle
    ///   rounded differently from the direct `b₀ + s·Δ/8` (3R):
    ///   `ε_f = u·(N + 96 + 8R)`.
    /// * Coarse screen, an FFT of length `L` with twiddles built by
    ///   recurrence (error ≤ `η = u·(3L + 16)` per butterfly; Higham,
    ///   *Accuracy and Stability of Numerical Algorithms*, Thm 24.2 gives
    ///   `log₂L·η` relative in 2-norm per transform). The input (indices
    ///   folded, times the chirp) is off by `α = u·(N + 5 + Δ·M²/2)`, each
    ///   kernel entry by `κ = u·(2 + Δ·L²/2)`, and the kernel spectrum is
    ///   at most `L` in modulus. Following the errors through the forward
    ///   transform, the product and the inverse transform gives
    ///   `ε_c = L·(α + κ + 3·log₂L·η + 4u)`.
    ///
    /// For `|F̂ − F| ≤ ε·S` the squares differ by at most `(2ε + ε²)·S²`,
    /// and `norm_sqr` adds `2u·S²` on each side, so
    /// `δ = 2·(2·(max(ε_c, ε_f) + ε_d) + 4u)·S²`, where the leading 2
    /// covers the second-order terms and the rounding of `S` itself
    /// (`S` is taken as `Σ(|Re H_k| + |Im H_k|) ≥ Σ|H_k|`). Below the
    /// normal range rounding errors are absolute, not relative, so
    /// `f64::MIN_POSITIVE` is added.
    ///
    /// On VHT80 `ε_c` dominates and `δ ≈ 1e-8·S²`; the largest error
    /// measured over real and random CFRs is about six orders of magnitude
    /// smaller (EXPERIMENTS.md, "Screened matched-delay search").
    fn new(indices: &[i32]) -> Self {
        let (lo, hi) = indices
            .iter()
            .fold((i32::MAX, i32::MIN), |(lo, hi), &i| (lo.min(i), hi.max(i)));
        let (lo, hi) = (i64::from(lo), i64::from(hi));
        // The main lobe of |Σ H e^{-jβ idx}| is about 2π/span wide, where
        // span is the index extent of the grid — so the search step must
        // scale with the grid. A fixed step sized for the 56/114-entry
        // layouts straddles VHT80's ±122-span lobe, and the slope error it
        // leaves behind (a fraction of the step, amplified by the edge
        // index) jitters the fingerprint packet to packet: a static
        // antenna's self-TRRS sags toward the movement threshold and stops
        // go undetected.
        let span = (hi - lo).max(1) as f64;
        let lobe = std::f64::consts::TAU / span;
        // ≥4 coarse samples per main lobe guarantees the sampled maximum
        // lands on it (the strongest sidelobe sits 13 dB down).
        let step = (lobe / 4.0).min(0.02);
        let range = 0.8f64;
        let n_steps = (range / step).ceil() as i32;
        let n = i64::from(n_steps);
        let width = 2 * n_steps as usize + 1;
        let m_len = (hi - lo) as usize + 1;
        let len = (m_len + width - 1).next_power_of_two();
        // Bluestein: s·m = (s² + m² − (s − m)²)/2, so
        // Σ_m g_m e^{−jΔsm} = e^{−jΔs²/2}·Σ_m [g_m e^{−jΔm²/2}]·e^{jΔ(s−m)²/2},
        // a linear convolution; the leading factor has modulus 1.
        let half_square = |t: i64| (t * t) as f64 * 0.5;
        let chirp = (0..m_len as i64)
            .map(|m| Complex64::cis(-step * half_square(m)))
            .collect();
        let mut kernel = vec![ZERO; len];
        for r in 1 - m_len as i64..=2 * n {
            kernel[r.rem_euclid(len as i64) as usize] = Complex64::cis(step * half_square(r - n));
        }
        fft_pow2_in_place(&mut kernel, false);
        let scale = 1.0 / len as f64;
        for k in &mut kernel {
            *k = k.scale(scale);
        }
        let fine = step / f64::from(FINE_HALF);
        let rotation = indices
            .iter()
            .map(|&i| Complex64::cis(-fine * i as f64))
            .collect();

        let u = f64::EPSILON / 2.0;
        let (big_n, m, l) = (indices.len() as f64, m_len as f64, len as f64);
        let max_idx = lo.abs().max(hi.abs()) as f64;
        let reach = (f64::from(n_steps) + 1.0) * step * max_idx;
        let direct = u * (big_n + 6.0 + 2.0 * reach);
        let fine_screen = u * (big_n + 96.0 + 8.0 * reach);
        let eta = u * (3.0 * l + 16.0);
        let coarse_screen = l
            * (u * (big_n + 5.0 + step * m * m / 2.0)
                + u * (2.0 + step * l * l / 2.0)
                + 3.0 * l.log2() * eta
                + 4.0 * u);
        let rel_bound = 2.0 * (2.0 * (coarse_screen.max(fine_screen) + direct) + 4.0 * u);
        Self {
            indices: indices.to_vec(),
            lo,
            step,
            n_steps,
            chirp,
            kernel,
            rotation,
            rel_bound,
            spectrum: vec![ZERO; len],
            screened: vec![0.0; width],
            phasors: vec![ZERO; indices.len()],
        }
    }

    /// The bound `δ` on `|screened − direct|` for `cfr`.
    fn bound(&self, cfr: &[Complex64]) -> f64 {
        let s: f64 = cfr.iter().map(|h| h.re.abs() + h.im.abs()).sum();
        self.rel_bound * s * s + f64::MIN_POSITIVE
    }

    /// The fine winner `(β, v(β))` and the fine step: the result of the
    /// exhaustive coarse and fine scans.
    fn search(&mut self, cfr: &[Complex64], eval: &impl Fn(f64) -> f64) -> ((f64, f64), f64) {
        let delta = self.bound(cfr);
        let (step, n) = (self.step, self.n_steps);
        self.screen_coarse(cfr);
        let (b0, _) = confirm(
            &self.screened,
            delta,
            |j| (j as i32 - n) as f64 * step,
            eval,
            0.0,
        );
        let fine = step / f64::from(FINE_HALF);
        let screened = self.screen_fine(cfr, b0 + f64::from(-FINE_HALF) * fine);
        let best = confirm(
            &screened,
            delta,
            |j| b0 + (j as i32 - FINE_HALF) as f64 * fine,
            eval,
            b0,
        );
        (best, fine)
    }

    /// Fills `screened` with the objective at every coarse β, in ascending
    /// β, by one chirp-z transform.
    fn screen_coarse(&mut self, cfr: &[Complex64]) {
        let spectrum = &mut self.spectrum;
        spectrum.fill(ZERO);
        // Fold repeated indices: g_m = Σ_{idx_k = lo + m} H_k.
        for (h, &i) in cfr.iter().zip(&self.indices) {
            spectrum[(i64::from(i) - self.lo) as usize] += *h;
        }
        for (x, c) in spectrum.iter_mut().zip(&self.chirp) {
            *x *= *c;
        }
        fft_pow2_in_place(spectrum, false);
        for (x, k) in spectrum.iter_mut().zip(&self.kernel) {
            *x *= *k;
        }
        fft_pow2_in_place(spectrum, true);
        for (v, x) in self.screened.iter_mut().zip(spectrum.iter()) {
            *v = x.norm_sqr();
        }
    }

    /// The objective at the 17 fine βs `from + j·Δ/8`, by one base vector
    /// advanced one rotation per step.
    fn screen_fine(&mut self, cfr: &[Complex64], from: f64) -> [f64; 2 * FINE_HALF as usize + 1] {
        for ((p, h), &i) in self.phasors.iter_mut().zip(cfr).zip(&self.indices) {
            *p = *h * Complex64::cis(-from * i as f64);
        }
        let mut out = [0.0; 2 * FINE_HALF as usize + 1];
        for v in &mut out {
            let mut acc = ZERO;
            for (p, r) in self.phasors.iter_mut().zip(&self.rotation) {
                acc += *p;
                *p *= *r;
            }
            *v = acc.norm_sqr();
        }
        out
    }
}

/// The first maximum `(β, v(β))` of the direct objective `eval` over a β
/// grid (`beta(j)`, ascending in `j`), starting from `(start, −∞)` as the
/// exhaustive scan does. Only grid points whose screened value
/// `screened[j]`, within `delta` of `eval`, is not below the screened
/// maximum minus `2·delta` are evaluated.
fn confirm(
    screened: &[f64],
    delta: f64,
    beta: impl Fn(usize) -> f64,
    eval: &impl Fn(f64) -> f64,
    start: f64,
) -> (f64, f64) {
    let floor = screened.iter().copied().fold(f64::NEG_INFINITY, f64::max) - 2.0 * delta;
    let mut best = (start, f64::NEG_INFINITY);
    for (j, &approx) in screened.iter().enumerate() {
        // False for a NaN value or floor: such a point is evaluated.
        if approx < floor {
            continue;
        }
        let b = beta(j);
        let v = eval(b);
        if v > best.1 {
            best = (b, v);
        }
    }
    best
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

    /// The grids the screen is held to: HT20, HT40, VHT80, the Intel 5300
    /// stride-4 grid, a VHT160 grid (±6..±250 with its two DC gaps), and
    /// a random unsorted grid that may repeat indices.
    fn screen_grids(random: &[i32]) -> Vec<Vec<i32>> {
        use rim_channel::SubcarrierLayout;
        let vht160: Vec<i32> = (-250..=-130)
            .chain(-126..=-6)
            .chain(6..=126)
            .chain(130..=250)
            .collect();
        vec![
            SubcarrierLayout::ht20_5ghz().indices,
            SubcarrierLayout::ht40_5ghz().indices,
            SubcarrierLayout::vht80_5ghz().indices,
            SubcarrierLayout::intel5300_ht40().indices,
            vht160,
            random.to_vec(),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Every screened coarse and fine value lies within δ of the
        /// direct evaluation, at amplitude scales from 1e-150 to 1e150.
        #[test]
        fn screened_values_lie_within_delta(
            grid in 0usize..6,
            random in proptest::collection::vec(-130i32..130, 2..80),
            taps in proptest::collection::vec((0.05f64..2.0, -0.6f64..0.6, -3.1f64..3.1), 1..5),
            noise in proptest::collection::vec((-0.3f64..0.3, -0.3f64..0.3), 1..32),
            exponent in -150i32..=150,
            pick in 0.0f64..1.0,
        ) {
            let indices = &screen_grids(&random)[grid];
            let scale = 10f64.powi(exponent);
            let cfr: Vec<Complex64> = indices
                .iter()
                .zip(noise.iter().cycle())
                .map(|(&i, &(re, im))| {
                    let mut h = Complex64::new(re, im);
                    for &(a, slope, phase) in &taps {
                        h += Complex64::from_polar(a, slope * i as f64 + phase);
                    }
                    h.scale(scale)
                })
                .collect();
            let mut screen = BetaScreen::new(indices);
            let delta = screen.bound(&cfr);
            proptest::prop_assert!(delta.is_finite() && delta > 0.0);
            screen.screen_coarse(&cfr);
            let (step, n) = (screen.step, screen.n_steps);
            let coarse = screen.screened.clone();
            for (j, &approx) in coarse.iter().enumerate() {
                let exact = objective(&cfr, indices, (j as i32 - n) as f64 * step);
                proptest::prop_assert!(
                    (approx - exact).abs() <= delta,
                    "coarse {j}: screened {approx:e}, direct {exact:e}, δ {delta:e}"
                );
            }
            // Fine grids around the coarse maximum and around a random
            // coarse β.
            let top = (0..coarse.len()).fold(0, |b, j| if coarse[j] > coarse[b] { j } else { b });
            let any = ((coarse.len() - 1) as f64 * pick) as usize;
            let fine = step / f64::from(FINE_HALF);
            for j in [top, any] {
                let b0 = (j as i32 - n) as f64 * step;
                let screened = screen.screen_fine(&cfr, b0 + f64::from(-FINE_HALF) * fine);
                for (k, &approx) in screened.iter().enumerate() {
                    let exact = objective(&cfr, indices, b0 + (k as i32 - FINE_HALF) as f64 * fine);
                    proptest::prop_assert!(
                        (approx - exact).abs() <= delta,
                        "fine {k} around {b0}: screened {approx:e}, direct {exact:e}, δ {delta:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn confirm_admits_every_point_under_a_non_finite_bound() {
        // The direct objective disagrees with the screen everywhere; a NaN
        // or infinite bound must still scan every point, in order.
        let screened = [3.0, 1.0, 2.0, 0.5];
        let direct = [1.0, 4.0, 4.0, 9.0];
        let eval = |b: f64| direct[b as usize];
        for delta in [f64::NAN, f64::INFINITY] {
            assert_eq!(
                confirm(&screened, delta, |j| j as f64, &eval, -1.0),
                (3.0, 9.0)
            );
        }
        // A finite bound skips the points provably beaten: only the
        // screened maximum is evaluated here.
        assert_eq!(
            confirm(&screened, 0.1, |j| j as f64, &eval, -1.0),
            (0.0, 1.0)
        );
        // A NaN screened value admits its own point.
        let with_nan = [3.0, f64::NAN, 2.0, 0.5];
        assert_eq!(
            confirm(&with_nan, 0.1, |j| j as f64, &eval, -1.0),
            (1.0, 4.0)
        );
    }
}
