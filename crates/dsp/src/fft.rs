//! Fast Fourier transforms.
//!
//! Provides an iterative radix-2 Cooley–Tukey FFT for power-of-two lengths
//! and a Bluestein (chirp-z) fallback for arbitrary lengths, so callers can
//! transform CSI vectors of any subcarrier count (e.g. the 114 usable
//! subcarriers of a 40 MHz 802.11n channel) without padding decisions
//! leaking into the signal path.
//!
//! Conventions: `fft` computes `X[k] = Σ_n x[n]·e^{-2πi·kn/N}` (no scaling);
//! `ifft` applies the `1/N` factor so `ifft(fft(x)) == x`.

use crate::complex::{Complex64, ZERO};

/// Returns true if `n` is a power of two (and nonzero).
#[inline]
fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place bit-reversal permutation.
fn bit_reverse_permute(x: &mut [Complex64]) {
    let n = x.len();
    let mut j = 0usize;
    for i in 0..n {
        if i < j {
            x.swap(i, j);
        }
        let mut mask = n >> 1;
        while mask > 0 && j & mask != 0 {
            j &= !mask;
            mask >>= 1;
        }
        j |= mask;
    }
}

/// In-place radix-2 FFT, allocation-free. `inverse` selects the
/// conjugate transform (without the 1/N scale).
///
/// Twiddles are generated by repeated multiplication, so after `i`
/// butterflies of a pass a twiddle carries up to about `5i` units of
/// roundoff (`i < N/2`); callers that bound the transform's error use
/// that figure.
///
/// # Panics
/// Panics if `x` is non-empty and its length is not a power of two.
pub fn fft_pow2_in_place(x: &mut [Complex64], inverse: bool) {
    let n = x.len();
    assert!(
        n == 0 || is_pow2(n),
        "radix-2 FFT length must be a power of two"
    );
    bit_reverse_permute(x);
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex64::cis(ang);
        for chunk in x.chunks_exact_mut(len) {
            let mut w = Complex64::new(1.0, 0.0);
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Bluestein's algorithm: expresses an arbitrary-length DFT as a
/// convolution, evaluated with a power-of-two FFT.
fn bluestein(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = x.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    // chirp[k] = e^{sign·πi·k²/n}; use k² mod 2n to keep the angle bounded.
    let chirp: Vec<Complex64> = (0..n)
        .map(|k| {
            let k2 = (k as u128 * k as u128 % (2 * n as u128)) as f64;
            Complex64::cis(sign * std::f64::consts::PI * k2 / n as f64)
        })
        .collect();

    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![ZERO; m];
    let mut b = vec![ZERO; m];
    for k in 0..n {
        a[k] = x[k] * chirp[k];
        b[k] = chirp[k].conj();
    }
    // b is symmetric: b[m - k] = b[k] for k = 1..n.
    for k in 1..n {
        b[m - k] = chirp[k].conj();
    }
    fft_pow2_in_place(&mut a, false);
    fft_pow2_in_place(&mut b, false);
    for (ai, bi) in a.iter_mut().zip(&b) {
        *ai *= *bi;
    }
    fft_pow2_in_place(&mut a, true);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| a[k] * chirp[k] * scale).collect()
}

/// Forward DFT of arbitrary length.
///
/// Power-of-two lengths use the radix-2 path; other lengths use Bluestein.
/// An empty input returns an empty output.
///
/// ```
/// use rim_dsp::complex::Complex64;
/// use rim_dsp::fft::{fft, ifft};
///
/// // Works for non-power-of-two lengths (e.g. 114 subcarriers).
/// let x: Vec<Complex64> = (0..114).map(|k| Complex64::new(k as f64, 0.0)).collect();
/// let y = ifft(&fft(&x));
/// assert!(x.iter().zip(&y).all(|(a, b)| (*a - *b).abs() < 1e-8));
/// ```
pub fn fft(x: &[Complex64]) -> Vec<Complex64> {
    match x.len() {
        0 => Vec::new(),
        n if is_pow2(n) => {
            let mut y = x.to_vec();
            fft_pow2_in_place(&mut y, false);
            y
        }
        _ => bluestein(x, false),
    }
}

/// Inverse DFT of arbitrary length, scaled by `1/N` so that
/// `ifft(fft(x)) == x` up to rounding.
pub fn ifft(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let mut y = if is_pow2(n) {
        let mut y = x.to_vec();
        fft_pow2_in_place(&mut y, true);
        y
    } else {
        bluestein(x, true)
    };
    let scale = 1.0 / n as f64;
    for z in &mut y {
        *z = z.scale(scale);
    }
    y
}

/// Naive `O(N²)` DFT, used as a reference in tests and for very short inputs
/// where FFT set-up overhead dominates.
pub fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = ZERO;
            for (j, &v) in x.iter().enumerate() {
                let ang = -std::f64::consts::TAU * (k * j % n) as f64 / n as f64;
                acc += v * Complex64::cis(ang);
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::norm_sqr;

    fn assert_vec_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "index {i}: {x:?} vs {y:?} (diff {})",
                (x - y).abs()
            );
        }
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|k| Complex64::new(k as f64 * 0.7 - 1.0, (k as f64).sin()))
            .collect()
    }

    #[test]
    fn empty_input() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
    }

    #[test]
    fn single_element_is_identity() {
        let x = [Complex64::new(2.0, -3.0)];
        assert_vec_close(&fft(&x), &x, 1e-12);
        assert_vec_close(&ifft(&x), &x, 1e-12);
    }

    #[test]
    fn matches_naive_dft_pow2() {
        for n in [2usize, 4, 8, 64] {
            let x = ramp(n);
            assert_vec_close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        for n in [3usize, 5, 7, 12, 57, 114] {
            let x = ramp(n);
            assert_vec_close(&fft(&x), &dft_naive(&x), 1e-8);
        }
    }

    #[test]
    fn round_trip_pow2_and_arbitrary() {
        for n in [1usize, 2, 16, 30, 114, 128] {
            let x = ramp(n);
            assert_vec_close(&ifft(&fft(&x)), &x, 1e-9);
            assert_vec_close(&fft(&ifft(&x)), &x, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        for n in [8usize, 57, 114] {
            let x = ramp(n);
            let y = fft(&x);
            let ex = norm_sqr(&x);
            let ey = norm_sqr(&y) / n as f64;
            assert!((ex - ey).abs() < 1e-8 * ex.max(1.0), "n={n}: {ex} vs {ey}");
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![ZERO; 16];
        x[0] = Complex64::new(1.0, 0.0);
        let y = fft(&x);
        for &v in &y {
            assert!((v - Complex64::new(1.0, 0.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn delayed_impulse_has_linear_phase() {
        let n = 32;
        let d = 5;
        let mut x = vec![ZERO; n];
        x[d] = Complex64::new(1.0, 0.0);
        let y = fft(&x);
        for (k, &v) in y.iter().enumerate() {
            let expect = Complex64::cis(-std::f64::consts::TAU * (k * d) as f64 / n as f64);
            assert!((v - expect).abs() < 1e-10);
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let x = ramp(n);
        let y: Vec<Complex64> = (0..n)
            .map(|k| Complex64::new(1.0, k as f64 * 0.1))
            .collect();
        let a = Complex64::new(0.5, -1.5);
        let combo: Vec<Complex64> = x.iter().zip(&y).map(|(&u, &v)| a * u + v).collect();
        let lhs = fft(&combo);
        let fx = fft(&x);
        let fy = fft(&y);
        let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(&u, &v)| a * u + v).collect();
        assert_vec_close(&lhs, &rhs, 1e-9);
    }
}
