//! Interpolation and resampling.
//!
//! [`fill_gaps_complex`] is the per-lane definition of the CSI layer's
//! packet-loss repair (null CSI insertion followed by gap interpolation,
//! paper §5 "Packet synchronization and interpolation"), which its tests
//! check the whole-snapshot repair against; the evaluation harness
//! downsamples CSI streams for the sampling-rate sweep (paper Fig. 16).

use crate::complex::Complex64;

/// Linear interpolation of `y` at query point `x` given sorted knots `xs`.
///
/// Extrapolates by clamping to the end values. Returns `None` if `xs` is
/// empty or if `xs` and `ys` differ in length.
pub fn lerp_at(xs: &[f64], ys: &[f64], x: f64) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    if x <= xs[0] {
        return Some(ys[0]);
    }
    if x >= xs[xs.len() - 1] {
        return Some(ys[ys.len() - 1]);
    }
    // Binary search for the bracketing interval.
    let idx = xs.partition_point(|&v| v <= x);
    let (x0, x1) = (xs[idx - 1], xs[idx]);
    let (y0, y1) = (ys[idx - 1], ys[idx]);
    if x1 == x0 {
        return Some(y0);
    }
    let t = (x - x0) / (x1 - x0);
    Some(y0 + t * (y1 - y0))
}

/// Fills `None` gaps in a sequence of complex samples by linear
/// interpolation between the nearest present neighbours, component-wise.
///
/// Leading/trailing gaps are filled by holding the nearest present value.
/// Returns `None` if every element is missing.
pub fn fill_gaps_complex(xs: &[Option<Complex64>]) -> Option<Vec<Complex64>> {
    let first = xs.iter().position(|v| v.is_some())?;
    let last = xs.iter().rposition(|v| v.is_some())?;
    let n = xs.len();
    let mut out = Vec::with_capacity(n);
    // Leading hold.
    let first_val = xs[first].unwrap();
    for _ in 0..first {
        out.push(first_val);
    }
    let mut i = first;
    while i <= last {
        match xs[i] {
            Some(v) => {
                out.push(v);
                i += 1;
            }
            None => {
                // Find the end of this gap; `last` guarantees a right anchor.
                let start = i;
                let mut j = i;
                while xs[j].is_none() {
                    j += 1;
                }
                let left = out[start - 1];
                let right = xs[j].unwrap();
                let span = (j - start + 1) as f64;
                for (step, _) in (start..j).enumerate() {
                    let t = (step + 1) as f64 / span;
                    out.push(left + (right - left).scale(t));
                }
                i = j;
            }
        }
    }
    // Trailing hold.
    let last_val = xs[last].unwrap();
    for _ in last + 1..n {
        out.push(last_val);
    }
    Some(out)
}

/// Decimates a slice by an integer factor, keeping every `factor`-th
/// element starting at index 0.
///
/// # Panics
/// Panics if `factor` is zero.
pub fn decimate<T: Copy>(x: &[T], factor: usize) -> Vec<T> {
    assert!(factor > 0, "decimation factor must be positive");
    x.iter().step_by(factor).copied().collect()
}

/// Resamples a uniformly-sampled real signal from `from_hz` to `to_hz`
/// using linear interpolation. The output covers the same time span.
pub fn resample_linear(x: &[f64], from_hz: f64, to_hz: f64) -> Vec<f64> {
    assert!(from_hz > 0.0 && to_hz > 0.0, "rates must be positive");
    if x.is_empty() {
        return Vec::new();
    }
    let duration = (x.len() - 1) as f64 / from_hz;
    let n_out = (duration * to_hz).floor() as usize + 1;
    let xs: Vec<f64> = (0..x.len()).map(|k| k as f64 / from_hz).collect();
    (0..n_out)
        .map(|k| lerp_at(&xs, x, k as f64 / to_hz).unwrap())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_midpoint() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 20.0];
        assert_eq!(lerp_at(&xs, &ys, 0.5), Some(5.0));
        assert_eq!(lerp_at(&xs, &ys, 1.5), Some(15.0));
    }

    #[test]
    fn lerp_clamps_out_of_range() {
        let xs = [0.0, 1.0];
        let ys = [2.0, 4.0];
        assert_eq!(lerp_at(&xs, &ys, -5.0), Some(2.0));
        assert_eq!(lerp_at(&xs, &ys, 9.0), Some(4.0));
    }

    #[test]
    fn lerp_rejects_bad_input() {
        assert_eq!(lerp_at(&[], &[], 0.0), None);
        assert_eq!(lerp_at(&[0.0], &[1.0, 2.0], 0.0), None);
    }

    #[test]
    fn lerp_exact_knot() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [1.0, 3.0, 9.0];
        assert_eq!(lerp_at(&xs, &ys, 1.0), Some(3.0));
    }

    #[test]
    fn fill_gaps_interior() {
        let c = |re: f64| Complex64::from_re(re);
        let xs = [Some(c(0.0)), None, None, Some(c(3.0))];
        let out = fill_gaps_complex(&xs).unwrap();
        assert!((out[1].re - 1.0).abs() < 1e-12);
        assert!((out[2].re - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fill_gaps_edges_hold() {
        let c = |re: f64| Complex64::from_re(re);
        let xs = [None, Some(c(5.0)), None];
        let out = fill_gaps_complex(&xs).unwrap();
        assert_eq!(out[0].re, 5.0);
        assert_eq!(out[2].re, 5.0);
    }

    #[test]
    fn fill_gaps_all_missing_is_none() {
        assert!(fill_gaps_complex(&[None, None]).is_none());
        assert!(fill_gaps_complex(&[]).is_none());
    }

    #[test]
    fn fill_gaps_no_gaps_identity() {
        let xs: Vec<Option<Complex64>> = (0..5)
            .map(|k| Some(Complex64::new(k as f64, -(k as f64))))
            .collect();
        let out = fill_gaps_complex(&xs).unwrap();
        for (o, x) in out.iter().zip(&xs) {
            assert_eq!(*o, x.unwrap());
        }
    }

    #[test]
    fn decimate_basic() {
        let x = [0, 1, 2, 3, 4, 5, 6];
        assert_eq!(decimate(&x, 2), vec![0, 2, 4, 6]);
        assert_eq!(decimate(&x, 3), vec![0, 3, 6]);
        assert_eq!(decimate(&x, 1), x.to_vec());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn decimate_zero_panics() {
        let _ = decimate(&[1], 0);
    }

    #[test]
    fn resample_identity_rate() {
        let x = [1.0, 2.0, 3.0];
        let y = resample_linear(&x, 100.0, 100.0);
        assert_eq!(y, x.to_vec());
    }

    #[test]
    fn resample_halves_sample_count() {
        let x: Vec<f64> = (0..201).map(|k| k as f64).collect();
        let y = resample_linear(&x, 200.0, 100.0);
        assert_eq!(y.len(), 101);
        assert!((y[1] - 2.0).abs() < 1e-9); // 10 ms at 200 Hz is sample 2.
    }

    #[test]
    fn resample_preserves_linear_signal() {
        let x: Vec<f64> = (0..101).map(|k| 0.5 * k as f64).collect();
        let y = resample_linear(&x, 100.0, 77.0);
        for (k, &v) in y.iter().enumerate() {
            let t = k as f64 / 77.0;
            assert!((v - 50.0 * t).abs() < 1e-9);
        }
    }
}
