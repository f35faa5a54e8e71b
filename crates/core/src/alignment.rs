//! Alignment (TRRS) matrices — paper §3.2, Eqn. 5.
//!
//! For an antenna pair `(i, j)` the alignment matrix holds
//! `G[t][l] = κ(P_i(t), P_j(t − l))` for lags `l ∈ [−W, W]`: how well
//! antenna `i`'s virtual-massive profile at time `t` matches antenna `j`'s
//! profile `l` samples earlier. A ridge of large values at lag `l(t)`
//! means `i` is retracing `j`'s footprints with delay `l(t)` — the raw
//! material for speed estimation.
//!
//! Computation exploits the identity that the massive-average of Eqn. 4 is
//! a box filter along the time axis of the single-snapshot cross-TRRS
//! matrix `B[t][l] = κ̄(H_i(t), H_j(t−l))`: `B` is computed once
//! (`O(T·W·S·N)` inner products) and every lag column is then averaged in
//! `O(T·W)`, instead of the naive `O(T·W·V·S·N)`.

use crate::pipeline::Precision;
use crate::soa::{PairKernel, SoaScalar, SoaSeries};
use crate::trrs::{trrs_norm, trrs_norm_f32, NormSnapshot};
use rim_par::Pool;
use rim_simd::lanes::f64x4;
use std::ops::Range;
use std::sync::Mutex;

/// Parameters of alignment-matrix computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlignmentConfig {
    /// Lag half-window `W`, in samples. Must exceed the largest expected
    /// alignment delay (≈ antenna separation / slowest speed × rate).
    pub window: usize,
    /// Number of virtual massive antennas `V` (block length of Eqn. 4).
    pub virtual_antennas: usize,
}

impl AlignmentConfig {
    /// Paper-style defaults for a given sample rate: `W` sized for delays
    /// up to 0.5 s (§3.2 "within a short period (e.g., 0.5 seconds)") and
    /// `V` per §6.2.7 ("a number larger than 30 should suffice for … 200
    /// Hz", scaled with rate).
    pub fn for_sample_rate(sample_rate_hz: f64) -> Self {
        Self {
            window: ((0.5 * sample_rate_hz).round() as usize).max(4),
            virtual_antennas: ((0.15 * sample_rate_hz).round() as usize).clamp(3, 60),
        }
    }
}

/// An alignment matrix: `row(t)[k]` is the TRRS at time `t` and lag
/// `k − window` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentMatrix {
    /// Lag half-window `W`.
    pub window: usize,
    /// Row-major: time `t`'s `2W + 1` lags at `t·(2W + 1)..`. Entries whose
    /// `t − l` fell outside the series are 0. The length is always a
    /// multiple of `2W + 1`.
    values: Vec<f64>,
}

impl AlignmentMatrix {
    /// A matrix from its time rows.
    ///
    /// # Panics
    /// Panics if a row does not hold `2·window + 1` lags.
    pub fn from_rows(window: usize, rows: &[Vec<f64>]) -> Self {
        assert!(
            rows.iter().all(|row| row.len() == 2 * window + 1),
            "a row holds one value per lag"
        );
        Self {
            window,
            values: rows.concat(),
        }
    }

    /// A matrix of `n_times` rows built on `pool`, tiled by time: each tile
    /// calls `fill(rows, slab)`, where `slab` is the zeroed, contiguous
    /// part of the matrix holding those rows back to back. The matrix is
    /// one allocation and no row is copied.
    pub(crate) fn from_tiles<F>(window: usize, n_times: usize, pool: &Pool, fill: F) -> Self
    where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        let n_lags = 2 * window + 1;
        let mut values = vec![0.0; n_times * n_lags];
        let tile = pool.tile_for(n_times);
        // Tile `i` covers rows `i·tile..`, so it alone locks slab `i`.
        let slabs: Vec<Mutex<&mut [f64]>> =
            values.chunks_mut(tile * n_lags).map(Mutex::new).collect();
        pool.run_tiles_sized(n_times, tile, |i, rows| {
            let mut slab = slabs[i]
                .lock()
                .expect("each slab is locked by one tile, once");
            fill(rows, &mut slab);
        });
        drop(slabs);
        Self { window, values }
    }

    /// The `2W + 1` lags of time `t`.
    ///
    /// # Panics
    /// Panics if `t` is not below [`Self::n_times`].
    pub fn row(&self, t: usize) -> &[f64] {
        let n = self.n_lags();
        &self.values[t * n..(t + 1) * n]
    }

    /// Every time row, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.values.chunks_exact(self.n_lags())
    }

    /// Number of time columns.
    pub fn n_times(&self) -> usize {
        self.values.len() / self.n_lags()
    }

    /// Number of lag rows (`2W + 1`).
    pub fn n_lags(&self) -> usize {
        2 * self.window + 1
    }

    /// Signed lag (samples) of lag-index `k`.
    pub fn lag_of(&self, k: usize) -> isize {
        k as isize - self.window as isize
    }

    /// Lag-index of a signed lag.
    pub fn index_of(&self, lag: isize) -> usize {
        (lag + self.window as isize) as usize
    }

    /// The TRRS at time `t`, signed lag `lag`.
    pub fn at(&self, t: usize, lag: isize) -> f64 {
        self.row(t)[self.index_of(lag)]
    }

    /// Element-wise average of several matrices (for parallel isometric
    /// pair groups, §4.2), as a parallel reduction: time rows are tiled
    /// across `pool`'s workers. Each element sums its inputs in matrix
    /// order regardless of scheduling, so the result is bit-identical for
    /// any thread count.
    ///
    /// # Panics
    /// Panics if the list is empty or shapes differ.
    pub fn average_with(mats: &[&AlignmentMatrix], pool: &Pool) -> AlignmentMatrix {
        assert!(!mats.is_empty(), "need at least one matrix");
        let w = mats[0].window;
        let t = mats[0].n_times();
        assert!(
            mats.iter().all(|m| m.window == w && m.n_times() == t),
            "matrix shapes must agree"
        );
        let inv = 1.0 / mats.len() as f64;
        AlignmentMatrix::from_tiles(w, t, pool, |rows, slab| {
            for (acc, row) in slab.chunks_exact_mut(2 * w + 1).zip(rows) {
                for m in mats {
                    for (a, &v) in acc.iter_mut().zip(m.row(row)) {
                        *a += v;
                    }
                }
                for v in acc {
                    *v *= inv;
                }
            }
        })
    }

    /// Median TRRS of column `t` — the column's noise floor. Ridge
    /// detection is done *relative* to this floor because the absolute
    /// cross-antenna TRRS floor varies with the environment's multipath
    /// richness.
    pub fn column_floor(&self, t: usize) -> f64 {
        rim_dsp::stats::median(self.row(t))
    }

    /// [`Self::column_floor`] for every column at once, sharing one sort
    /// scratch buffer — the per-call allocation dominates when a caller
    /// needs the floor of each sample in a segment. Each entry equals the
    /// corresponding `column_floor(t)` bit for bit.
    pub fn column_floors(&self) -> Vec<f64> {
        let mut scratch = Vec::new();
        self.rows()
            .map(|row| rim_dsp::stats::quantile_with(row, 0.5, &mut scratch))
            .collect()
    }

    /// Parabolic sub-sample refinement of a ridge lag: fits a parabola to
    /// the TRRS at `lag − 1, lag, lag + 1` and returns the fractional lag
    /// of its vertex (clamped to ±0.5 around `lag`). Falls back to the
    /// integer lag at the window edges or on degenerate curvature.
    pub fn refine_lag(&self, t: usize, lag: isize) -> f64 {
        refine_lag_in(self.row(t), lag)
    }

    /// Per-column maximum TRRS and its signed lag.
    pub fn column_peaks(&self) -> Vec<(isize, f64)> {
        self.rows()
            .map(|row| {
                let (k, &v) = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("rows are non-empty");
                (k as isize - self.window as isize, v)
            })
            .collect()
    }
}

/// [`AlignmentMatrix::refine_lag`] on one time row of `2W + 1` lags.
pub(crate) fn refine_lag_in(row: &[f64], lag: isize) -> f64 {
    let w = (row.len() / 2) as isize;
    if lag <= -w || lag >= w {
        return lag as f64;
    }
    let at = |l: isize| row[(l + w) as usize];
    let g_m = at(lag - 1);
    let g_0 = at(lag);
    let g_p = at(lag + 1);
    let denom = g_m - 2.0 * g_0 + g_p;
    if denom >= -1e-12 {
        return lag as f64; // Not a local maximum.
    }
    let delta = 0.5 * (g_m - g_p) / denom;
    lag as f64 + delta.clamp(-0.5, 0.5)
}

/// One time column of the cross-TRRS matrix, written into `row` (one
/// entry per lag, so `row.len()` is `2W + 1`), in the scalar
/// array-of-structures layout, with `norm` as the per-entry kernel
/// ([`trrs_norm`] or [`trrs_norm_f32`]) — the bit-exact reference the
/// SoA/SIMD path is tested against, and the fallback for shapes the SoA
/// packing refuses (ragged series). Each kernel gets its own
/// instantiation, so the loop compiles as if the call were written in
/// place. The incremental column cache
/// ([`crate::incremental::ColumnCache`]) builds its entries with the same
/// masking, so matrices materialised from the cache are bit-identical to
/// this path. Masks against `b` — the series the lag actually indexes —
/// not `a` (for the historical equal-length callers the two are the
/// same).
pub(crate) fn cross_trrs_row<K>(
    a: &[NormSnapshot],
    b: &[NormSnapshot],
    t: usize,
    norm: K,
    row: &mut [f64],
) where
    K: Fn(&NormSnapshot, &NormSnapshot) -> f64,
{
    let src_len = b.len();
    let w = (row.len() / 2) as isize;
    for (k, slot) in row.iter_mut().enumerate() {
        let lag = k as isize - w;
        let src = t as isize - lag;
        *slot = if src < 0 || src as usize >= src_len {
            0.0
        } else {
            norm(&a[t], &b[src as usize])
        };
    }
}

/// Column ranges at least this wide take the SoA/SIMD path; narrower
/// ranges (the pre-detection single-column probes) go scalar, where the
/// packing transpose would cost more than it saves. The threshold never
/// affects results — both paths are bit-identical per precision.
const SOA_MIN_COLUMNS: usize = 4;

/// Computes the single-snapshot cross-TRRS matrix
/// `B[t][l] = κ̄(a[t], b[t−l])` for lags `|l| ≤ window`, over the time
/// columns `range = (t0, t1)` of `a` — the dominant `O(T·W·S·N)` cost of
/// the pipeline. Row 0 of the result corresponds to `t0`; lags still
/// reference the *full* series, so `b[t − l]` may reach outside the
/// column range. The series may have different lengths: entries whose
/// source `t − l` falls outside `b` are 0.
///
/// The columns are tiled across `pool`'s workers. Every column is
/// independent, so the result is bit-identical for any thread count and
/// SIMD dispatch tier: for [`Precision::F64Reference`] to the scalar
/// [`trrs_norm`] loop, for [`Precision::F32Fast`] to [`trrs_norm_f32`]
/// per entry.
///
/// # Panics
/// Panics if the column range exceeds `a`.
pub fn base_cross_trrs_range_prec(
    a: &[NormSnapshot],
    b: &[NormSnapshot],
    window: usize,
    range: (usize, usize),
    pool: &Pool,
    precision: Precision,
) -> AlignmentMatrix {
    let (t0, t1) = range;
    assert!(t0 <= t1 && t1 <= a.len(), "column range out of bounds");
    if t1 - t0 >= SOA_MIN_COLUMNS {
        let soa = match precision {
            Precision::F64Reference => base_cross_soa::<f64>(a, b, window, t0, t1, pool),
            Precision::F32Fast => base_cross_soa::<f32>(a, b, window, t0, t1, pool),
        };
        if let Some(m) = soa {
            return m;
        }
    }
    AlignmentMatrix::from_tiles(window, t1 - t0, pool, |rows, slab| {
        for (row, r) in slab.chunks_exact_mut(2 * window + 1).zip(rows) {
            match precision {
                Precision::F64Reference => cross_trrs_row(a, b, t0 + r, trrs_norm, row),
                Precision::F32Fast => cross_trrs_row(a, b, t0 + r, trrs_norm_f32, row),
            }
        }
    })
}

/// The SoA/SIMD path: packs the column range of `a` and the reachable lag
/// span of `b` into subcarrier-major planes once, then runs the row
/// kernel per column. `None` when the shapes refuse the packing (ragged
/// series) — the caller falls back to the scalar rows.
fn base_cross_soa<T: SoaScalar>(
    a: &[NormSnapshot],
    b: &[NormSnapshot],
    window: usize,
    t0: usize,
    t1: usize,
    pool: &Pool,
) -> Option<AlignmentMatrix> {
    let sa = SoaSeries::<T>::pack_range(a, t0, t1);
    let b0 = t0.saturating_sub(window);
    let b1 = (t1 + window).min(b.len()).max(b0);
    let sb = SoaSeries::<T>::pack_range(b, b0, b1);
    // Probe usability once before fanning out.
    PairKernel::new(&sa, &sb, window, b.len())?;
    Some(AlignmentMatrix::from_tiles(
        window,
        t1 - t0,
        pool,
        |rows, slab| {
            let mut kern =
                PairKernel::new(&sa, &sb, window, b.len()).expect("usability probed above");
            for (row, r) in slab.chunks_exact_mut(2 * window + 1).zip(rows) {
                kern.row_into(t0 + r, &a[t0 + r], row);
            }
        },
    ))
}

/// Applies the virtual-massive-antenna average (Eqn. 4): a centred box
/// filter of length `v` along the time axis, per lag. Edge positions —
/// including the edges of a range-computed base matrix — average over the
/// in-range part of the block.
///
/// Lag columns are tiled across `pool`'s workers, each running the
/// identical per-lag prefix-sum arithmetic, then transposed back to
/// row-major, so the result is bit-identical for any thread count.
pub fn virtual_average_with(base: &AlignmentMatrix, v: usize, pool: &Pool) -> AlignmentMatrix {
    if v <= 1 {
        return base.clone();
    }
    let t_len = base.n_times();
    let n_lags = base.n_lags();
    let half = (v / 2) as isize;
    // Prefix sums per lag for O(1) window averages; one column per lag,
    // transposed to row-major afterwards. Lags run four at a time through
    // f64 SIMD lanes — each lane performs the identical per-lag sequence
    // of sums and one division, so the lanes (and the scalar tail) are
    // bit-identical to the historical per-lag loop.
    let tiles = pool.run_tiles(n_lags, |_, lags| {
        let mut out: Vec<Vec<f64>> = Vec::with_capacity(lags.len());
        let mut k = lags.start;
        let mut prefix4 = vec![f64x4::ZERO; t_len + 1];
        while k + 4 <= lags.end {
            for t in 0..t_len {
                prefix4[t + 1] = prefix4[t] + f64x4::from_slice(&base.row(t)[k..]);
            }
            let mut cols = [(); 4].map(|_| vec![0.0f64; t_len]);
            for t in 0..t_len {
                let lo = (t as isize - half).max(0) as usize;
                let hi = ((t as isize + half) as usize).min(t_len - 1);
                let avg = (prefix4[hi + 1] - prefix4[lo]) / f64x4::splat((hi - lo + 1) as f64);
                for (col, x) in cols.iter_mut().zip(avg.to_array()) {
                    col[t] = x;
                }
            }
            out.extend(cols);
            k += 4;
        }
        let mut prefix = vec![0.0f64; t_len + 1];
        for k in k..lags.end {
            prefix[0] = 0.0;
            for t in 0..t_len {
                prefix[t + 1] = prefix[t] + base.row(t)[k];
            }
            let mut col = vec![0.0f64; t_len];
            for (t, slot) in col.iter_mut().enumerate() {
                let lo = (t as isize - half).max(0) as usize;
                let hi = ((t as isize + half) as usize).min(t_len - 1);
                *slot = (prefix[hi + 1] - prefix[lo]) / (hi - lo + 1) as f64;
            }
            out.push(col);
        }
        out
    });
    let mut values = vec![0.0; t_len * n_lags];
    for (k, col) in tiles.into_iter().flatten().enumerate() {
        for (t, x) in col.into_iter().enumerate() {
            values[t * n_lags + k] = x;
        }
    }
    AlignmentMatrix {
        window: base.window,
        values,
    }
}

/// Convenience: full alignment matrix `G` for a pair of antenna series
/// (base cross-TRRS followed by the massive average), computed serially
/// at [`Precision::F64Reference`].
pub fn alignment_matrix(
    a: &[NormSnapshot],
    b: &[NormSnapshot],
    config: AlignmentConfig,
) -> AlignmentMatrix {
    let pool = Pool::serial();
    let range = (0, a.len().min(b.len()));
    let base =
        base_cross_trrs_range_prec(a, b, config.window, range, &pool, Precision::F64Reference);
    virtual_average_with(&base, config.virtual_antennas, &pool)
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
                    let x = (mix(tag.wrapping_mul(0x9E3779B9).wrapping_add(k as u64)) >> 12) as f64
                        / (1u64 << 52) as f64;
                    Complex64::from_polar(1.0, x * std::f64::consts::TAU)
                })
                .collect()],
        }
    }

    /// A series where the "channel" repeats with a known shift: sample t of
    /// series B equals sample t+shift of series A.
    fn shifted_series(len: usize, shift: usize) -> (Vec<NormSnapshot>, Vec<NormSnapshot>) {
        let a: Vec<CsiSnapshot> = (0..len as u64).map(snapshot).collect();
        let b: Vec<CsiSnapshot> = (0..len as u64)
            .map(|t| snapshot(t.saturating_sub(shift as u64)))
            .collect();
        (NormSnapshot::series(&a), NormSnapshot::series(&b))
    }

    /// The whole-series base matrix, serial and at f64 — the reference
    /// the tests below compare against.
    fn base(a: &[NormSnapshot], b: &[NormSnapshot], window: usize) -> AlignmentMatrix {
        let range = (0, a.len().min(b.len()));
        base_cross_trrs_range_prec(
            a,
            b,
            window,
            range,
            &Pool::serial(),
            Precision::F64Reference,
        )
    }

    #[test]
    fn base_matrix_peaks_at_true_shift() {
        // b[t] = a[t - 3]: κ(a[t], b[t - l]) is maximal when t - l - 3 == t,
        // i.e. lag l = -3.
        let (a, b) = shifted_series(40, 3);
        let m = base(&a, &b, 8);
        for t in 12..30 {
            let (lag, v) = m.column_peaks()[t];
            assert_eq!(lag, -3, "peak at the planted shift (t={t})");
            assert!((v - 1.0).abs() < 1e-9);
        }
        // And the mirrored computation peaks at +3.
        let m2 = base(&b, &a, 8);
        let (lag, _) = m2.column_peaks()[20];
        assert_eq!(lag, 3);
    }

    #[test]
    fn out_of_range_lags_are_zero() {
        let (a, b) = shifted_series(10, 0);
        let m = base(&a, &b, 4);
        // At t = 0, any positive lag reaches before the series start.
        assert_eq!(m.at(0, 1), 0.0);
        assert_eq!(m.at(0, 4), 0.0);
        assert!(m.at(0, 0) > 0.99);
        // At the end, negative lags run off the series.
        assert_eq!(m.at(9, -1), 0.0);
    }

    #[test]
    fn lag_index_round_trip() {
        let m = AlignmentMatrix::from_rows(5, &vec![vec![0.0; 11]; 3]);
        for lag in -5..=5 {
            assert_eq!(m.lag_of(m.index_of(lag)), lag);
        }
        assert_eq!(m.n_lags(), 11);
    }

    #[test]
    fn virtual_average_equals_direct_massive_trrs() {
        // The box-filter optimisation must reproduce Eqn. 4 exactly in the
        // interior.
        let (a, b) = shifted_series(30, 2);
        let w = 5;
        let v = 5;
        let base = base(&a, &b, w);
        let g = virtual_average_with(&base, v, &Pool::serial());
        for t in 8..22 {
            for lag in -3..=3isize {
                let direct = crate::trrs::trrs_massive(&a, &b, t, (t as isize - lag) as usize, v);
                assert!(
                    (g.at(t, lag) - direct).abs() < 1e-9,
                    "t={t} lag={lag}: {} vs {direct}",
                    g.at(t, lag)
                );
            }
        }
    }

    #[test]
    fn virtual_average_v1_is_identity() {
        let (a, b) = shifted_series(12, 1);
        let base = base(&a, &b, 3);
        let g = virtual_average_with(&base, 1, &Pool::serial());
        assert_eq!(g, base);
    }

    #[test]
    fn average_of_identical_matrices_is_identity() {
        let (a, b) = shifted_series(15, 2);
        let m = alignment_matrix(
            &a,
            &b,
            AlignmentConfig {
                window: 4,
                virtual_antennas: 3,
            },
        );
        let avg = AlignmentMatrix::average_with(&[&m, &m, &m], &Pool::serial());
        for t in 0..m.n_times() {
            for k in 0..m.n_lags() {
                assert!((avg.row(t)[k] - m.row(t)[k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pooled_paths_are_bit_identical_to_serial() {
        let (a, b) = shifted_series(60, 2);
        let serial = base(&a, &b, 9);
        let g_serial = virtual_average_with(&serial, 7, &Pool::serial());
        let avg_serial = AlignmentMatrix::average_with(&[&serial, &g_serial], &Pool::serial());
        for threads in [2usize, 4, 8] {
            let pool = Pool::new(threads, 5);
            let base =
                base_cross_trrs_range_prec(&a, &b, 9, (0, a.len()), &pool, Precision::F64Reference);
            let g = virtual_average_with(&base, 7, &pool);
            let avg = AlignmentMatrix::average_with(&[&base, &g], &pool);
            for (x, y) in [(&base, &serial), (&g, &g_serial), (&avg, &avg_serial)] {
                for (rx, ry) in x.rows().zip(y.rows()) {
                    for (vx, vy) in rx.iter().zip(ry) {
                        assert_eq!(vx.to_bits(), vy.to_bits(), "threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn asymmetric_series_dims_and_masking() {
        // Regression for the per-call `min(a, b)` masking: asymmetric
        // series are legal; columns index `a`, masking indexes `b`.
        let (a, b) = shifted_series(12, 0);
        // Short `a`: 5 columns, but lags may reach the *longer* `b` —
        // at t = 4, lag −3 reads b[7], which exists.
        let m = base(&a[..5], &b, 3);
        assert_eq!(m.n_times(), 5);
        assert_eq!(m.n_lags(), 7);
        assert!(m.at(4, -3) > 0.0, "source b[7] is in range");
        assert_eq!(m.at(0, 1), 0.0, "source b[-1] stays masked");
        // Short `b`: the mirror case masks sources beyond b's end.
        let m = base(&a, &b[..5], 3);
        assert_eq!(m.n_times(), 5);
        assert_eq!(m.at(4, -3), 0.0, "source b[7] does not exist");
        assert!(m.at(4, 2) > 0.0, "source b[2] does");
        // The masked entries aside, values equal the symmetric case.
        let full = base(&a, &b, 3);
        for t in 0..5 {
            for lag in -3..=3isize {
                let v = m.at(t, lag);
                if v != 0.0 {
                    assert_eq!(v.to_bits(), full.at(t, lag).to_bits());
                }
            }
        }
    }

    #[test]
    fn soa_and_scalar_paths_are_bit_identical() {
        // The SIMD/SoA path must reproduce the scalar AoS rows bit for
        // bit — compare a range wide enough for the SoA path against
        // single-column ranges, which stay scalar by the size threshold.
        let (a, b) = shifted_series(40, 2);
        let w = 6;
        let pool = Pool::serial();
        let wide = base_cross_trrs_range_prec(&a, &b, w, (0, 40), &pool, Precision::F64Reference);
        for t in 0..40 {
            let narrow =
                base_cross_trrs_range_prec(&a, &b, w, (t, t + 1), &pool, Precision::F64Reference);
            for (x, y) in wide.row(t).iter().zip(narrow.row(0)) {
                assert_eq!(x.to_bits(), y.to_bits(), "t={t}");
            }
        }
    }

    #[test]
    fn f32_fast_path_matches_its_scalar_reference_and_tracks_f64() {
        let (a, b) = shifted_series(32, 3);
        let w = 5;
        let pool = Pool::serial();
        let fast = base_cross_trrs_range_prec(&a, &b, w, (0, 32), &pool, Precision::F32Fast);
        let reference =
            base_cross_trrs_range_prec(&a, &b, w, (0, 32), &pool, Precision::F64Reference);
        for t in 0..32 {
            let mut scalar = vec![f64::NAN; 2 * w + 1];
            cross_trrs_row(&a, &b, t, trrs_norm_f32, &mut scalar);
            for (k, (x, y)) in fast.row(t).iter().zip(&scalar).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "t={t} k={k}");
            }
            for (x, y) in fast.row(t).iter().zip(reference.row(t)) {
                assert!((x - y).abs() < 1e-4, "f32 drift at t={t}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn config_defaults_scale_with_rate() {
        let c200 = AlignmentConfig::for_sample_rate(200.0);
        assert_eq!(c200.window, 100);
        assert_eq!(c200.virtual_antennas, 30);
        let c50 = AlignmentConfig::for_sample_rate(50.0);
        assert!(c50.window < c200.window);
        assert!(c50.virtual_antennas < c200.virtual_antennas);
        assert!(c50.virtual_antennas >= 3);
    }
}
