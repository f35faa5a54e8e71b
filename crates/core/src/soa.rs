//! Structure-of-arrays CSI storage for the TRRS kernels.
//!
//! [`crate::trrs::NormSnapshot`] is an array-of-structures: one heap
//! vector of `Complex64` per TX chain per snapshot. The hot loops compare
//! one snapshot against a *run* of consecutive snapshots (the lag window
//! of a cross-TRRS row, the backfill span of the incremental cache), and
//! in AoS form each comparison walks freshly scattered allocations.
//!
//! Two containers transpose snapshots into subcarrier-major real planes:
//!
//! ```text
//! row (tx, k)   →   re[(tx·n_sub + k)·stride + lane]
//! ```
//!
//! so the `v` operands of one SIMD row kernel — the same `(tx, k)`
//! element of `v` *consecutive snapshots* — are `v` contiguous reals, one
//! aligned vector load. The time-fixed side of a comparison is gathered
//! once into a contiguous scratch (O(S·N), amortised over the O(W·S·N)
//! row) and broadcast per element.
//!
//! * [`SoaSeries`] packs a batch range once (`stride` = range length) for
//!   the alignment matrix builds.
//! * [`SoaWindow`] holds only the newest `C` samples of one live antenna
//!   for the incremental column cache, as a double-written ring of row
//!   stride `2C`: its footprint is fixed by `C` (O(W)) however long the
//!   stream's snapshot ring grows, and a sample never moves once stored.
//!
//! Series whose snapshots disagree on shape (TX count or subcarrier
//! count) latch `ragged` and the callers fall back to the scalar AoS
//! path; shape handling stays in one place instead of per element.

use crate::trrs::NormSnapshot;
use rim_simd::{Fixed, Lanes};

/// Element type of an SoA series: `f64` (reference) or `f32` (fast).
/// Bridges to the matching `rim_simd` row kernel, widening results to the
/// `f64` the alignment matrices store.
pub(crate) trait SoaScalar:
    Copy + Default + Send + Sync + std::fmt::Debug + 'static
{
    /// Converts from the `f64` the snapshots store.
    fn from_f64(v: f64) -> Self;
    /// Runs the row kernel: `out[i]` is the TRRS of `a` against lane
    /// position `b.off + i`, widened to `f64`.
    fn trrs_lanes(a: Fixed<'_, Self>, b: Lanes<'_, Self>, dims: (usize, usize), out: &mut [f64]);
}

impl SoaScalar for f64 {
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn trrs_lanes(a: Fixed<'_, f64>, b: Lanes<'_, f64>, dims: (usize, usize), out: &mut [f64]) {
        rim_simd::trrs_row_f64(a, b, dims, out);
    }
}

impl SoaScalar for f32 {
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn trrs_lanes(a: Fixed<'_, f32>, b: Lanes<'_, f32>, dims: (usize, usize), out: &mut [f64]) {
        // Chunk through a stack buffer (multiple of the f32 lane width)
        // so the hot path never allocates for the widening copy. 64 lanes
        // covers a full ±W window row for W ≤ 31 in one kernel call.
        let mut tmp = [0.0f32; 64];
        let mut done = 0usize;
        while done < out.len() {
            let n = (out.len() - done).min(tmp.len());
            let b_chunk = Lanes {
                re: b.re,
                im: b.im,
                stride: b.stride,
                off: b.off + done,
            };
            rim_simd::trrs_row_f32(a, b_chunk, dims, &mut tmp[..n]);
            for (o, &v) in out[done..done + n].iter_mut().zip(&tmp[..n]) {
                *o = v as f64;
            }
            done += n;
        }
    }
}

/// A snapshot range transposed to subcarrier-major real planes (see the
/// module docs), packed once by [`Self::pack_range`].
#[derive(Debug, Clone)]
pub(crate) struct SoaSeries<T> {
    /// `(n_tx, n_sub)` of every stored snapshot; `None` for an empty pack.
    shape: Option<(usize, usize)>,
    /// Some snapshot disagreed with `shape` (or the shape is degenerate):
    /// the data planes are unusable, callers take the scalar AoS path.
    ragged: bool,
    /// Absolute index of element 0 (the pack range start).
    offset: usize,
    /// Packed snapshots — also the lane stride of every row.
    len: usize,
    re: Vec<T>,
    im: Vec<T>,
}

impl<T: SoaScalar> SoaSeries<T> {
    /// Packs `series[r0..r1]` with exact capacity; element 0 is absolute
    /// index `r0`.
    ///
    /// The fill is a blocked transpose: a naive per-snapshot scatter
    /// touches a distinct cache line per subcarrier row (the write stride
    /// is the full row length), which at typical shapes costs more than
    /// the kernel work it feeds. Time-blocks small enough that the
    /// block's snapshots stay L1-resident let every row sweep them with
    /// sequential writes instead. Every stored value is `T::from_f64` of
    /// the snapshot field, exactly as [`SoaWindow::push`] stores it.
    pub(crate) fn pack_range(series: &[NormSnapshot], r0: usize, r1: usize) -> Self {
        let slice = &series[r0..r1];
        let mut s = Self {
            shape: None,
            ragged: false,
            offset: r0,
            len: slice.len(),
            re: Vec::new(),
            im: Vec::new(),
        };
        let Some(first) = slice.first() else {
            return s;
        };
        let (n_tx, n_sub) = shape_of(first);
        s.shape = Some((n_tx, n_sub));
        if n_tx == 0 || n_sub == 0 || slice.iter().any(|sn| !has_shape(sn, (n_tx, n_sub))) {
            s.ragged = true;
            return s;
        }
        let rows = n_tx * n_sub;
        s.re = vec![T::default(); rows * s.len];
        s.im = vec![T::default(); rows * s.len];
        const BLOCK: usize = 16;
        for t0 in (0..slice.len()).step_by(BLOCK) {
            let t1 = (t0 + BLOCK).min(slice.len());
            for (tx, k2) in (0..n_tx).flat_map(|tx| (0..n_sub).map(move |k| (tx, k))) {
                let base = (tx * n_sub + k2) * s.len;
                for (t, snap) in slice.iter().enumerate().take(t1).skip(t0) {
                    let z = snap.per_tx[tx][k2];
                    s.re[base + t] = T::from_f64(z.re);
                    s.im[base + t] = T::from_f64(z.im);
                }
            }
        }
        s
    }

    /// Number of packed snapshots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Absolute index of element 0.
    pub(crate) fn offset(&self) -> usize {
        self.offset
    }

    /// True when the planes are unusable (shape disagreement or a
    /// degenerate shape) and callers must fall back to the AoS path.
    pub(crate) fn is_ragged(&self) -> bool {
        self.ragged
    }

    /// `(n_tx, n_sub)`, unless the pack is empty.
    pub(crate) fn shape(&self) -> Option<(usize, usize)> {
        self.shape
    }

    /// Lane view with lane 0 at absolute index `lo_abs`.
    fn lanes_abs(&self, lo_abs: usize) -> Lanes<'_, T> {
        Lanes {
            re: &self.re,
            im: &self.im,
            stride: self.len,
            off: lo_abs - self.offset,
        }
    }
}

/// `(n_tx, n_sub)` of a snapshot, reading the subcarrier count off its
/// first TX chain.
fn shape_of(snap: &NormSnapshot) -> (usize, usize) {
    (snap.per_tx.len(), snap.per_tx.first().map_or(0, Vec::len))
}

/// Whether every TX chain of `snap` has the given shape.
fn has_shape(snap: &NormSnapshot, (n_tx, n_sub): (usize, usize)) -> bool {
    snap.per_tx.len() == n_tx && snap.per_tx.iter().all(|v| v.len() == n_sub)
}

/// The kernel dimensions of a pair of shapes: `(min(n_tx), n_sub)`, or
/// `None` when the subcarrier counts disagree or either side is empty —
/// the shapes the scalar AoS fallback handles.
fn pair_dims(
    (a_tx, a_sub): (usize, usize),
    (b_tx, b_sub): (usize, usize),
) -> Option<(usize, usize)> {
    let n_tx = a_tx.min(b_tx);
    (a_sub == b_sub && a_sub != 0 && n_tx != 0).then_some((n_tx, a_sub))
}

/// The newest `C` snapshots of one antenna's stream, in the same
/// subcarrier-major planes as [`SoaSeries`], for the incremental column
/// cache.
///
/// The window is a double-written ring: absolute sample `t` is stored at
/// position `t mod C` *and* `t mod C + C` of every row (row stride `2C`),
/// so any run of at most `C` consecutive samples in the window is one
/// contiguous [`Lanes`] view starting at `lo mod C`. Storage is sized
/// once, when the first snapshot fixes the shape, and never compacts,
/// regrows or moves: a sample costs two stores per row element.
///
/// Alongside the planes the window keeps the newest snapshot contiguous
/// (TX-major), the fixed operand of every kernel call that pivots on it.
#[derive(Debug, Clone)]
pub(crate) struct SoaWindow<T> {
    /// `(n_tx, n_sub)` of the epoch's first snapshot; `None` until it
    /// arrives.
    shape: Option<(usize, usize)>,
    /// Some snapshot of this epoch disagreed with `shape` (or the shape
    /// is degenerate): the planes are unusable until [`Self::reset`].
    ragged: bool,
    /// Lane capacity `C`: the window holds the newest `C` samples.
    cap: usize,
    re: Vec<T>,
    im: Vec<T>,
    newest_re: Vec<T>,
    newest_im: Vec<T>,
}

impl<T: SoaScalar> SoaWindow<T> {
    /// An empty window holding up to `cap` samples (`cap ≥ 1`).
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            shape: None,
            ragged: false,
            cap: cap.max(1),
            re: Vec::new(),
            im: Vec::new(),
            newest_re: Vec::new(),
            newest_im: Vec::new(),
        }
    }

    /// Stores `snap` as absolute sample `t`, evicting sample `t − C`.
    pub(crate) fn push(&mut self, t: usize, snap: &NormSnapshot) {
        let shape = *self.shape.get_or_insert_with(|| shape_of(snap));
        if self.ragged || shape.0 == 0 || shape.1 == 0 || !has_shape(snap, shape) {
            self.ragged = true;
            return;
        }
        let rows = shape.0 * shape.1;
        let stride = 2 * self.cap;
        if self.newest_re.len() != rows {
            self.re = vec![T::default(); rows * stride];
            self.im = vec![T::default(); rows * stride];
            self.newest_re = vec![T::default(); rows];
            self.newest_im = vec![T::default(); rows];
        }
        let slot = t % self.cap;
        for (row, z) in snap.per_tx.iter().flatten().enumerate() {
            let (re, im) = (T::from_f64(z.re), T::from_f64(z.im));
            let p = row * stride + slot;
            self.re[p] = re;
            self.re[p + self.cap] = re;
            self.im[p] = im;
            self.im[p + self.cap] = im;
            self.newest_re[row] = re;
            self.newest_im[row] = im;
        }
    }

    /// Forgets the shape and raggedness (a new stream epoch after a
    /// split); the storage is kept for the next epoch.
    pub(crate) fn reset(&mut self) {
        self.shape = None;
        self.ragged = false;
    }

    /// Lane capacity `C`.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Bytes of storage held: two planes of `2C + 1` slots per row (the
    /// double-written window plus the contiguous newest snapshot).
    #[cfg(test)]
    pub(crate) fn allocated_bytes(&self) -> usize {
        let slots = self.re.capacity()
            + self.im.capacity()
            + self.newest_re.capacity()
            + self.newest_im.capacity();
        slots * std::mem::size_of::<T>()
    }

    /// `(min(n_tx), n_sub)` for a kernel between two windows, or `None`
    /// when either is ragged or the shapes refuse the SoA path.
    pub(crate) fn pair_dims(&self, other: &Self) -> Option<(usize, usize)> {
        if self.ragged || other.ragged {
            return None;
        }
        pair_dims(self.shape?, other.shape?)
    }

    /// The newest snapshot as a kernel's fixed operand, truncated to
    /// `dims`.
    pub(crate) fn newest(&self, dims: (usize, usize)) -> Fixed<'_, T> {
        let n = dims.0 * dims.1;
        Fixed {
            re: &self.newest_re[..n],
            im: &self.newest_im[..n],
        }
    }

    /// Lane view with lane 0 at absolute sample `lo`; valid for up to `C`
    /// lanes, all of which must lie in the window.
    pub(crate) fn lanes(&self, lo: usize) -> Lanes<'_, T> {
        Lanes {
            re: &self.re,
            im: &self.im,
            stride: 2 * self.cap,
            off: lo % self.cap,
        }
    }
}

/// The cross-TRRS row kernel for one packed series pair, with everything
/// the historical per-entry loop recomputed hoisted to construction time:
/// the common TX count, the shared subcarrier count, and the `src_len`
/// masking bound, which used to be re-derived per call (and was silently
/// wrong for asymmetric series; a regression test pins it).
#[derive(Debug)]
pub(crate) struct PairKernel<'s, T: SoaScalar> {
    b: &'s SoaSeries<T>,
    window: usize,
    /// Absolute length of the source series `b` — lag entries whose
    /// source index falls at or beyond it are masked to 0.
    src_len: usize,
    /// `(min(a.n_tx, b.n_tx), n_sub)`.
    dims: (usize, usize),
    scratch_re: Vec<T>,
    scratch_im: Vec<T>,
    tmp: Vec<f64>,
}

impl<'s, T: SoaScalar> PairKernel<'s, T> {
    /// Builds the kernel, or `None` when the pair cannot take the SoA
    /// path (ragged series, empty series, or disagreeing subcarrier
    /// counts — the scalar AoS fallback handles those shapes).
    pub(crate) fn new(
        a: &SoaSeries<T>,
        b: &'s SoaSeries<T>,
        window: usize,
        src_len: usize,
    ) -> Option<Self> {
        if a.is_ragged() || b.is_ragged() {
            return None;
        }
        Some(Self {
            b,
            window,
            src_len,
            dims: pair_dims(a.shape()?, b.shape()?)?,
            scratch_re: Vec::new(),
            scratch_im: Vec::new(),
            tmp: vec![0.0; 2 * window + 1],
        })
    }

    /// The masked source range of column `t_abs`: absolute source indices
    /// within the lag window that exist both in the series bounds and in
    /// the packed span of `b`.
    fn src_range(&self, t_abs: usize) -> Option<(usize, usize)> {
        let lo = t_abs.saturating_sub(self.window).max(self.b.offset());
        let hi = (t_abs + self.window).min(
            self.src_len
                .min(self.b.offset() + self.b.len())
                .checked_sub(1)?,
        );
        (lo <= hi).then_some((lo, hi))
    }

    /// Copies the fixed-side snapshot into the contiguous scratch planes.
    /// Reading the AoS snapshot (one sequential sweep) instead of a
    /// time-column of the SoA planes (one strided read per subcarrier row)
    /// is the difference between an L1-friendly gather and a cache-miss
    /// per element; the values are bit-identical because the planes store
    /// exactly `T::from_f64` of the same snapshot.
    fn gather_snapshot(&mut self, snap: &NormSnapshot) {
        self.scratch_re.clear();
        self.scratch_im.clear();
        for cfr in snap.per_tx.iter().take(self.dims.0) {
            debug_assert_eq!(
                cfr.len(),
                self.dims.1,
                "snapshot disagrees with the packed shape"
            );
            for z in cfr {
                self.scratch_re.push(T::from_f64(z.re));
                self.scratch_im.push(T::from_f64(z.im));
            }
        }
    }

    /// One cross-TRRS row: `row[k]` is the TRRS of `a[t_abs]` against
    /// `b[t_abs − (k − W)]`, 0 where the source is masked. `snap` must be
    /// the series-`a` snapshot at `t_abs` (the caller always has it in AoS
    /// form, which gathers far faster than a strided SoA column). Returns
    /// the number of entries computed.
    pub(crate) fn row_into(&mut self, t_abs: usize, snap: &NormSnapshot, row: &mut [f64]) -> usize {
        debug_assert_eq!(row.len(), 2 * self.window + 1);
        row.fill(0.0);
        let Some((lo, hi)) = self.src_range(t_abs) else {
            return 0;
        };
        let n = hi - lo + 1;
        self.gather_snapshot(snap);
        let fixed = Fixed {
            re: &self.scratch_re,
            im: &self.scratch_im,
        };
        T::trrs_lanes(fixed, self.b.lanes_abs(lo), self.dims, &mut self.tmp[..n]);
        // Lane i holds source lo + i; its lag index is t + W − src.
        for (i, &v) in self.tmp[..n].iter().enumerate() {
            row[t_abs + self.window - (lo + i)] = v;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trrs::{trrs_norm, trrs_norm_f32};
    use rim_csi::frame::CsiSnapshot;
    use rim_dsp::complex::Complex64;

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn snapshot(tag: u64, n_tx: usize, n_sub: usize) -> NormSnapshot {
        NormSnapshot::from_snapshot(&CsiSnapshot {
            per_tx: (0..n_tx)
                .map(|tx| {
                    (0..n_sub)
                        .map(|k| {
                            let x = (mix(tag ^ ((tx as u64) << 32) ^ (k as u64 * 0x9E3779B9)) >> 11)
                                as f64
                                / (1u64 << 53) as f64;
                            Complex64::from_polar(0.5 + x, x * 6.0)
                        })
                        .collect()
                })
                .collect(),
        })
    }

    fn series(seed: u64, len: usize, n_tx: usize, n_sub: usize) -> Vec<NormSnapshot> {
        (0..len as u64)
            .map(|t| snapshot(seed.wrapping_mul(1000) + t, n_tx, n_sub))
            .collect()
    }

    #[test]
    fn f64_rows_match_trrs_norm_bitwise() {
        let a = series(1, 30, 2, 13);
        let b = series(2, 30, 2, 13);
        let w = 6;
        let sa = SoaSeries::<f64>::pack_range(&a, 0, a.len());
        let sb = SoaSeries::<f64>::pack_range(&b, 0, b.len());
        let mut kern = PairKernel::new(&sa, &sb, w, b.len()).unwrap();
        let mut row = vec![0.0; 2 * w + 1];
        for (t, snap) in a.iter().enumerate() {
            kern.row_into(t, snap, &mut row);
            for (k, &got) in row.iter().enumerate() {
                let src = t as isize - (k as isize - w as isize);
                let want = if src < 0 || src as usize >= b.len() {
                    0.0
                } else {
                    trrs_norm(&a[t], &b[src as usize])
                };
                assert_eq!(got.to_bits(), want.to_bits(), "t={t} k={k}");
            }
        }
    }

    #[test]
    fn f32_rows_match_aos_f32_fallback_bitwise() {
        let a = series(3, 24, 1, 56);
        let b = series(4, 24, 1, 56);
        let w = 5;
        let sa = SoaSeries::<f32>::pack_range(&a, 0, a.len());
        let sb = SoaSeries::<f32>::pack_range(&b, 0, b.len());
        let mut kern = PairKernel::new(&sa, &sb, w, b.len()).unwrap();
        let mut row = vec![0.0; 2 * w + 1];
        for (t, snap) in a.iter().enumerate() {
            kern.row_into(t, snap, &mut row);
            for (k, &got) in row.iter().enumerate() {
                let src = t as isize - (k as isize - w as isize);
                let want = if src < 0 || src as usize >= b.len() {
                    0.0
                } else {
                    trrs_norm_f32(&a[t], &b[src as usize])
                };
                assert_eq!(got.to_bits(), want.to_bits(), "t={t} k={k}");
                if want > 0.0 {
                    let reference = trrs_norm(&a[t], &b[src as usize]);
                    assert!((got - reference).abs() < 1e-4, "f32 drift at t={t} k={k}");
                }
            }
        }
    }

    /// Runs the row kernel of the newest window sample of `fixed` against
    /// `n` lanes of `lanes` from absolute sample `lo`.
    fn window_row<T: SoaScalar>(
        fixed: &SoaWindow<T>,
        lanes: &SoaWindow<T>,
        lo: usize,
        n: usize,
    ) -> Vec<f64> {
        let dims = fixed.pair_dims(lanes).expect("regular windows");
        let mut out = vec![0.0; n];
        T::trrs_lanes(fixed.newest(dims), lanes.lanes(lo), dims, &mut out);
        out
    }

    /// Every run of up to `C` window lanes reads back exactly the scalar
    /// reference, across ring wrap-around, in both precisions; storage is
    /// sized once at `2C + 1` slots per row and plane.
    #[test]
    fn window_lanes_match_the_scalar_reference_across_wraparound() {
        let (len, cap) = (37usize, 6usize);
        let a = series(5, len, 2, 17);
        let b = series(6, len, 2, 17);
        let mut wa = SoaWindow::<f64>::new(cap);
        let mut wb = SoaWindow::<f64>::new(cap);
        let mut wa32 = SoaWindow::<f32>::new(cap);
        let mut wb32 = SoaWindow::<f32>::new(cap);
        for t in 0..len {
            wa.push(t, &a[t]);
            wb.push(t, &b[t]);
            wa32.push(t, &a[t]);
            wb32.push(t, &b[t]);
            for lo in t.saturating_sub(cap - 1)..=t {
                let n = t - lo + 1;
                let row = window_row(&wa, &wb, lo, n);
                let row32 = window_row(&wa32, &wb32, lo, n);
                for i in 0..n {
                    let src = lo + i;
                    let want = trrs_norm(&a[t], &b[src]);
                    assert_eq!(row[i].to_bits(), want.to_bits(), "t={t} src={src}");
                    let want = trrs_norm_f32(&a[t], &b[src]);
                    assert_eq!(row32[i].to_bits(), want.to_bits(), "f32 t={t} src={src}");
                }
            }
        }
        assert_eq!(wa.capacity(), cap);
        assert_eq!(wa.allocated_bytes(), 2 * 17 * 2 * (2 * cap + 1) * 8);
        assert_eq!(wa32.allocated_bytes(), 2 * 17 * 2 * (2 * cap + 1) * 4);
    }

    #[test]
    fn swapped_roles_are_bitwise_symmetric() {
        // The cache's backfill fixes the newer `b` snapshot and runs the
        // lanes over `a`, so the kernel conjugates the other operand; the
        // magnitude bits cannot change. Pin it.
        let (len, cap) = (20usize, 5usize);
        let a = series(5, len, 2, 17);
        let b = series(6, len, 2, 17);
        let mut wa = SoaWindow::<f64>::new(cap);
        let mut wb = SoaWindow::<f64>::new(cap);
        for t in 0..len {
            wa.push(t, &a[t]);
            wb.push(t, &b[t]);
            let lo = t.saturating_sub(cap - 1);
            let out = window_row(&wb, &wa, lo, t - lo + 1);
            for (i, got) in out.iter().enumerate() {
                let want = trrs_norm(&a[lo + i], &b[t]);
                assert_eq!(got.to_bits(), want.to_bits(), "t={t} lane {i}");
            }
        }
    }

    #[test]
    fn window_latches_ragged_until_reset() {
        let s = series(7, 4, 2, 9);
        let mut w = SoaWindow::<f64>::new(3);
        let other = {
            let mut o = SoaWindow::<f64>::new(3);
            o.push(0, &s[0]);
            o
        };
        w.push(0, &s[0]);
        assert!(w.pair_dims(&other).is_some());
        w.push(1, &snapshot(99, 1, 9)); // TX count change → ragged
        w.push(2, &s[2]);
        assert!(w.pair_dims(&other).is_none());
        w.reset();
        w.push(3, &snapshot(100, 3, 9));
        // A new epoch takes a new shape; mismatched TX counts truncate.
        assert_eq!(w.pair_dims(&other), Some((2, 9)));
        let row = window_row(&w, &other, 0, 1);
        let want = trrs_norm(&snapshot(100, 3, 9), &s[0]);
        assert_eq!(row[0].to_bits(), want.to_bits());
    }

    #[test]
    fn ragged_series_refuse_the_kernel() {
        let mut s = series(8, 6, 2, 8);
        s.push(snapshot(9, 1, 8)); // TX count change → ragged
        let soa = SoaSeries::<f64>::pack_range(&s, 0, s.len());
        assert!(soa.is_ragged());
        let other = SoaSeries::<f64>::pack_range(&s, 0, 6);
        assert!(PairKernel::new(&soa, &other, 3, 6).is_none());
        // Disagreeing subcarrier counts refuse too.
        let narrow = series(10, 6, 2, 4);
        let sn = SoaSeries::<f64>::pack_range(&narrow, 0, narrow.len());
        assert!(PairKernel::new(&sn, &other, 3, 6).is_none());
        // Mismatched TX counts truncate (min) rather than refuse.
        let wide = series(11, 6, 3, 8);
        let sw = SoaSeries::<f64>::pack_range(&wide, 0, wide.len());
        let mut kern = PairKernel::new(&sw, &other, 3, 6).unwrap();
        let mut row = vec![0.0; 7];
        kern.row_into(2, &wide[2], &mut row);
        let want = trrs_norm(&wide[2], &s[2]);
        assert_eq!(row[3].to_bits(), want.to_bits());
    }
}
