//! The incremental alignment engine behind [`crate::RimStream`]'s flat
//! ingest→estimate latency.
//!
//! Two pieces:
//!
//! * [`ColumnCache`] — maintains the single-snapshot cross-TRRS columns
//!   (`B[t][l]`, Eqn. 5's raw material) online: every ingested sample
//!   appends one column per tracked antenna pair and backfills the
//!   `l < 0` entries of the previous `W` columns whose source sample has
//!   now arrived. Each entry has the bits of the batch path's entry
//!   (the same row kernel, or its scalar reference on ragged input), so
//!   a matrix materialised from the cache at segment flush is
//!   bit-identical to recomputing it — the flush just stops paying the
//!   `O(T·W·S·N)` spike. Both the new column and the backfill read only
//!   the newest `W + 1` samples, so the kernels' SoA operands live in a
//!   fixed per-antenna `SoaWindow` of that many lanes rather than a
//!   mirror of the whole ring: per-sample work and memory are O(W),
//!   however long the ring grows while a segment is open.
//! * [`ProvisionalTracker`] — while a movement segment is open, folds the
//!   cached columns into per-group virtual-massive averages via rolling
//!   box-filter sums, advances the DP peak-tracking forward pass one
//!   column at a time (the exact relaxation step of
//!   [`crate::tracking_dp::track_peaks`]), and derives provisional
//!   distance/heading estimates at a configurable cadence
//!   ([`crate::RimConfig::provisional_every`]). Provisional estimates are
//!   approximate by design (no smoothing, no gap bridging, no rotation
//!   handling); only the final flush is bit-identical to batch.

use crate::alignment::{refine_lag_in, AlignmentMatrix};
use crate::pipeline::{Confidence, Precision, RimConfig};
use crate::reckoning::{heading_from_frac_lag, speed_from_frac_lag};
use crate::soa::{SoaScalar, SoaWindow};
use crate::tracking_dp::{dp_advance_column, dp_jump_cost};
use crate::trrs::{trrs_norm, trrs_norm_f32, NormSnapshot};
use rim_array::ArrayGeometry;
use rim_par::Pool;
use std::collections::VecDeque;

/// Online store of single-snapshot cross-TRRS columns for the antenna
/// pairs the pipeline can ask for (every parallel-group pair plus the
/// adjacent ring pairs), indexed in lockstep with the stream's snapshot
/// ring.
///
/// `cols[p][t - base][k]` holds `κ̄(a[t], b[t - (k - W)])` computed from
/// the ring snapshots, or `0.0` while the source sample has not arrived
/// (it is backfilled when it does) or when the source predates the ring.
/// Materialisation re-masks entries against the flush-time series bounds,
/// which keeps the result bit-identical to
/// [`crate::alignment::base_cross_trrs_range_prec`] on the materialised
/// series.
#[derive(Debug, Clone)]
pub struct ColumnCache {
    window: usize,
    /// Absolute sample index of `cols[_][0]`; equals the stream's ring
    /// base at all times (the stream trims both together).
    base: usize,
    /// Ordered `(i, j)` antenna pairs, batch call order.
    pairs: Vec<(usize, usize)>,
    cols: Vec<VecDeque<Vec<f64>>>,
    /// Columns dropped by [`Self::trim_to`], reused by the next
    /// [`Self::on_sample`] (at most one per pair is kept).
    spare: Vec<Vec<f64>>,
    /// Kernel output lanes (`W + 1` long once the mirror is built).
    lanes: Vec<f64>,
    /// One [`SoaWindow`] of the newest `W + 1` samples per antenna, in the
    /// precision the kernels run at. Lazily built on the first
    /// `on_sample` (the ring's antenna count is unknown until then).
    mirror: Mirror,
}

/// The precision-specific window mirror. Precision selects the scalar
/// type once at construction; every column and backfill entry is then
/// produced by the matching row kernel (or its scalar reference on
/// ragged input), so cached values stay bit-identical to the batch path
/// of the same precision.
#[derive(Debug, Clone)]
enum Mirror {
    F64(Vec<SoaWindow<f64>>),
    F32(Vec<SoaWindow<f32>>),
}

/// Split-borrow bundle for the generic ingest body (the mirror and the
/// columns come from different `ColumnCache` fields).
struct SampleCtx<'a> {
    window: usize,
    base: usize,
    ring: &'a [VecDeque<NormSnapshot>],
    newest: usize,
    pairs: &'a [(usize, usize)],
    cols: &'a mut [VecDeque<Vec<f64>>],
    spare: &'a mut Vec<Vec<f64>>,
    lanes: &'a mut Vec<f64>,
}

/// Stores the newest ring sample in the window mirror and computes the
/// new column plus backfills for every pair, through the SoA kernel when
/// the windows are regular and through `scalar_norm` otherwise. Returns
/// the number of TRRS entries computed.
fn sample_into<T: SoaScalar>(
    ctx: SampleCtx<'_>,
    mirror: &mut Vec<SoaWindow<T>>,
    scalar_norm: fn(&NormSnapshot, &NormSnapshot) -> f64,
) -> u64 {
    let SampleCtx {
        window,
        base,
        ring,
        newest,
        pairs,
        cols,
        spare,
        lanes,
    } = ctx;
    if mirror.is_empty() {
        // Sized on first use: building a cache (one per served session)
        // allocates nothing up front.
        mirror.extend((0..ring.len()).map(|_| SoaWindow::new(window + 1)));
        lanes.resize(window + 1, 0.0);
    }
    for (m, r) in mirror.iter_mut().zip(ring) {
        m.push(newest, r.back().expect("ring holds the newest sample"));
    }
    let w = window as isize;
    // Sources of the new column and targets of the backfill both span
    // [lo, newest]: at most W + 1 samples, all inside the window.
    let d_max = window.min(newest - base);
    let lo = newest - d_max;
    let mut built = 0u64;
    for (p, &(i, j)) in pairs.iter().enumerate() {
        let a = &ring[i];
        let b = &ring[j];
        let mut col = spare.pop().unwrap_or_else(|| vec![0.0; 2 * window + 1]);
        col.fill(0.0);
        match mirror[i].pair_dims(&mirror[j]) {
            Some(dims) => {
                // The new column for t = newest: source lo + s sits at lag
                // index W + newest − (lo + s).
                let out = &mut lanes[..=d_max];
                T::trrs_lanes(mirror[i].newest(dims), mirror[j].lanes(lo), dims, out);
                for (s, &v) in out.iter().enumerate() {
                    col[window + d_max - s] = v;
                }
                built += out.len() as u64;
                // Backfill: column t = lo + s gains its src = newest entry
                // at lag −(newest − t), swapped-roles lanes over t. The
                // kernel conjugates the fixed side, which is bitwise
                // symmetric: the inner product's real part is unchanged
                // term by term and its imaginary part exactly negated, so
                // the magnitude sees the same bits.
                if d_max > 0 {
                    let out = &mut lanes[..d_max];
                    T::trrs_lanes(mirror[j].newest(dims), mirror[i].lanes(lo), dims, out);
                    for (s, &v) in out.iter().enumerate() {
                        let t = lo + s;
                        if let Some(prev) = cols[p].get_mut(t - base) {
                            prev[window + t - newest] = v;
                            built += 1;
                        }
                    }
                }
            }
            None => {
                // Ragged or shapeless series: the scalar reference path.
                for (k, slot) in col.iter_mut().enumerate() {
                    let lag = k as isize - w;
                    let src = newest as isize - lag;
                    if src < base as isize || src > newest as isize {
                        continue;
                    }
                    *slot = scalar_norm(&a[newest - base], &b[src as usize - base]);
                    built += 1;
                }
                for d in 1..=d_max {
                    let t = newest - d;
                    let k = (w - d as isize) as usize;
                    if let Some(prev) = cols[p].get_mut(t - base) {
                        prev[k] = scalar_norm(&a[t - base], &b[newest - base]);
                        built += 1;
                    }
                }
            }
        }
        cols[p].push_back(col);
    }
    built
}

impl ColumnCache {
    /// Builds an empty cache tracking every ordered pair the segment
    /// analysis can request for `geometry`: the parallel-group pairs in
    /// group order, then any adjacent ring pairs not already present.
    /// `precision` selects the scalar type every cached entry is computed
    /// at — [`Precision::F64Reference`] values are bit-identical to the
    /// batch f64 path, [`Precision::F32Fast`] to the batch f32 path.
    pub fn new(geometry: &ArrayGeometry, window: usize, precision: Precision) -> Self {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for group in geometry.parallel_groups() {
            for pg in group {
                let key = (pg.pair.i, pg.pair.j);
                if !pairs.contains(&key) {
                    pairs.push(key);
                }
            }
        }
        if let Some(ring) = geometry.adjacent_ring_pairs() {
            for rp in ring {
                let key = (rp.i, rp.j);
                if !pairs.contains(&key) {
                    pairs.push(key);
                }
            }
        }
        let cols = vec![VecDeque::new(); pairs.len()];
        let mirror = match precision {
            Precision::F64Reference => Mirror::F64(Vec::new()),
            Precision::F32Fast => Mirror::F32(Vec::new()),
        };
        Self {
            window,
            base: 0,
            pairs,
            cols,
            spare: Vec::new(),
            lanes: Vec::new(),
            mirror,
        }
    }

    /// Index of ordered pair `(i, j)` among the tracked pairs.
    pub fn pair_index(&self, i: usize, j: usize) -> Option<usize> {
        self.pairs.iter().position(|&p| p == (i, j))
    }

    /// Ingests the newest ring sample: appends one column per tracked
    /// pair (entries whose source sample is still in the future stay 0)
    /// and backfills the negative-lag entries of the previous `W` columns
    /// whose source is the new sample. Returns the number of TRRS entries
    /// computed — the per-sample work is bounded by
    /// `pairs × (2W + 1)` regardless of how long the motion has run, and
    /// once warm (columns recycled by [`Self::trim_to`]) the call does not
    /// allocate.
    pub fn on_sample(&mut self, ring: &[VecDeque<NormSnapshot>], ring_base: usize) -> u64 {
        debug_assert_eq!(self.base, ring_base, "cache and ring trimmed in lockstep");
        let n = ring.first().map_or(0, VecDeque::len);
        if n == 0 {
            return 0;
        }
        let ctx = SampleCtx {
            window: self.window,
            base: self.base,
            ring,
            newest: ring_base + n - 1,
            pairs: &self.pairs,
            cols: &mut self.cols,
            spare: &mut self.spare,
            lanes: &mut self.lanes,
        };
        match &mut self.mirror {
            Mirror::F64(m) => sample_into(ctx, m, trrs_norm),
            Mirror::F32(m) => sample_into(ctx, m, trrs_norm_f32),
        }
    }

    /// Bytes held by the window mirror: fixed once every antenna has seen
    /// its first sample, whatever the ring length.
    #[cfg(test)]
    pub(crate) fn mirror_bytes(&self) -> usize {
        match &self.mirror {
            Mirror::F64(m) => m.iter().map(SoaWindow::allocated_bytes).sum(),
            Mirror::F32(m) => m.iter().map(SoaWindow::allocated_bytes).sum(),
        }
    }

    /// Materialises the base cross-TRRS matrix for tracked pair `p` over
    /// ring-relative columns `t0..t1`, re-masked against a series of
    /// `series_len` samples. The copy is tiled across `pool`'s workers;
    /// values are bit-identical to
    /// [`crate::alignment::base_cross_trrs_range_prec`] on the
    /// materialised ring series for every thread count.
    ///
    /// # Panics
    /// Panics when the column range exceeds the cached columns.
    pub fn base_matrix_with(
        &self,
        p: usize,
        t0: usize,
        t1: usize,
        series_len: usize,
        pool: &Pool,
    ) -> AlignmentMatrix {
        let cols = &self.cols[p];
        assert!(t0 <= t1 && t1 <= cols.len(), "column range out of bounds");
        let w = self.window as isize;
        AlignmentMatrix::from_tiles(self.window, t1 - t0, pool, |rows, slab| {
            for (row, r) in slab.chunks_exact_mut(2 * self.window + 1).zip(rows) {
                let t = t0 + r;
                let stored = &cols[t];
                for (k, slot) in row.iter_mut().enumerate() {
                    let lag = k as isize - w;
                    let src = t as isize - lag;
                    if src < 0 || src as usize >= series_len {
                        continue;
                    }
                    *slot = stored[k];
                }
            }
        })
    }

    /// Masked maximum of one cached column — what the pre-detection
    /// strided probe folds out of a freshly computed single-column
    /// matrix, served from the cache instead.
    pub fn column_max(&self, p: usize, t: usize, series_len: usize) -> f64 {
        let stored = &self.cols[p][t];
        let w = self.window as isize;
        let mut best = 0.0f64;
        for (k, &v) in stored.iter().enumerate() {
            let lag = k as isize - w;
            let src = t as isize - lag;
            if src < 0 || src as usize >= series_len {
                continue;
            }
            best = best.max(v);
        }
        best
    }

    /// One stored column by absolute sample index, without flush-time
    /// masking (the provisional tracker's view).
    pub(crate) fn raw_column(&self, p: usize, t_abs: usize) -> Option<&[f64]> {
        let idx = t_abs.checked_sub(self.base)?;
        self.cols[p].get(idx).map(Vec::as_slice)
    }

    /// Drops columns below `new_base` (called after the stream trims its
    /// ring, with the ring's new base). The window mirror needs no trim:
    /// it only ever holds the newest `W + 1` samples.
    pub fn trim_to(&mut self, new_base: usize) {
        while self.base < new_base {
            for c in &mut self.cols {
                if let Some(col) = c.pop_front() {
                    if self.spare.len() < self.pairs.len() {
                        self.spare.push(col);
                    }
                }
            }
            self.base += 1;
        }
    }

    /// Discards every column and rebases (stream split: the ring
    /// restarted at `new_base`).
    pub fn clear(&mut self, new_base: usize) {
        for c in &mut self.cols {
            c.clear();
        }
        match &mut self.mirror {
            Mirror::F64(m) => m.iter_mut().for_each(SoaWindow::reset),
            Mirror::F32(m) => m.iter_mut().for_each(SoaWindow::reset),
        }
        self.base = new_base;
    }
}

/// A provisional mid-motion estimate derived by [`ProvisionalTracker`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProvisionalEstimate {
    /// Distance travelled so far in the open motion, metres. Monotone
    /// non-decreasing across the provisionals of one motion.
    pub(crate) distance_so_far: f64,
    /// Dominant device-frame heading so far, if any sample resolved one.
    pub(crate) heading: Option<f64>,
    /// Confidence over the samples tracked so far
    /// (`interpolated_fraction` is patched in by the stream).
    pub(crate) confidence: Confidence,
}

/// Incremental per-group DP state for one open movement segment.
#[derive(Debug)]
struct GroupTrack {
    /// Cache pair indices of the group's pairs.
    pairs: Vec<usize>,
    sep: f64,
    dir: f64,
    /// Recent group-mean raw columns `[raw_lo, raw_lo + raw.len())`,
    /// bounded by the box-filter half-width.
    raw: VecDeque<Vec<f64>>,
    raw_lo: usize,
    /// Rolling box-filter sum over the current raw window.
    sum: Vec<f64>,
    /// Finalised V-averaged columns from the chunk start, one `2W + 1`
    /// lag row each.
    avg: Vec<Vec<f64>>,
    /// Per-column noise floor (median), precomputed at finalisation.
    floors: Vec<f64>,
    /// DP forward-pass score of the latest column.
    score: Vec<f64>,
    /// DP parent pointers per advanced column.
    parents: Vec<Vec<u32>>,
    best_prev: Vec<f64>,
    best_parent: Vec<u32>,
}

impl GroupTrack {
    fn reset(&mut self, start: usize) {
        self.raw.clear();
        self.raw_lo = start;
        self.sum.fill(0.0);
        self.avg.clear();
        self.floors.clear();
        self.score.clear();
        self.parents.clear();
    }
}

/// Maintains provisional distance/heading for one open movement segment:
/// pulls finalised columns out of the [`ColumnCache`], box-filters them
/// with rolling sums, advances the DP forward pass incrementally and
/// emits a [`ProvisionalEstimate`] every
/// [`crate::RimConfig::provisional_every`] ingested samples.
#[derive(Debug)]
pub(crate) struct ProvisionalTracker {
    /// Absolute start of the current chunk (segment start, or the resume
    /// point after a partial flush).
    start: usize,
    /// Whether earlier chunks of this motion were already flushed.
    continued: bool,
    /// Distance already flushed by partial segment flushes, metres.
    flushed_m: f64,
    /// Largest distance reported so far (monotonicity clamp).
    emitted_max: f64,
    since_emit: usize,
    cadence: usize,
    fs: f64,
    window: usize,
    half: usize,
    cost: f64,
    min_prominence: f64,
    subsample: bool,
    compensate: bool,
    /// Next absolute index to pull as a raw column (complete once the
    /// sample `next_raw + W` has arrived).
    next_raw: usize,
    /// Next absolute index to finalise as a V-averaged column.
    next_avg: usize,
    groups: Vec<GroupTrack>,
}

impl ProvisionalTracker {
    /// Creates a tracker for a motion opened at absolute index `start`.
    pub(crate) fn new(
        geometry: &ArrayGeometry,
        config: &RimConfig,
        cache: &ColumnCache,
        start: usize,
    ) -> Self {
        let n_lags = 2 * config.alignment.window + 1;
        let groups: Vec<GroupTrack> = geometry
            .parallel_groups()
            .iter()
            .filter_map(|g| {
                let pairs: Vec<usize> = g
                    .iter()
                    .filter_map(|pg| cache.pair_index(pg.pair.i, pg.pair.j))
                    .collect();
                if pairs.is_empty() {
                    return None;
                }
                Some(GroupTrack {
                    pairs,
                    sep: g[0].separation,
                    dir: g[0].direction,
                    raw: VecDeque::new(),
                    raw_lo: start,
                    sum: vec![0.0; n_lags],
                    avg: Vec::new(),
                    floors: Vec::new(),
                    score: Vec::new(),
                    parents: Vec::new(),
                    best_prev: vec![0.0; n_lags],
                    best_parent: vec![0; n_lags],
                })
            })
            .collect();
        Self {
            start,
            continued: false,
            flushed_m: 0.0,
            emitted_max: 0.0,
            since_emit: 0,
            cadence: config.provisional_every,
            fs: config.sample_rate_hz,
            window: config.alignment.window,
            half: config.alignment.virtual_antennas / 2,
            cost: dp_jump_cost(config.dp.omega, config.alignment.window),
            min_prominence: config.min_peak_prominence,
            subsample: config.subsample_refinement,
            compensate: config.compensate_initial_motion,
            next_raw: start,
            next_avg: start,
            groups,
        }
    }

    /// A partial flush consumed the chunk up to `new_start`: bank its
    /// distance and restart the incremental state there.
    pub(crate) fn on_partial_flush(&mut self, flushed_distance: f64, new_start: usize) {
        self.flushed_m += flushed_distance;
        self.continued = true;
        self.start = new_start;
        self.next_raw = new_start;
        self.next_avg = new_start;
        for g in &mut self.groups {
            g.reset(new_start);
        }
    }

    /// Advances the incremental state for the newly ingested sample
    /// `newest` and, on cadence, returns a provisional estimate.
    pub(crate) fn on_sample(
        &mut self,
        cache: &ColumnCache,
        newest: usize,
    ) -> Option<ProvisionalEstimate> {
        self.advance(cache, newest);
        self.since_emit += 1;
        if self.cadence == 0 || self.since_emit < self.cadence {
            return None;
        }
        let have_columns = self.groups.first().is_some_and(|g| !g.avg.is_empty());
        if !have_columns && !self.continued {
            // Nothing tracked yet; hold the cadence until columns exist.
            return None;
        }
        self.since_emit = 0;
        Some(self.estimate())
    }

    /// Pulls complete raw columns and finalises V-averaged columns + DP.
    fn advance(&mut self, cache: &ColumnCache, newest: usize) {
        while self.next_raw + self.window <= newest {
            let t = self.next_raw;
            for g in &mut self.groups {
                let n_lags = 2 * self.window + 1;
                let mut col = vec![0.0f64; n_lags];
                for &p in &g.pairs {
                    if let Some(raw) = cache.raw_column(p, t) {
                        for (acc, &v) in col.iter_mut().zip(raw) {
                            *acc += v;
                        }
                    }
                }
                let inv = 1.0 / g.pairs.len() as f64;
                for v in &mut col {
                    *v *= inv;
                }
                g.raw.push_back(col);
            }
            self.next_raw += 1;
            while self.next_avg + self.half < self.next_raw {
                let ta = self.next_avg;
                let (start, half, cost) = (self.start, self.half, self.cost);
                for g in &mut self.groups {
                    let lo = ta.saturating_sub(half).max(start);
                    let hi = ta + half;
                    if ta == start {
                        g.sum.fill(0.0);
                        for u in lo..=hi {
                            for (acc, v) in g.sum.iter_mut().zip(&g.raw[u - g.raw_lo]) {
                                *acc += v;
                            }
                        }
                    } else {
                        for (acc, v) in g.sum.iter_mut().zip(&g.raw[hi - g.raw_lo]) {
                            *acc += v;
                        }
                        let prev_lo = (ta - 1).saturating_sub(half).max(start);
                        if lo > prev_lo {
                            for (acc, v) in g.sum.iter_mut().zip(&g.raw[prev_lo - g.raw_lo]) {
                                *acc -= v;
                            }
                        }
                    }
                    let denom = (hi - lo + 1) as f64;
                    let col: Vec<f64> = g.sum.iter().map(|v| v / denom).collect();
                    g.floors.push(rim_dsp::stats::median(&col));
                    if g.score.is_empty() {
                        g.score = col.clone();
                    } else {
                        g.parents.push(dp_advance_column(
                            &mut g.score,
                            &col,
                            cost,
                            &mut g.best_prev,
                            &mut g.best_parent,
                        ));
                    }
                    g.avg.push(col);
                    while g.raw_lo < lo {
                        g.raw.pop_front();
                        g.raw_lo += 1;
                    }
                }
                self.next_avg += 1;
            }
        }
    }

    /// Backtracks every group's DP path so far, gates and refines like the
    /// batch post-detection, and reports the best group's integral.
    fn estimate(&mut self) -> ProvisionalEstimate {
        struct GroupEstimate {
            distance: f64,
            quality_sum: f64,
            resolved: usize,
            heading: Option<f64>,
        }
        let w = self.window as isize;
        let mut best: Option<GroupEstimate> = None;
        let mut cols_seen = 0usize;
        for g in &self.groups {
            let cols = g.avg.len();
            cols_seen = cols_seen.max(cols);
            if cols == 0 {
                continue;
            }
            // Terminal lag: argmax of the forward-pass score (last max on
            // ties, matching the batch terminal selection).
            let (mut k, _) = g
                .score
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("score is non-empty");
            let mut ks = Vec::with_capacity(cols);
            ks.push(k);
            for parent_row in g.parents.iter().rev() {
                k = parent_row[k] as usize;
                ks.push(k);
            }
            ks.reverse();
            let mut est = GroupEstimate {
                distance: 0.0,
                quality_sum: 0.0,
                resolved: 0,
                heading: None,
            };
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for (i, &ki) in ks.iter().enumerate() {
                let lag = ki as isize - w;
                let quality = g.avg[i][ki] - g.floors[i];
                if quality < self.min_prominence {
                    continue;
                }
                // Boundary-pinned alignments match the chunk edge over and
                // over — not a real alignment (mirrors the batch gate).
                let src = i as isize - lag;
                if src < 3 || src > cols as isize - 3 {
                    continue;
                }
                let refined = if self.subsample {
                    refine_lag_in(&g.avg[i], lag)
                } else {
                    lag as f64
                };
                if let Some(v) = speed_from_frac_lag(g.sep, refined, self.fs) {
                    est.distance += v / self.fs;
                    est.quality_sum += quality;
                    est.resolved += 1;
                }
                if let Some(h) = heading_from_frac_lag(g.dir, refined) {
                    sx += h.cos();
                    sy += h.sin();
                }
            }
            if sx != 0.0 || sy != 0.0 {
                est.heading = Some(sy.atan2(sx));
            }
            let replace = match &best {
                Some(b) => est.quality_sum > b.quality_sum,
                None => true,
            };
            if replace {
                best = Some(est);
            }
        }

        let mut distance = self.flushed_m;
        let mut heading = None;
        let mut confidence = Confidence::default();
        if let Some(b) = best {
            let mut chunk = b.distance;
            if b.resolved > 0 && self.compensate && !self.continued {
                // Minimum initial motion Δd (§5): the follower must cover
                // one separation before the first alignment exists.
                chunk += self.groups.first().map_or(0.0, |g| g.sep);
            }
            distance += chunk;
            heading = b.heading;
            confidence = Confidence {
                peak_margin: if b.resolved > 0 {
                    b.quality_sum / b.resolved as f64
                } else {
                    0.0
                },
                interpolated_fraction: 0.0,
                alignment_coverage: if cols_seen > 0 {
                    b.resolved as f64 / cols_seen as f64
                } else {
                    0.0
                },
            };
        }
        let distance_so_far = self.emitted_max.max(distance);
        self.emitted_max = distance_so_far;
        ProvisionalEstimate {
            distance_so_far,
            heading,
            confidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::base_cross_trrs_range_prec;
    use rim_array::HALF_WAVELENGTH;
    use rim_csi::frame::CsiSnapshot;
    use rim_dsp::complex::Complex64;

    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// The batch base matrix over columns `t0..t1`, at f64.
    fn batch_base(
        a: &[NormSnapshot],
        b: &[NormSnapshot],
        window: usize,
        range: (usize, usize),
        pool: &Pool,
    ) -> AlignmentMatrix {
        base_cross_trrs_range_prec(a, b, window, range, pool, Precision::F64Reference)
    }

    fn snapshot(tag: u64) -> NormSnapshot {
        NormSnapshot::from_snapshot(&CsiSnapshot {
            per_tx: vec![(0..16)
                .map(|k| {
                    let x = (mix(tag.wrapping_mul(0x9E3779B9).wrapping_add(k as u64)) >> 12) as f64
                        / (1u64 << 52) as f64;
                    Complex64::from_polar(1.0, x * std::f64::consts::TAU)
                })
                .collect()],
        })
    }

    /// Feeds `len` samples of a 2-antenna series through the cache one at
    /// a time and checks the materialised matrix against the batch path,
    /// bit for bit, including after ring trims.
    #[test]
    fn cache_matches_batch_base_matrix_bitwise() {
        let geometry = ArrayGeometry::linear(2, HALF_WAVELENGTH);
        let window = 5;
        let len = 40usize;
        let a: Vec<NormSnapshot> = (0..len as u64).map(|t| snapshot(t * 2 + 1)).collect();
        let b: Vec<NormSnapshot> = (0..len as u64).map(|t| snapshot(t * 3 + 7)).collect();

        let mut cache = ColumnCache::new(&geometry, window, Precision::F64Reference);
        let mut ring: Vec<VecDeque<NormSnapshot>> = vec![VecDeque::new(), VecDeque::new()];
        for t in 0..len {
            ring[0].push_back(a[t].clone());
            ring[1].push_back(b[t].clone());
            let built = cache.on_sample(&ring, 0);
            assert!(built > 0);
        }

        let p = cache.pair_index(0, 1).expect("pair tracked");
        let pool = Pool::serial();
        let batch = batch_base(&a, &b, window, (3, len - 2), &pool);
        let cached = cache.base_matrix_with(p, 3, len - 2, len, &pool);
        assert_eq!(batch.window, cached.window);
        for (rb, rc) in batch.rows().zip(cached.rows()) {
            for (vb, vc) in rb.iter().zip(rc) {
                assert_eq!(vb.to_bits(), vc.to_bits());
            }
        }
        // The strided pre-detection probe fold, too.
        for t in 0..len {
            let m = batch_base(&a, &b, window, (t, t + 1), &pool);
            let direct = m.row(0).iter().cloned().fold(0.0f64, f64::max);
            assert_eq!(direct.to_bits(), cache.column_max(p, t, len).to_bits());
        }
        // Threaded materialisation is bit-identical as well.
        let pool4 = Pool::new(4, 3);
        let batch4 = batch_base(&a, &b, window, (0, len), &pool4);
        let cached4 = cache.base_matrix_with(p, 0, len, len, &pool4);
        assert_eq!(batch4, cached4);
    }

    /// After trimming, materialisation against the shorter series must
    /// re-mask entries whose source fell off the front — exactly like the
    /// batch path run on the trimmed series.
    #[test]
    fn cache_trim_matches_batch_on_trimmed_series() {
        let geometry = ArrayGeometry::linear(2, HALF_WAVELENGTH);
        let window = 4;
        let len = 30usize;
        let a: Vec<NormSnapshot> = (0..len as u64).map(|t| snapshot(t * 5 + 11)).collect();
        let b: Vec<NormSnapshot> = (0..len as u64).map(|t| snapshot(t * 7 + 3)).collect();

        let mut cache = ColumnCache::new(&geometry, window, Precision::F64Reference);
        let mut ring: Vec<VecDeque<NormSnapshot>> = vec![VecDeque::new(), VecDeque::new()];
        let mut ring_base = 0usize;
        for t in 0..len {
            ring[0].push_back(a[t].clone());
            ring[1].push_back(b[t].clone());
            cache.on_sample(&ring, ring_base);
            // Trim aggressively once enough history exists.
            if t >= 20 && ring_base < 8 {
                for r in &mut ring {
                    r.pop_front();
                }
                ring_base += 1;
                cache.trim_to(ring_base);
            }
        }
        let p = cache.pair_index(0, 1).unwrap();
        let trimmed_len = len - ring_base;
        let ta: Vec<NormSnapshot> = a[ring_base..].to_vec();
        let tb: Vec<NormSnapshot> = b[ring_base..].to_vec();
        let batch = batch_base(&ta, &tb, window, (0, trimmed_len), &Pool::serial());
        let cached = cache.base_matrix_with(p, 0, trimmed_len, trimmed_len, &Pool::serial());
        assert_eq!(batch, cached);
    }

    #[test]
    fn provisional_distances_are_monotone() {
        // A planted retrace: antenna 0 revisits antenna 1's samples with a
        // fixed 3-sample delay, so DP locks a clean ridge.
        let geometry = ArrayGeometry::linear(2, HALF_WAVELENGTH);
        let fs = 100.0;
        let mut config = RimConfig::for_sample_rate(fs);
        config.alignment.window = 6;
        config.alignment.virtual_antennas = 5;
        config.provisional_every = 5;
        let len = 120usize;
        let shift = 3u64;
        let b: Vec<NormSnapshot> = (0..len as u64).map(|t| snapshot(t + 100)).collect();
        let a: Vec<NormSnapshot> = (0..len as u64)
            .map(|t| snapshot(t.saturating_sub(shift) + 100))
            .collect();
        let mut cache =
            ColumnCache::new(&geometry, config.alignment.window, Precision::F64Reference);
        let mut tracker = ProvisionalTracker::new(&geometry, &config, &cache, 0);
        let mut ring: Vec<VecDeque<NormSnapshot>> = vec![VecDeque::new(), VecDeque::new()];
        let mut last = f64::NEG_INFINITY;
        let mut emitted = 0usize;
        for t in 0..len {
            ring[0].push_back(a[t].clone());
            ring[1].push_back(b[t].clone());
            cache.on_sample(&ring, 0);
            if let Some(p) = tracker.on_sample(&cache, t) {
                assert!(
                    p.distance_so_far >= last,
                    "provisional went backwards: {} after {last}",
                    p.distance_so_far
                );
                assert!(p.distance_so_far.is_finite());
                last = p.distance_so_far;
                emitted += 1;
            }
        }
        assert!(emitted >= 3, "expected several provisionals, got {emitted}");
        assert!(last > 0.0, "planted retrace should accumulate distance");
    }
}
