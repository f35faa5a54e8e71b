//! The end-to-end RIM pipeline (paper §4): movement detection → candidate
//! pair pre-detection → alignment matrices for the survivors → DP peak
//! tracking → post-detection of the aligned pairs → speed / heading /
//! rotation reckoning, integrated into a motion estimate.

use crate::alignment::{
    base_cross_trrs_range_prec, lag_window, virtual_average_with, AlignmentConfig, AlignmentMatrix,
};
use crate::error::Error;
use crate::incremental::ColumnCache;
use crate::movement::{movement_indicator, moving_segments, MovementConfig};
use crate::reckoning::{
    angular_rate_from_frac_lag, fraction_finite, heading_from_frac_lag, integrate_trajectory,
    speed_from_frac_lag,
};
use crate::tracking_dp::{track_peaks, DpConfig, TrackedPath};
use crate::trrs::NormSnapshot;
use rim_array::ArrayGeometry;
use rim_csi::recorder::DenseCsi;
use rim_dsp::filter::{median_filter, savitzky_golay};
use rim_dsp::geom::Point2;
use rim_dsp::stats::{circular_mean, wrap_angle};
use rim_obs::{incremental_metric, stage, NullProbe, Probe};
use rim_par::Pool;
use std::sync::Arc;

/// Column stride of the cheap pre-detection pass (§4.3).
const PRE_STRIDE: usize = 4;
/// Pre-detection keeps a group whose block prominence reaches this
/// fraction of the best group's (or the midpoint to the block's floor,
/// whichever is lower).
const PRE_KEEP_RATIO: f64 = 0.85;
/// Fraction of ring-pair groups that must be simultaneously prominent to
/// declare a rotation (§4.4 (3)).
const ROTATION_FRACTION: f64 = 0.99;
/// Minimum TRRS prominence of the ridge above the column's noise floor
/// for a sample to contribute estimates (post-detection gate, §4.3).
/// Relative, because the absolute cross-antenna TRRS floor varies with
/// multipath richness.
pub(crate) const MIN_PEAK_PROMINENCE: f64 = 0.07;
/// Hysteresis margin for switching the active group between samples.
const SWITCH_MARGIN: f64 = 0.05;
/// Half-width (seconds) of the speed and prominence smoothing windows.
const SMOOTH_HALF_S: f64 = 0.15;
/// Penalty weight on path jumpiness in post-detection scores.
const JUMPINESS_PENALTY: f64 = 0.02;

/// Numeric precision of the TRRS/alignment kernels (see `DESIGN.md`,
/// "Precision modes").
///
/// Precision governs only the *values* of the cross-TRRS matrices: which
/// samples count as moving, how segments are bounded, and which events a
/// stream emits in which order are computed identically in both modes
/// (movement detection always runs the f64 self-TRRS — it is
/// threshold-sensitive and cheap, `O(T·S·N)` against the alignment
/// stage's `O(T·W·S·N)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full `f64` kernels — bit-identical to the historical scalar
    /// pipeline at any thread count and on every SIMD dispatch tier. The
    /// default.
    #[default]
    F64Reference,
    /// Reduced-precision `f32` kernels: CSI is narrowed subcarrier-wise
    /// to `f32`, the TRRS dot products accumulate in `f32` at twice the
    /// SIMD lane width, and the magnitude skips the `hypot` overflow
    /// guard. Error budget (derived in `DESIGN.md`): segment distance
    /// within 1 mm and heading within 0.1° of the reference on clean
    /// trajectories.
    F32Fast,
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct RimConfig {
    /// Alignment-matrix parameters (lag window `W`, virtual antennas `V`).
    pub alignment: AlignmentConfig,
    /// Movement-detection parameters.
    pub movement: MovementConfig,
    /// DP peak-tracking parameters.
    pub dp: DpConfig,
    /// Minimum duration (seconds) of a moving segment (debounce).
    pub min_segment_s: f64,
    /// Parabolic sub-sample refinement of ridge lags. An implementation
    /// improvement over the paper (which uses integer delays); turning it
    /// off reproduces the paper's quantisation behaviour, e.g. the
    /// sampling-rate knee of Fig. 16.
    pub subsample_refinement: bool,
    /// Continuous heading refinement (the paper's §7 "angle resolution"
    /// future work): instead of snapping to the chosen group's discrete
    /// direction, take the prominence-weighted circular mean over every
    /// group showing genuine alignment — deviated motion between two
    /// resolvable directions then interpolates between them.
    pub continuous_heading: bool,
    /// Maintain the incremental alignment engine while streaming
    /// ([`crate::RimStream`]): every ingested sample appends its
    /// cross-TRRS columns to an online cache, so a segment flush reuses
    /// them instead of recomputing the whole matrix at close. Final
    /// estimates are bit-identical either way — this only moves the work
    /// off the flush spike and onto a flat per-sample cost.
    pub incremental: bool,
    /// Cadence, in ingested samples, of
    /// [`crate::StreamEvent::Provisional`] estimates while a movement
    /// segment is still open. `0` disables provisional events; a nonzero
    /// cadence requires [`RimConfig::incremental`].
    pub provisional_every: usize,
    /// The sample rate the configuration was derived for, Hz. Used by the
    /// streaming front-end (which also sizes its gap tolerance and
    /// watchdog window from it) and by [`RimConfig::validate`]; offline
    /// analysis reads the actual rate from the recording.
    pub sample_rate_hz: f64,
    /// Worker threads for the rim-par pool. `0` (the default) resolves
    /// from the `RIM_THREADS` environment variable, falling back to the
    /// machine's available parallelism; `1` forces the serial path.
    pub threads: usize,
    /// Tile size (time columns per work unit) for the pool. `0` (the
    /// default) lets the pool pick ~8 tiles per worker. Tiling never
    /// changes results — parallel output is bit-identical to serial.
    pub tile_columns: usize,
    /// Numeric precision of the TRRS/alignment kernels. The default
    /// [`Precision::F64Reference`] reproduces the historical output bit
    /// for bit; [`Precision::F32Fast`] trades a documented error budget
    /// for per-sample throughput. Precision never changes movement
    /// detection, segmentation, or event ordering.
    pub precision: Precision,
}

impl RimConfig {
    /// Paper-style defaults for a sample rate. The lag window covers
    /// speeds down to 0.3 m/s on half-wavelength spacing
    /// ([`AlignmentConfig::for_sample_rate`]); [`RimConfig::with_min_speed`]
    /// resizes it.
    pub fn for_sample_rate(sample_rate_hz: f64) -> Self {
        Self {
            alignment: AlignmentConfig::for_sample_rate(sample_rate_hz),
            movement: MovementConfig::for_sample_rate(sample_rate_hz),
            dp: DpConfig::default(),
            min_segment_s: 0.25,
            subsample_refinement: true,
            continuous_heading: false,
            incremental: true,
            provisional_every: ((0.25 * sample_rate_hz).round() as usize).max(1),
            sample_rate_hz,
            threads: 0,
            tile_columns: 0,
            precision: Precision::default(),
        }
    }

    /// Restricts the lag window to cover speeds down to `min_speed` m/s
    /// for an antenna separation `sep` — "a larger window … is not
    /// needed" (§3.2).
    pub fn with_min_speed(mut self, min_speed: f64, sep: f64, sample_rate_hz: f64) -> Self {
        self.alignment.window = lag_window(min_speed, sep, sample_rate_hz);
        self
    }

    /// Sets the worker-thread count (`0` = auto, see
    /// [`RimConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the kernel precision (see [`Precision`]; the default is
    /// the bit-exact [`Precision::F64Reference`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Checks every parameter against its valid range, with messages
    /// that name the parameter, the offending value, and the fix. Called
    /// by [`Rim::new`] and [`crate::RimStream::new`], so a hand-edited
    /// configuration fails fast instead of panicking mid-pipeline.
    pub fn validate(&self) -> Result<(), Error> {
        let bad = |msg: String| Err(Error::Config(msg));
        if !(self.sample_rate_hz.is_finite() && self.sample_rate_hz > 0.0) {
            return bad(format!(
                "sample_rate_hz = {}; the sample rate must be a positive, finite \
                 frequency (build the config with RimConfig::for_sample_rate)",
                self.sample_rate_hz
            ));
        }
        if self.alignment.window == 0 {
            return bad(
                "alignment.window = 0; the lag half-window W must be at least 1 sample \
                 (size it to antenna separation / slowest speed × sample rate)"
                    .into(),
            );
        }
        if self.alignment.window > 100_000 {
            return bad(format!(
                "alignment.window = {}; windows beyond 100000 lags make the O(T·W) \
                 matrices intractable — lower the window or the sample rate",
                self.alignment.window
            ));
        }
        if self.alignment.virtual_antennas == 0 {
            return bad("alignment.virtual_antennas = 0; Eqn. 4 needs V >= 1 \
                 (V = 1 disables virtual-massive averaging)"
                .into());
        }
        if self.movement.lag == 0 {
            return bad(
                "movement.lag = 0; movement detection compares against history, \
                 so the lag must be at least 1 sample"
                    .into(),
            );
        }
        if !(self.movement.threshold > 0.0 && self.movement.threshold <= 1.0) {
            return bad(format!(
                "movement.threshold = {}; the self-TRRS threshold must lie in (0, 1] \
                 (TRRS is normalised to that range)",
                self.movement.threshold
            ));
        }
        if self.provisional_every > 0 && !self.incremental {
            return bad(format!(
                "provisional_every = {} with incremental = false; provisional \
                 estimates are produced by the incremental engine — enable \
                 incremental or set provisional_every = 0",
                self.provisional_every
            ));
        }
        if self.threads > rim_par::MAX_THREADS {
            return bad(format!(
                "threads = {} exceeds the cap of {}; use 0 to size the pool from \
                 the machine's available parallelism",
                self.threads,
                rim_par::MAX_THREADS
            ));
        }
        Ok(())
    }
}

/// Kind of motion within a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Translation (possibly with direction changes inside the segment).
    Translation,
    /// In-place rotation.
    Rotation,
}

/// How much an estimate should be trusted — the degraded-mode contract
/// that lets downstream fusion down-weight bad stretches instead of
/// diverging on them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Confidence {
    /// Mean TRRS prominence of the tracked ridge above each column's
    /// noise floor, over the samples that resolved an estimate. Higher
    /// is sharper alignment; values near zero mean the ridge barely
    /// cleared the post-detection gate.
    pub peak_margin: f64,
    /// Fraction of the segment's input samples that were synthesized by
    /// gap interpolation rather than received (0 for offline analyses of
    /// already-dense recordings).
    pub interpolated_fraction: f64,
    /// Fraction of the segment's samples that resolved a speed/rate from
    /// a genuine alignment (before gap bridging).
    pub alignment_coverage: f64,
}

impl Confidence {
    /// Collapses the three signals into one weight in `[0, 1]`:
    /// alignment coverage scaled down by the interpolated fraction, with
    /// the peak margin saturating at the post-detection gate's scale
    /// (0.2 ≈ a comfortably prominent ridge).
    pub fn score(&self) -> f64 {
        let margin = (self.peak_margin / 0.2).clamp(0.0, 1.0);
        let coverage = self.alignment_coverage.clamp(0.0, 1.0);
        let integrity = 1.0 - self.interpolated_fraction.clamp(0.0, 1.0);
        (margin * coverage * integrity).clamp(0.0, 1.0)
    }
}

/// Aggregate estimate for one moving segment.
#[derive(Debug, Clone)]
pub struct SegmentEstimate {
    /// First sample index of the segment.
    pub start: usize,
    /// One past the last sample index.
    pub end: usize,
    /// Motion kind.
    pub kind: SegmentKind,
    /// Travelled distance in the segment, metres (0 for rotations).
    pub distance_m: f64,
    /// Dominant device-frame heading of the segment, if translation.
    pub heading_device: Option<f64>,
    /// Net signed rotation, radians (0 for translations).
    pub rotation_rad: f64,
    /// How much this estimate should be trusted.
    pub confidence: Confidence,
}

/// The full motion estimate for a CSI recording.
#[derive(Debug, Clone)]
pub struct MotionEstimate {
    /// Sample rate, Hz.
    pub sample_rate_hz: f64,
    /// Movement indicator (self-TRRS, §4.1) per sample.
    pub movement_indicator: Vec<f64>,
    /// Movement flag per sample.
    pub moving: Vec<bool>,
    /// Speed per sample, m/s (`NaN` where unknown, 0 where static).
    pub speed_mps: Vec<f64>,
    /// Device-frame heading per sample.
    pub heading_device: Vec<Option<f64>>,
    /// Signed angular rate per sample, rad/s (0 outside rotations).
    pub angular_rate: Vec<f64>,
    /// Per-segment aggregates.
    pub segments: Vec<SegmentEstimate>,
}

impl MotionEstimate {
    /// Total travelled distance over all translation segments, metres.
    pub fn total_distance(&self) -> f64 {
        self.segments.iter().map(|s| s.distance_m).sum()
    }

    /// Net signed rotation over all rotation segments, radians.
    pub fn total_rotation(&self) -> f64 {
        self.segments.iter().map(|s| s.rotation_rad).sum()
    }

    /// Integrates the estimate into a world-frame trajectory, given the
    /// initial position and device orientation. Device orientation is
    /// advanced by the estimated angular rate (RIM tracks orientation
    /// changes only through detected rotations).
    pub fn trajectory(&self, start: Point2, initial_orientation: f64) -> Vec<Point2> {
        let dt = 1.0 / self.sample_rate_hz;
        let mut orientation = initial_orientation;
        let mut heading_world = Vec::with_capacity(self.speed_mps.len());
        for (h, &w) in self.heading_device.iter().zip(&self.angular_rate) {
            orientation += w * dt;
            heading_world.push(h.map(|hd| wrap_angle(hd + orientation)));
        }
        // Replace NaN speeds with 0 for integration; the distance they
        // represent is covered by the initial-motion compensation.
        let speed: Vec<f64> = self
            .speed_mps
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();
        integrate_trajectory(&speed, &heading_world, self.sample_rate_hz, start)
    }
}

/// The RIM engine: geometry + configuration + worker pool.
///
/// Analyses run through a [`Session`] built with [`Rim::session`]; the
/// [`Rim::analyze`] shorthand covers the common case. Construction
/// validates the configuration ([`RimConfig::validate`]) and geometry, so
/// every later failure mode is an [`Error`] rather than a panic.
///
/// ```
/// use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
/// use rim_channel::trajectory::{line, OrientationMode};
/// use rim_channel::ChannelSimulator;
/// use rim_core::{Rim, RimConfig};
/// use rim_csi::{CsiRecorder, DeviceConfig, RecorderConfig};
/// use rim_dsp::geom::Point2;
///
/// // Simulate a 0.5 m push at 1 m/s and measure it from CSI alone.
/// let sim = ChannelSimulator::open_lab(7);
/// let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
/// let trajectory = line(Point2::new(0.0, 2.0), 0.0, 0.5, 1.0, 100.0,
///                       OrientationMode::FollowPath);
/// let csi = CsiRecorder::new(
///         &sim,
///         DeviceConfig::single_nic(geometry.offsets().to_vec()),
///         RecorderConfig::default(),
///     )
///     .record(&trajectory)
///     .interpolated()
///     .unwrap();
///
/// let config = RimConfig::for_sample_rate(100.0)
///;
/// let rim = Rim::new(geometry, config).unwrap();
/// let estimate = rim.session().analyze(&csi).unwrap();
/// assert!((estimate.total_distance() - 0.5).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Rim {
    geometry: ArrayGeometry,
    config: RimConfig,
    pool: Arc<Pool>,
}

/// A builder-style handle for running analyses against a [`Rim`] engine.
///
/// Created by [`Rim::session`]; by default un-instrumented
/// ([`NullProbe`]). Chain [`Session::probe`] to attach an observability
/// probe, then call [`Session::analyze`] or [`Session::analyze_batch`]:
///
/// ```no_run
/// # fn run(rim: &rim_core::Rim, csi: &rim_csi::recorder::DenseCsi)
/// #     -> Result<(), rim_core::Error> {
/// let recorder = rim_obs::Recorder::new();
/// let estimate = rim.session().probe(&recorder).analyze(csi)?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Session<'r, P: Probe + ?Sized = NullProbe> {
    rim: &'r Rim,
    probe: &'r P,
}

impl Rim {
    /// Creates an engine, validating the configuration and geometry.
    ///
    /// # Errors
    /// [`Error::Config`] when a parameter is out of range (see
    /// [`RimConfig::validate`]); [`Error::Geometry`] when the array has
    /// fewer than two antennas (no pair to align).
    pub fn new(geometry: ArrayGeometry, config: RimConfig) -> Result<Self, Error> {
        config.validate()?;
        if geometry.n_antennas() < 2 {
            return Err(Error::Geometry(format!(
                "{} antenna(s); alignment needs at least two antennas to form a \
                 pair — use ArrayGeometry::linear(2, ..) or larger",
                geometry.n_antennas()
            )));
        }
        let pool = Arc::new(Pool::new(config.threads, config.tile_columns));
        Ok(Self {
            geometry,
            config,
            pool,
        })
    }

    /// The array geometry.
    pub fn geometry(&self) -> &ArrayGeometry {
        &self.geometry
    }

    /// The configuration.
    pub fn config(&self) -> &RimConfig {
        &self.config
    }

    /// The engine's worker pool (shared with sessions and streams).
    pub(crate) fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Starts an un-instrumented analysis session.
    pub fn session(&self) -> Session<'_, NullProbe> {
        Session {
            rim: self,
            probe: &NullProbe,
        }
    }

    /// Runs the full pipeline on a dense CSI recording. Shorthand for
    /// [`Rim::session`] + [`Session::analyze`].
    ///
    /// # Errors
    /// [`Error::AntennaMismatch`] when the recording's antenna count
    /// differs from the geometry's; [`Error::SeriesTooShort`] when the
    /// recording is shorter than one movement-detection lag.
    pub fn analyze(&self, csi: &DenseCsi) -> Result<MotionEstimate, Error> {
        self.session().analyze(csi)
    }

    /// Rejects input a session cannot analyze.
    fn check_input(&self, csi: &DenseCsi) -> Result<(), Error> {
        if csi.n_antennas() != self.geometry.n_antennas() {
            return Err(Error::AntennaMismatch {
                expected: self.geometry.n_antennas(),
                got: csi.n_antennas(),
            });
        }
        let needed = self.config.movement.lag + 1;
        if csi.n_samples() < needed {
            return Err(Error::SeriesTooShort {
                needed,
                got: csi.n_samples(),
            });
        }
        // The TRRS kernels score snapshots on mismatched subcarrier grids
        // as zero similarity instead of failing (unlike TX-count
        // disagreement, which truncates gracefully to the common prefix).
        // Inside one recording a grid mix is never intent: a capture that
        // interleaves 56/114/242-subcarrier snapshots would silently
        // score near-zero TRRS everywhere and reckon garbage. Reject
        // ragged grids at the boundary with the offending coordinates.
        let mut grid = None;
        for (a, series) in csi.antennas.iter().enumerate() {
            for (i, snap) in series.iter().enumerate() {
                let sc = snap.n_subcarriers();
                if snap.per_tx.iter().any(|cfr| cfr.len() != sc) {
                    return Err(Error::Geometry(format!(
                        "ragged CSI at antenna {a} sample {i}: \
                         TX streams disagree on subcarrier count"
                    )));
                }
                match grid {
                    None => grid = Some(sc),
                    Some(esc) if esc != sc => {
                        return Err(Error::Geometry(format!(
                            "mixed subcarrier grids in one recording: \
                             antenna {a} sample {i} has {sc} subcarriers, \
                             {esc} elsewhere"
                        )));
                    }
                    Some(_) => {}
                }
                // NaN/Inf CSI would silently poison every TRRS downstream
                // (the matrices, the DP costs, the movement indicator);
                // reject it at the boundary too.
                if !snap.is_finite() {
                    return Err(Error::NonFiniteCsi {
                        antenna: a,
                        sample: i,
                    });
                }
            }
        }
        Ok(())
    }

    /// Drains the pool's accumulated statistics into `probe` under
    /// [`stage::PARALLEL`].
    fn report_pool_stats<P: Probe + ?Sized>(&self, probe: &P) {
        let stats = self.pool.drain_stats();
        probe.gauge(stage::PARALLEL, "workers", self.pool.threads() as f64);
        probe.count(stage::PARALLEL, "runs", stats.runs);
        probe.count(stage::PARALLEL, "parallel_runs", stats.parallel_runs);
        probe.count(stage::PARALLEL, "tiles", stats.tiles);
        probe.count(stage::PARALLEL, "steals", stats.steals);
        probe.count(stage::PARALLEL, "steal_attempts", stats.steal_attempts);
        for &ns in &stats.busy_ns {
            probe.observe(stage::PARALLEL, "worker_busy_ms", ns as f64 / 1e6);
        }
    }
}

impl<'r, P: Probe + ?Sized> Session<'r, P> {
    /// Attaches an observability probe: each pipeline stage reports a
    /// timing span plus counters/gauges/distributions through it (see
    /// [`rim_obs::stage`] for the stage names). With the default
    /// [`NullProbe`] the hooks inline to nothing, so the session
    /// monomorphises to the un-instrumented pipeline.
    pub fn probe<Q: Probe + ?Sized>(self, probe: &'r Q) -> Session<'r, Q> {
        Session {
            rim: self.rim,
            probe,
        }
    }

    /// Runs the full pipeline on a dense CSI recording, tiling the
    /// alignment hot path across the engine's worker pool. Results are
    /// bit-identical for every thread count.
    ///
    /// # Errors
    /// [`Error::AntennaMismatch`] when the recording's antenna count
    /// differs from the geometry's; [`Error::SeriesTooShort`] when the
    /// recording is shorter than one movement-detection lag.
    pub fn analyze(&self, csi: &DenseCsi) -> Result<MotionEstimate, Error> {
        let est = self
            .rim
            .analyze_internal(csi, self.rim.pool(), self.probe)?;
        self.rim.report_pool_stats(self.probe);
        Ok(est)
    }

    /// Analyzes several independent recordings, fanning the sessions
    /// across the worker pool (one recording per work item; each inner
    /// analysis runs serially, so there is no nested parallelism).
    /// Results are returned in input order and are bit-identical to N
    /// independent [`Session::analyze`] calls with one thread.
    ///
    /// # Errors
    /// Validates every recording up front and fails before analyzing
    /// anything, so a batch never does partial work.
    pub fn analyze_batch(&self, csis: &[&DenseCsi]) -> Result<Vec<MotionEstimate>, Error> {
        let rim = self.rim;
        for csi in csis {
            rim.check_input(csi)?;
        }
        let span = self.probe.span(stage::PARALLEL);
        let results = rim.pool.map(csis, |csi| {
            rim.analyze_internal(csi, &Pool::serial(), &NullProbe)
        });
        drop(span);
        self.probe
            .count(stage::PARALLEL, "batch_sessions", csis.len() as u64);
        rim.report_pool_stats(self.probe);
        results.into_iter().collect()
    }
}

impl Rim {
    /// The pipeline body. `pool` is threaded through explicitly so batch
    /// workers can run serial inner sessions on the caller's pool-worker
    /// thread.
    fn analyze_internal<P: Probe + ?Sized>(
        &self,
        csi: &DenseCsi,
        pool: &Pool,
        probe: &P,
    ) -> Result<MotionEstimate, Error> {
        self.check_input(csi)?;
        let fs = csi.sample_rate_hz;
        let n = csi.n_samples();
        let series: Vec<Vec<NormSnapshot>> = csi
            .antennas
            .iter()
            .map(|s| NormSnapshot::series(s))
            .collect();

        let md_span = probe.span(stage::MOVEMENT_DETECTION);
        // §4.1 — movement detection. We take the *minimum* indicator over
        // antennas: a static device keeps every antenna's self-TRRS ≈ 1,
        // while motion must decorrelate at least one of them — the minimum
        // stays sensitive even when the arriving energy has narrow angular
        // spread (deep NLOS) and some antennas decorrelate slowly.
        // Antennas are independent, so they fan out across the pool; the
        // fold below runs in antenna order, keeping the result identical
        // to the serial loop.
        let movement_cfg = self.config.movement;
        let per_antenna = pool.map(&series, |s| movement_indicator(s, movement_cfg));
        let mut indicator = vec![f64::INFINITY; n];
        for v in &per_antenna {
            for (acc, x) in indicator.iter_mut().zip(v) {
                *acc = acc.min(*x);
            }
        }
        let moving: Vec<bool> = indicator
            .iter()
            .map(|&v| v < self.config.movement.threshold)
            .collect();
        let min_len = (self.config.min_segment_s * fs).round() as usize;
        // The self-TRRS indicator needs `lag` samples of history before it
        // can flag motion, so a segment's true start precedes detection;
        // backdate each start by the detection lag and merge overlaps.
        let mut segments_idx = moving_segments(&moving, min_len.max(1));
        for seg in &mut segments_idx {
            seg.0 = seg.0.saturating_sub(self.config.movement.lag);
        }
        // Merge segments separated by brief indicator flickers (weakly
        // decorrelating stretches of deep-NLOS motion look momentarily
        // static); a real stop shorter than the merge gap is not a stop
        // the system needs to resolve.
        let merge_gap = (0.3 * fs).round() as usize;
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(segments_idx.len());
        for seg in segments_idx {
            match merged.last_mut() {
                Some(last) if seg.0 <= last.1 + merge_gap => last.1 = last.1.max(seg.1),
                _ => merged.push(seg),
            }
        }
        let segments_idx = merged;
        drop(md_span);
        probe.count(stage::MOVEMENT_DETECTION, "samples", n as u64);
        probe.count(
            stage::MOVEMENT_DETECTION,
            "segments",
            segments_idx.len() as u64,
        );
        probe.gauge(
            stage::MOVEMENT_DETECTION,
            "moving_fraction",
            moving.iter().filter(|&&m| m).count() as f64 / n.max(1) as f64,
        );

        let mut speed = vec![0.0f64; n];
        let mut heading: Vec<Option<f64>> = vec![None; n];
        let mut angular = vec![0.0f64; n];
        let mut segments = Vec::new();

        let input = SegmentInput {
            series: series.iter().map(Vec::as_slice).collect(),
            columns: None,
        };
        for (s, e) in segments_idx {
            let seg = self.analyze_segment(&input, fs, s, e, pool, probe);
            for (i, v) in seg.speed.iter().enumerate() {
                speed[s + i] = *v;
            }
            for (i, h) in seg.heading.iter().enumerate() {
                heading[s + i] = *h;
            }
            for (i, w) in seg.angular.iter().enumerate() {
                angular[s + i] = *w;
            }
            segments.push(seg.summary);
        }

        Ok(MotionEstimate {
            sample_rate_hz: fs,
            movement_indicator: indicator,
            moving,
            speed_mps: speed,
            heading_device: heading,
            angular_rate: angular,
            segments,
        })
    }

    /// Per-segment analysis: classify, track, reckon.
    pub(crate) fn analyze_segment<P: Probe + ?Sized>(
        &self,
        input: &SegmentInput,
        fs: f64,
        s: usize,
        e: usize,
        pool: &Pool,
        probe: &P,
    ) -> SegmentResult {
        let groups = self.geometry.parallel_groups();
        let pre_span = probe.span(stage::PRE_DETECTION);
        // §4.3 pre-detection ("for a specific period, we consider only
        // antenna pairs that experience prominent peaks most of the
        // time"): cheap strided prominence per group, evaluated per block
        // so a group aligned during only one leg of a multi-direction
        // segment (e.g. one stroke of a letter) is still kept.
        // Groups are independent; fan them across the pool (the strided
        // single-column probes inside stay serial).
        let block_len = ((0.6 * fs).round() as usize).max(8);
        let blocks_and_hits: Vec<(Vec<f64>, u64)> = pool.map(&groups, |g| {
            self.group_prominence_blocks(input, g, s, e, block_len)
        });
        let cache_hits: u64 = blocks_and_hits.iter().map(|(_, h)| h).sum();
        let per_block: Vec<Vec<f64>> = blocks_and_hits.into_iter().map(|(b, _)| b).collect();
        let n_blocks = per_block.first().map_or(0, Vec::len);
        // Whole-segment prominence (block mean) drives the rotation check.
        let prominences: Vec<f64> = per_block
            .iter()
            .map(|b| {
                if b.is_empty() {
                    0.0
                } else {
                    b.iter().sum::<f64>() / b.len() as f64
                }
            })
            .collect();
        let best = prominences.iter().cloned().fold(0.0f64, f64::max);
        drop(pre_span);
        if cache_hits > 0 {
            probe.count(
                stage::INCREMENTAL,
                incremental_metric::CACHE_HITS,
                cache_hits,
            );
        }
        probe.count(
            stage::PRE_DETECTION,
            "groups_considered",
            groups.len() as u64,
        );
        for &p in &prominences {
            probe.observe(stage::PRE_DETECTION, "group_prominence", p);
        }
        if std::env::var_os("RIM_DEBUG").is_some() {
            eprintln!("[rim] segment {s}..{e} prominences: {prominences:?} best {best}");
        }

        // Rotation check (§4.4 (3)): during in-place rotation every
        // adjacent ring pair is aligned, so all ring-side groups are
        // prominent simultaneously — while a translation elevates only the
        // one or two groups parallel to the motion.
        let is_rotation = self.rotation_signature(&groups, &prominences, best);
        if is_rotation {
            if let Some(result) = self.estimate_rotation(input, fs, s, e, pool, probe) {
                probe.count(stage::PRE_DETECTION, "rotation_segments", 1);
                return result;
            }
            probe.count(stage::PRE_DETECTION, "rotation_fallbacks", 1);
        }
        // A group survives pre-detection if it is prominent in *any*
        // block of the segment.
        let mut survivors: Vec<usize> = Vec::new();
        for b in 0..n_blocks {
            let col: Vec<f64> = per_block.iter().map(|g| g[b]).collect();
            let best_b = col.iter().cloned().fold(0.0f64, f64::max);
            let floor_b = rim_dsp::stats::median(&col);
            // NaN-safe: a NaN floor must not count as "something stands out".
            let stands_out = best_b - floor_b > 0.03;
            if !stands_out {
                continue;
            }
            let thr = (floor_b + 0.5 * (best_b - floor_b)).min(PRE_KEEP_RATIO * best_b);
            for (g, &v) in col.iter().enumerate() {
                if v >= thr && !survivors.contains(&g) {
                    survivors.push(g);
                }
            }
        }
        if survivors.is_empty() {
            // Nothing stood out anywhere; fall back to the single best
            // whole-segment group and let post-detection gate it.
            if let Some((g, _)) = prominences
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            {
                survivors.push(g);
                probe.count(stage::PRE_DETECTION, "fallback_best_group", 1);
            }
        }
        survivors.sort_unstable();
        probe.count(
            stage::PRE_DETECTION,
            "groups_survived",
            survivors.len() as u64,
        );
        self.estimate_translation(input, fs, s, e, &groups, &survivors, pool, probe)
    }

    /// Per-block prominence of a parallel group: the segment is divided
    /// into blocks of `block_len` samples; each block's prominence is the
    /// median column-max of the (un-averaged) cross-TRRS over a strided
    /// sub-sampling of that block. Also returns how many of the strided
    /// column probes were served from the incremental column cache.
    fn group_prominence_blocks(
        &self,
        input: &SegmentInput,
        group: &[rim_array::PairGeometry],
        s: usize,
        e: usize,
        block_len: usize,
    ) -> (Vec<f64>, u64) {
        let w = self.config.alignment.window;
        let stride = PRE_STRIDE;
        let len = e - s;
        let n_blocks = len.div_ceil(block_len).max(1);
        let mut out = Vec::with_capacity(n_blocks);
        let mut maxima = Vec::new();
        let mut hits = 0u64;
        for b in 0..n_blocks {
            let b0 = s + b * block_len;
            let b1 = (b0 + block_len).min(e);
            maxima.clear();
            for pg in group {
                let a = input.series[pg.pair.i];
                let bb = input.series[pg.pair.j];
                let cached = input
                    .columns
                    .and_then(|c| c.pair_index(pg.pair.i, pg.pair.j).map(|p| (c, p)));
                let mut t = b0;
                while t < b1 {
                    let col_max = match cached {
                        Some((cache, p)) => {
                            hits += 1;
                            cache.column_max(p, t, a.len())
                        }
                        None => {
                            let m = base_cross_trrs_range_prec(
                                a,
                                bb,
                                w,
                                (t, t + 1),
                                &Pool::serial(),
                                self.config.precision,
                            );
                            m.row(0).iter().cloned().fold(0.0f64, f64::max)
                        }
                    };
                    maxima.push(col_max);
                    t += stride;
                }
            }
            out.push(if maxima.is_empty() {
                0.0
            } else {
                rim_dsp::stats::median(&maxima)
            });
        }
        (out, hits)
    }

    /// True when the prominence pattern says "rotation": *every*
    /// ring-side group stands clearly above the prominence floor. A
    /// translation elevates only the group(s) parallel to the motion, so
    /// at most one ring direction can be prominent.
    fn rotation_signature(
        &self,
        groups: &[Vec<rim_array::PairGeometry>],
        prominences: &[f64],
        best: f64,
    ) -> bool {
        let Some(ring) = self.geometry.adjacent_ring_pairs() else {
            return false;
        };
        let floor = rim_dsp::stats::median(prominences);
        // Degenerate pattern (nothing stands out) is not a rotation.
        // NaN-safe: a NaN floor falls through to "not a rotation".
        let stands_out = best - floor > 0.03;
        if !stands_out {
            return false;
        }
        // Lenient factor: short rotations have weak ridges (the blind arc
        // eats most of the segment); false positives fall back to
        // translation through the rotation estimator's validation.
        let threshold = floor + 0.35 * (best - floor);
        // Which groups contain ring-adjacent pairs?
        let ring_group_idx: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                g.iter().any(|pg| {
                    ring.iter().any(|rp| {
                        (rp.i == pg.pair.i && rp.j == pg.pair.j)
                            || (rp.i == pg.pair.j && rp.j == pg.pair.i)
                    })
                })
            })
            .map(|(k, _)| k)
            .collect();
        if ring_group_idx.is_empty() {
            return false;
        }
        let prominent = ring_group_idx
            .iter()
            .filter(|&&k| prominences[k] >= threshold)
            .count();
        prominent as f64 >= ROTATION_FRACTION * ring_group_idx.len() as f64
    }

    /// Translation estimation (§4.4 (1), (2)).
    #[allow(clippy::too_many_arguments)]
    fn estimate_translation<P: Probe + ?Sized>(
        &self,
        input: &SegmentInput,
        fs: f64,
        s: usize,
        e: usize,
        groups: &[Vec<rim_array::PairGeometry>],
        survivors: &[usize],
        pool: &Pool,
        probe: &P,
    ) -> SegmentResult {
        let len = e - s;
        let cfg = &self.config;

        struct GroupTrack {
            sep: f64,
            dir: f64,
            path: TrackedPath,
            /// Sub-sample refined lag per sample.
            refined: Vec<f64>,
            /// Ridge prominence above the column floor — gates estimates.
            raw_quality: Vec<f64>,
            /// Smoothed prominence minus jumpiness — drives group choice.
            score: Vec<f64>,
        }
        let mut tracks: Vec<GroupTrack> = Vec::new();
        let smooth_half = ((SMOOTH_HALF_S * fs).round() as usize).max(1);
        for &k in survivors {
            let g = &groups[k];
            let served: u64 = g
                .iter()
                .filter(|pg| input.cached(pg.pair.i, pg.pair.j))
                .count() as u64
                * (e - s) as u64;
            if served > 0 {
                probe.count(stage::INCREMENTAL, incremental_metric::CACHE_HITS, served);
            }
            let (avg, gate) = {
                let _span = probe.span(stage::ALIGNMENT_BUILD);
                let pair_mats: Vec<(AlignmentMatrix, AlignmentMatrix)> = g
                    .iter()
                    .map(|pg| self.segment_matrices(input, pg.pair.i, pg.pair.j, s, e, pool))
                    .collect();
                let full_refs: Vec<&AlignmentMatrix> = pair_mats.iter().map(|m| &m.0).collect();
                let gate_refs: Vec<&AlignmentMatrix> = pair_mats.iter().map(|m| &m.1).collect();
                (
                    AlignmentMatrix::average_with(&full_refs, pool),
                    AlignmentMatrix::average_with(&gate_refs, pool),
                )
            };
            probe.count(stage::ALIGNMENT_BUILD, "pair_matrices", g.len() as u64);
            probe.gauge(stage::ALIGNMENT_BUILD, "matrix_lags", avg.n_lags() as f64);
            probe.gauge(stage::ALIGNMENT_BUILD, "matrix_times", avg.n_times() as f64);
            let path = {
                let _span = probe.span(stage::DP_TRACKING);
                track_peaks(&avg, cfg.dp)
            };
            probe.observe(stage::DP_TRACKING, "path_mean_trrs", path.mean_trrs);
            probe.observe(stage::DP_TRACKING, "path_jumpiness", path.jumpiness);
            // Ridge prominence above each column's noise floor, from the
            // lightly-averaged matrix so ridge endpoints stay sharp.
            let floors = gate.column_floors();
            let raw_quality: Vec<f64> = (0..len)
                .map(|i| gate.at(i, path.lags[i]) - floors[i])
                .collect();
            for &q in &raw_quality {
                probe.observe(stage::POST_DETECTION, "ridge_prominence", q);
            }
            let refined: Vec<f64> = (0..len)
                .map(|i| {
                    if cfg.subsample_refinement {
                        avg.refine_lag(i, path.lags[i])
                    } else {
                        path.lags[i] as f64
                    }
                })
                .collect();
            let smoothed = rim_dsp::filter::moving_average(&raw_quality, smooth_half);
            let score: Vec<f64> = smoothed
                .iter()
                .map(|q| q - JUMPINESS_PENALTY * path.jumpiness)
                .collect();
            tracks.push(GroupTrack {
                sep: g[0].separation,
                dir: g[0].direction,
                path,
                refined,
                raw_quality,
                score,
            });
        }

        if std::env::var_os("RIM_DEBUG").is_some() {
            eprintln!("[rim] survivors: {survivors:?}");
            for (n, tr) in tracks.iter().enumerate() {
                eprintln!(
                    "[rim]   track {n}: dir {:.1}° sep {:.4} mean_trrs {:.3} jump {:.3}",
                    tr.dir.to_degrees(),
                    tr.sep,
                    tr.path.mean_trrs,
                    tr.path.jumpiness
                );
            }
        }

        let mut speed = vec![f64::NAN; len];
        let mut heading: Vec<Option<f64>> = vec![None; len];
        let mut chosen_sep = None;
        let mut margin_sum = 0.0f64;
        let mut margin_n = 0u64;

        if !tracks.is_empty() {
            let _span = probe.span(stage::POST_DETECTION);
            let mut switches = 0u64;
            let mut gated = 0u64;
            let mut resolved = 0u64;
            // §4.3 post-detection with hysteresis: follow the best-scoring
            // group per sample, switching only on a clear margin.
            let mut current = (0..tracks.len())
                .max_by(|&a, &b| {
                    tracks[a].score[0]
                        .partial_cmp(&tracks[b].score[0])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap();
            for i in 0..len {
                let challenger = (0..tracks.len())
                    .max_by(|&a, &b| {
                        tracks[a].score[i]
                            .partial_cmp(&tracks[b].score[i])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap();
                if challenger != current
                    && tracks[challenger].score[i] > tracks[current].score[i] + SWITCH_MARGIN
                {
                    current = challenger;
                    switches += 1;
                }
                let tr = &tracks[current];
                if tr.raw_quality[i] < MIN_PEAK_PROMINENCE {
                    gated += 1;
                    continue;
                }
                // Skip boundary-pinned alignments (see estimate_rotation).
                let src = i as isize - tr.path.lags[i];
                if src < 3 || src > len as isize - 3 {
                    gated += 1;
                    continue;
                }
                let lag = tr.refined[i];
                if let Some(v) = speed_from_frac_lag(tr.sep, lag, fs) {
                    speed[i] = v;
                    resolved += 1;
                    margin_sum += tr.raw_quality[i];
                    margin_n += 1;
                }
                heading[i] = if cfg.continuous_heading {
                    // §7 "angle resolution": weight every genuinely-aligned
                    // group's direction by its ridge prominence; deviated
                    // motion interpolates between adjacent directions.
                    let gate = (tr.raw_quality[i] * 0.5).max(MIN_PEAK_PROMINENCE);
                    let (mut sx, mut sy) = (0.0f64, 0.0f64);
                    for other in &tracks {
                        let q = other.raw_quality[i];
                        if q < gate {
                            continue;
                        }
                        if let Some(h) = heading_from_frac_lag(other.dir, other.refined[i]) {
                            sx += q * h.cos();
                            sy += q * h.sin();
                        }
                    }
                    if sx == 0.0 && sy == 0.0 {
                        heading_from_frac_lag(tr.dir, lag)
                    } else {
                        Some(sy.atan2(sx))
                    }
                } else {
                    heading_from_frac_lag(tr.dir, lag)
                };
                if chosen_sep.is_none() {
                    chosen_sep = Some(tr.sep);
                }
            }
            // Minimum initial motion (§5): no alignment exists until the
            // follower has travelled Δd — i.e. before segment-relative
            // time |lag|. Estimates earlier than both the first sustained
            // alignment and that physical bound are spurious; blank them —
            // the blind stretch is covered by the Δd compensation below.
            let sustain = 3usize.min(len);
            let first_aligned = (0..len.saturating_sub(sustain))
                .find(|&i| (i..i + sustain).all(|k| speed[k].is_finite()));
            let cut = match first_aligned {
                Some(i0) => {
                    let lag_bound = tracks
                        .first()
                        .map(|_| {
                            // Use the lag actually in effect at i0.
                            let tr_lag = tracks
                                .iter()
                                .filter_map(|tr| {
                                    if tr.raw_quality[i0] >= MIN_PEAK_PROMINENCE {
                                        Some(tr.refined[i0].abs())
                                    } else {
                                        None
                                    }
                                })
                                .fold(f64::INFINITY, f64::min);
                            if tr_lag.is_finite() {
                                tr_lag.round() as usize
                            } else {
                                0
                            }
                        })
                        .unwrap_or(0);
                    i0.max(lag_bound.min(len))
                }
                None => len,
            };
            for i in 0..cut {
                speed[i] = f64::NAN;
                heading[i] = None;
            }
            probe.count(stage::POST_DETECTION, "group_switches", switches);
            probe.count(stage::POST_DETECTION, "samples_gated", gated);
            probe.count(stage::POST_DETECTION, "samples_resolved", resolved);
            probe.count(stage::POST_DETECTION, "initial_cut_samples", cut as u64);
        }

        // Confidence inputs, measured before the gap bridging below
        // fabricates interior speeds: which fraction of the segment
        // resolved genuine alignment, and how prominent it was.
        let confidence = Confidence {
            peak_margin: if margin_n > 0 {
                margin_sum / margin_n as f64
            } else {
                0.0
            },
            interpolated_fraction: 0.0,
            alignment_coverage: fraction_finite(&speed),
        };

        let reck_span = probe.span(stage::RECKONING);
        // The segment is moving throughout (movement detection says so);
        // where the quality gate blanked the ridge (weak-decorrelation
        // stretches, §6.2.4's hardest AP placements), bridge *interior*
        // speed gaps by linear interpolation. The tail is left blank: a
        // segment commonly overhangs the physical stop by the detector
        // latency, and holding the last speed there would fabricate
        // distance. Heading is held alongside bridged samples.
        {
            let mut bridged = 0u64;
            let mut last_known: Option<(usize, f64)> = None;
            let mut i = 0usize;
            while i < len {
                if speed[i].is_finite() {
                    last_known = Some((i, speed[i]));
                    i += 1;
                    continue;
                }
                if let Some((i0, v0)) = last_known {
                    // Find the next finite sample, if any.
                    let next = (i..len).find(|&j| speed[j].is_finite());
                    match next {
                        Some(j) => {
                            let v1 = speed[j];
                            let span = (j - i0) as f64;
                            for k in i..j {
                                let t = (k - i0) as f64 / span;
                                speed[k] = v0 * (1.0 - t) + v1 * t;
                                if heading[k].is_none() {
                                    heading[k] = heading[i0];
                                }
                            }
                            bridged += (j - i) as u64;
                            i = j;
                        }
                        None => {
                            // Trailing gap: stop bridging (see above).
                            i = len;
                        }
                    }
                } else {
                    i += 1;
                }
            }
            probe.count(stage::RECKONING, "bridged_samples", bridged);
        }

        // Smooth speed: median to kill single-lag outliers, then a gentle
        // Savitzky–Golay (§4.4 "smoothed and then integrated").
        let valid: Vec<f64> = speed
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();
        let med = median_filter(&valid, smooth_half);
        let smoothed = savitzky_golay(&med, smooth_half, 2);
        for i in 0..len {
            if speed[i].is_finite() {
                speed[i] = smoothed[i].max(0.0);
            }
        }

        let dt = 1.0 / fs;
        let mut distance: f64 = speed.iter().filter(|v| v.is_finite()).sum::<f64>() * dt;
        // Minimum initial motion Δd (§5): an antenna must travel the
        // separation of the chosen pair before the first alignment.
        if let Some(sep) = chosen_sep {
            distance += sep;
        }
        let headings_present: Vec<f64> = heading.iter().flatten().copied().collect();
        let seg_heading = if headings_present.is_empty() {
            None
        } else {
            Some(circular_mean(&headings_present))
        };
        drop(reck_span);
        probe.count(stage::RECKONING, "segments", 1);
        probe.observe(stage::RECKONING, "segment_distance_m", distance);

        SegmentResult {
            speed,
            heading,
            angular: vec![0.0; len],
            summary: SegmentEstimate {
                start: s,
                end: e,
                kind: SegmentKind::Translation,
                distance_m: distance,
                heading_device: seg_heading,
                rotation_rad: 0.0,
                confidence,
            },
        }
    }

    /// Rotation estimation (§4.4 (3)). Returns `None` when the geometry
    /// has no ring or no ring pair yields a usable path.
    fn estimate_rotation<P: Probe + ?Sized>(
        &self,
        input: &SegmentInput,
        fs: f64,
        s: usize,
        e: usize,
        pool: &Pool,
        probe: &P,
    ) -> Option<SegmentResult> {
        let ring = self.geometry.adjacent_ring_pairs()?;
        let radius = self.geometry.ring_radius()?;
        let arc = self.geometry.rotation_arc_separation()?;
        let cfg = &self.config;
        let len = e - s;
        let smooth_half = ((SMOOTH_HALF_S * fs).round() as usize).max(1);

        // Average opposite ring pairs (they share delays) to limit cost:
        // pair k with pair k + n/2 where available.
        let n_ring = ring.len();
        let half = n_ring / 2;
        let mut rates: Vec<Vec<f64>> = Vec::new(); // per group: rate per sample (NaN invalid)
        let mut median_lags: Vec<isize> = Vec::new();
        let mut margin_sum = 0.0f64;
        let mut margin_n = 0u64;
        for k in 0..half.max(1) {
            let mut served = 0u64;
            if input.cached(ring[k].i, ring[k].j) {
                served += 1;
            }
            let (avg, gatem, n_mats) = {
                let _span = probe.span(stage::ALIGNMENT_BUILD);
                let mut mats = vec![self.segment_matrices(input, ring[k].i, ring[k].j, s, e, pool)];
                if half > 0 && k + half < n_ring {
                    mats.push(self.segment_matrices(
                        input,
                        ring[k + half].i,
                        ring[k + half].j,
                        s,
                        e,
                        pool,
                    ));
                    if input.cached(ring[k + half].i, ring[k + half].j) {
                        served += 1;
                    }
                }
                let full_refs: Vec<&AlignmentMatrix> = mats.iter().map(|m| &m.0).collect();
                let gate_refs: Vec<&AlignmentMatrix> = mats.iter().map(|m| &m.1).collect();
                (
                    AlignmentMatrix::average_with(&full_refs, pool),
                    AlignmentMatrix::average_with(&gate_refs, pool),
                    mats.len() as u64,
                )
            };
            probe.count(stage::ALIGNMENT_BUILD, "pair_matrices", n_mats);
            if served > 0 {
                probe.count(
                    stage::INCREMENTAL,
                    incremental_metric::CACHE_HITS,
                    served * (e - s) as u64,
                );
            }
            let path = {
                let _span = probe.span(stage::DP_TRACKING);
                track_peaks(&avg, cfg.dp)
            };
            probe.observe(stage::DP_TRACKING, "path_mean_trrs", path.mean_trrs);
            probe.observe(stage::DP_TRACKING, "path_jumpiness", path.jumpiness);
            let floors = gatem.column_floors();
            let quality: Vec<f64> = (0..len)
                .map(|i| gatem.at(i, path.lags[i]) - floors[i])
                .collect();
            // The ridge may only cover part of the segment (e.g. a short
            // rotation whose measurable window ends Δd-of-arc before the
            // motion does), so validate and estimate over quality-gated
            // samples only.
            let mut valid: Vec<(f64, isize)> = (0..len)
                .filter(|&i| {
                    let src = i as isize - path.lags[i];
                    quality[i] >= MIN_PEAK_PROMINENCE
                        && path.lags[i] != 0
                        && src >= 3
                        && src <= len as isize - 3
                })
                .map(|i| (quality[i], path.lags[i]))
                .collect();
            // The ridge may cover only part of the segment; junk samples
            // that clear the gate have markedly lower prominence, so the
            // reference delay comes from the highest-prominence third.
            valid.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            let top = &valid[..(valid.len() / 3).max(valid.len().min(4))];
            let valid_lags: Vec<isize> = top.iter().map(|&(_, l)| l).collect();
            if std::env::var_os("RIM_DEBUG").is_some() {
                eprintln!(
                    "[rim] ring group {k}: mean_trrs {:.3} jump {:.3} valid {}/{len}",
                    path.mean_trrs,
                    path.jumpiness,
                    valid_lags.len()
                );
            }
            // Validation: a real rotation aligns *every* adjacent pair
            // with a solid ridge for a meaningful stretch. Otherwise this
            // was not a rotation — fall back to translation handling.
            if valid_lags.len() < (len / 8).max(4) {
                probe.count(stage::POST_DETECTION, "rotation_rejections", 1);
                return None;
            }
            let mut sorted = valid_lags;
            sorted.sort_unstable();
            let median_lag = sorted[sorted.len() / 2];
            median_lags.push(median_lag);
            // Rates only from samples consistent with the group's median
            // delay (same sign, comparable magnitude): pre-ridge junk that
            // slips past the prominence gate at small or opposite lags
            // would otherwise inject huge wrong-sign rates.
            let rate: Vec<f64> = (0..len)
                .map(|i| {
                    let lag = path.lags[i];
                    // A path pinned to the data boundary (source time at
                    // the segment edge) is matching the leader's first or
                    // last position over and over — not a real alignment.
                    let src = i as isize - lag;
                    if src < 3 || src > len as isize - 3 {
                        return f64::NAN;
                    }
                    if quality[i] < MIN_PEAK_PROMINENCE
                        || lag.signum() != median_lag.signum()
                        || lag.abs() * 4 < median_lag.abs() * 3
                    {
                        return f64::NAN;
                    }
                    let frac = if cfg.subsample_refinement {
                        avg.refine_lag(i, lag)
                    } else {
                        lag as f64
                    };
                    angular_rate_from_frac_lag(arc, radius, frac, fs).unwrap_or(f64::NAN)
                })
                .collect();
            for (i, r) in rate.iter().enumerate() {
                if r.is_finite() {
                    margin_sum += quality[i];
                    margin_n += 1;
                }
            }
            rates.push(rate);
        }
        // Consistency: all adjacent pairs rotate together, so their median
        // delays must share one nonzero sign.
        let signs: Vec<isize> = median_lags.iter().map(|l| l.signum()).collect();
        if signs.contains(&0) || signs.windows(2).any(|w| w[0] != w[1]) {
            probe.count(stage::POST_DETECTION, "rotation_rejections", 1);
            return None;
        }
        let _reck_span = probe.span(stage::RECKONING);
        // §4.4: use the average speed across adjacent pairs.
        let mut angular = vec![f64::NAN; len];
        for i in 0..len {
            let vals: Vec<f64> = rates
                .iter()
                .map(|r| r[i])
                .filter(|v| v.is_finite())
                .collect();
            if !vals.is_empty() {
                angular[i] = vals.iter().sum::<f64>() / vals.len() as f64;
            }
        }
        if angular.iter().all(|v| !v.is_finite()) {
            return None;
        }
        // Integrate over the valid (ridge-backed) samples only; the blind
        // arc before the first alignment is compensated separately.
        let dt = 1.0 / fs;
        let mut total: f64 = angular.iter().filter(|v| v.is_finite()).sum::<f64>() * dt;
        // Minimum initial rotation (§5): an antenna must sweep the
        // inter-antenna arc before the first alignment.
        let blind = std::f64::consts::TAU / self.geometry.n_antennas() as f64;
        total += blind * total.signum();
        let confidence = Confidence {
            peak_margin: if margin_n > 0 {
                margin_sum / margin_n as f64
            } else {
                0.0
            },
            interpolated_fraction: 0.0,
            alignment_coverage: fraction_finite(&angular),
        };
        // Per-sample display series: gaps as zero, lightly smoothed.
        let filled: Vec<f64> = angular
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();
        let smoothed = median_filter(&filled, smooth_half);
        Some(SegmentResult {
            speed: vec![0.0; len],
            heading: vec![None; len],
            angular: smoothed,
            summary: SegmentEstimate {
                start: s,
                end: e,
                kind: SegmentKind::Rotation,
                distance_m: 0.0,
                heading_device: None,
                rotation_rad: total,
                confidence,
            },
        })
    }

    /// Alignment matrices for antenna pair `(i, j)` over segment columns
    /// `s..e`: the fully V-averaged matrix (for peak tracking and lag
    /// refinement) and a lightly averaged one (for quality gating — the
    /// full box filter smears the ridge endpoints by ±V/2, which would
    /// blank genuine alignment at segment edges). When the input carries
    /// an incremental column cache covering the pair, the base matrix is
    /// materialised from the cached columns (bit-identical to computing
    /// it here); the V-averaging runs unchanged either way.
    fn segment_matrices(
        &self,
        input: &SegmentInput,
        i: usize,
        j: usize,
        s: usize,
        e: usize,
        pool: &Pool,
    ) -> (AlignmentMatrix, AlignmentMatrix) {
        let cfg = self.config.alignment;
        let cached = input
            .columns
            .and_then(|c| c.pair_index(i, j).map(|p| (c, p)));
        let base = match cached {
            Some((cache, p)) => cache.base_matrix_with(p, s, e, input.series[i].len(), pool),
            None => base_cross_trrs_range_prec(
                input.series[i],
                input.series[j],
                cfg.window,
                (s, e),
                pool,
                self.config.precision,
            ),
        };
        let full = virtual_average_with(&base, cfg.virtual_antennas, pool);
        let gate = virtual_average_with(&base, cfg.virtual_antennas.min(5), pool);
        (full, gate)
    }
}

/// Input to per-segment analysis: the materialised snapshot series plus,
/// for streaming flushes, the incrementally built cross-TRRS column cache
/// to reuse instead of recomputing (see [`crate::incremental`]).
pub(crate) struct SegmentInput<'a> {
    /// Per-antenna normalised snapshot series (full buffered length; the
    /// segment addresses columns `s..e` within it). Borrowed slices so
    /// the streaming flush can lend its ring without cloning snapshots.
    pub(crate) series: Vec<&'a [NormSnapshot]>,
    /// Online column cache whose base index coincides with `series[_][0]`,
    /// when the stream maintains one.
    pub(crate) columns: Option<&'a ColumnCache>,
}

impl SegmentInput<'_> {
    /// Does the column cache cover ordered antenna pair `(i, j)`?
    fn cached(&self, i: usize, j: usize) -> bool {
        self.columns.and_then(|c| c.pair_index(i, j)).is_some()
    }
}

/// Internal per-segment result.
pub(crate) struct SegmentResult {
    pub(crate) speed: Vec<f64>,
    pub(crate) heading: Vec<Option<f64>>,
    pub(crate) angular: Vec<f64>,
    pub(crate) summary: SegmentEstimate,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_array::HALF_WAVELENGTH;
    use rim_channel::simulator::{ApConfig, ChannelSimulator};
    use rim_channel::trajectory::{dwell, line, OrientationMode, Trajectory};
    use rim_channel::{uniform_field, Floorplan, RayTracer, SubcarrierLayout, TracerConfig};
    use rim_csi::frame::CsiSnapshot;
    use rim_csi::recorder::{CsiRecorder, DenseCsi, DeviceConfig, RecorderConfig};
    use rim_dsp::geom::{Point2, Vec2};

    /// A fast, small simulator: HT20 (56 subcarriers), modest scatterer
    /// field, free space — enough multipath for alignment, cheap enough
    /// for unit tests.
    fn small_sim() -> ChannelSimulator {
        let scat = uniform_field(
            Point2::new(-12.0, -12.0),
            Point2::new(12.0, 12.0),
            90,
            0.35,
            5,
        );
        let tracer = RayTracer::new(
            Floorplan::empty(),
            scat,
            Vec::new(),
            TracerConfig::default(),
        );
        ChannelSimulator::new(
            tracer,
            SubcarrierLayout::ht20_5ghz(),
            ApConfig::standard(Point2::new(-6.0, 0.0)),
        )
    }

    fn record(
        sim: &ChannelSimulator,
        geo: &rim_array::ArrayGeometry,
        traj: &Trajectory,
    ) -> DenseCsi {
        let device = if geo.nic_groups().len() == 2 {
            DeviceConfig::dual_nic(geo.offsets().to_vec())
        } else {
            DeviceConfig::single_nic(geo.offsets().to_vec())
        };
        CsiRecorder::new(sim, device, RecorderConfig::default())
            .record(traj)
            .interpolated()
            .expect("interpolable")
    }

    #[test]
    fn measures_straight_push() {
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let fs = 100.0;
        let traj = line(
            Point2::new(0.0, 2.0),
            0.0,
            0.8,
            0.8,
            fs,
            OrientationMode::FollowPath,
        );
        let est = Rim::new(geo, RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&record(
                &sim,
                &rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH),
                &traj,
            ))
            .unwrap();
        let err = (est.total_distance() - 0.8).abs();
        assert!(err < 0.10, "distance error {err} m");
        assert_eq!(est.segments.len(), 1);
        assert_eq!(est.segments[0].kind, SegmentKind::Translation);
        let h = est.segments[0].heading_device.expect("heading resolved");
        assert!(rim_dsp::stats::angle_diff(h, 0.0) < 10f64.to_radians());
    }

    #[test]
    fn static_device_reports_nothing() {
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let fs = 100.0;
        let traj = dwell(Point2::new(1.0, 1.5), 0.0, 1.0, fs);
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&record(&sim, &geo, &traj))
            .unwrap();
        assert!(est.segments.is_empty(), "{:?}", est.segments);
        assert_eq!(est.total_distance(), 0.0);
        assert!(est.moving.iter().filter(|&&m| m).count() < est.moving.len() / 10);
    }

    #[test]
    fn reverse_direction_is_resolved() {
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let fs = 100.0;
        let traj = line(
            Point2::new(1.0, 2.0),
            std::f64::consts::PI,
            0.8,
            0.8,
            fs,
            OrientationMode::Fixed(0.0),
        );
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&record(&sim, &geo, &traj))
            .unwrap();
        let h = est.segments[0].heading_device.expect("heading");
        assert!(
            rim_dsp::stats::angle_diff(h, std::f64::consts::PI) < 10f64.to_radians(),
            "moving backwards: {}",
            h.to_degrees()
        );
    }

    #[test]
    fn trajectory_reconstruction_tracks_truth() {
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let fs = 100.0;
        let traj = line(
            Point2::new(0.0, 2.0),
            0.0,
            1.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        );
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&record(&sim, &geo, &traj))
            .unwrap();
        let track = est.trajectory(Point2::new(0.0, 2.0), 0.0);
        let end = track.last().unwrap();
        assert!(end.distance(Point2::new(1.0, 2.0)) < 0.15, "end {end:?}");
    }

    #[test]
    fn mismatched_antenna_count_is_rejected() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let rim = Rim::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let csi = DenseCsi {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![0, 1],
            antennas: vec![vec![CsiSnapshot { per_tx: vec![] }]; 2],
        };
        let err = rim.analyze(&csi).unwrap_err();
        assert_eq!(
            err,
            crate::Error::AntennaMismatch {
                expected: 3,
                got: 2
            }
        );
        assert!(err.to_string().contains("antenna count mismatch"));
    }

    #[test]
    fn too_short_series_is_rejected() {
        let geo = rim_array::ArrayGeometry::linear(2, HALF_WAVELENGTH);
        let rim = Rim::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let csi = DenseCsi {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![0, 1],
            antennas: vec![vec![CsiSnapshot { per_tx: vec![] }; 2]; 2],
        };
        let err = rim.analyze(&csi).unwrap_err();
        assert!(
            matches!(err, crate::Error::SeriesTooShort { got: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn mixed_subcarrier_grids_are_rejected_as_geometry_error() {
        // Two grids in one recording would silently score zero TRRS
        // between the mismatched snapshots (the kernels' contract) and
        // reckon garbage — the boundary must catch it instead.
        let geo = rim_array::ArrayGeometry::linear(2, HALF_WAVELENGTH);
        let rim = Rim::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let wide = CsiSnapshot {
            per_tx: vec![vec![rim_dsp::complex::Complex64::from_re(1.0); 114]],
        };
        let narrow = CsiSnapshot {
            per_tx: vec![vec![rim_dsp::complex::Complex64::from_re(1.0); 56]],
        };
        let mut series = vec![wide.clone(); 12];
        series[7] = narrow;
        let csi = DenseCsi {
            sample_rate_hz: 100.0,
            subcarrier_indices: (0..114).collect(),
            antennas: vec![series, vec![wide; 12]],
        };
        let err = rim.analyze(&csi).unwrap_err();
        assert!(matches!(err, crate::Error::Geometry(_)), "{err:?}");
        assert!(err.to_string().contains("mixed subcarrier grids"), "{err}");
        assert!(err.to_string().contains("sample 7"), "{err}");
    }

    #[test]
    fn ragged_tx_streams_are_rejected_as_geometry_error() {
        let geo = rim_array::ArrayGeometry::linear(2, HALF_WAVELENGTH);
        let rim = Rim::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let h = rim_dsp::complex::Complex64::from_re(1.0);
        let ragged = CsiSnapshot {
            per_tx: vec![vec![h; 56], vec![h; 55]],
        };
        let csi = DenseCsi {
            sample_rate_hz: 100.0,
            subcarrier_indices: (0..56).collect(),
            antennas: vec![vec![ragged; 12]; 2],
        };
        let err = rim.analyze(&csi).unwrap_err();
        assert!(matches!(err, crate::Error::Geometry(_)), "{err:?}");
        assert!(err.to_string().contains("TX streams disagree"), "{err}");
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        let geo = rim_array::ArrayGeometry::linear(2, HALF_WAVELENGTH);
        let cases: Vec<(RimConfig, &str)> = vec![
            (
                {
                    let mut c = RimConfig::for_sample_rate(100.0);
                    c.alignment.window = 0;
                    c
                },
                "alignment.window",
            ),
            (
                {
                    let mut c = RimConfig::for_sample_rate(100.0);
                    c.alignment.virtual_antennas = 0;
                    c
                },
                "virtual_antennas",
            ),
            (
                {
                    let mut c = RimConfig::for_sample_rate(100.0);
                    c.sample_rate_hz = 0.0;
                    c
                },
                "sample_rate_hz",
            ),
            (
                {
                    let mut c = RimConfig::for_sample_rate(100.0);
                    c.movement.threshold = 1.5;
                    c
                },
                "movement.threshold",
            ),
            (
                {
                    let mut c = RimConfig::for_sample_rate(100.0);
                    c.threads = rim_par::MAX_THREADS + 1;
                    c
                },
                "threads",
            ),
            (
                {
                    let mut c = RimConfig::for_sample_rate(100.0);
                    // Keeps the default nonzero cadence, which only the
                    // incremental engine can honour.
                    c.incremental = false;
                    c
                },
                "provisional_every",
            ),
        ];
        for (bad, needle) in cases {
            let err = Rim::new(geo.clone(), bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should name {needle:?}");
            assert!(msg.starts_with("invalid configuration"), "{msg:?}");
        }
        // A one-antenna array has no pair to align.
        let lone = rim_array::ArrayGeometry::custom(
            vec![rim_dsp::geom::Vec2::new(0.0, 0.0)],
            vec![vec![0]],
        );
        let err = Rim::new(lone, RimConfig::for_sample_rate(100.0)).unwrap_err();
        assert!(matches!(err, crate::Error::Geometry(_)), "{err:?}");
    }

    #[test]
    fn session_rejects_antenna_mismatch() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let rim = Rim::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let csi = DenseCsi {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![0, 1],
            antennas: vec![vec![CsiSnapshot { per_tx: vec![] }]; 2],
        };
        let err = rim.session().probe(&NullProbe).analyze(&csi).unwrap_err();
        assert!(matches!(err, crate::Error::AntennaMismatch { .. }));
    }

    /// The default lag window is the one the CLI, `perfbench` and the
    /// figures use, so their configs stay bit-identical without
    /// restating it.
    #[test]
    fn default_window_covers_the_paper_minimum_speed() {
        for fs in [50.0, 100.0, 160.0, 200.0] {
            let tools = RimConfig::for_sample_rate(fs).with_min_speed(0.3, HALF_WAVELENGTH, fs);
            assert_eq!(
                RimConfig::for_sample_rate(fs).alignment.window,
                tools.alignment.window,
                "fs = {fs}"
            );
        }
    }

    #[test]
    fn config_with_min_speed_sets_window() {
        let c = RimConfig::for_sample_rate(200.0).with_min_speed(0.2, 0.0258, 200.0);
        assert_eq!(c.alignment.window, 26);
        let c2 = RimConfig::for_sample_rate(200.0).with_min_speed(0.05, 0.0258, 200.0);
        assert!(c2.alignment.window > c.alignment.window);
    }

    #[test]
    fn motion_estimate_accessors() {
        let est = MotionEstimate {
            sample_rate_hz: 100.0,
            movement_indicator: vec![1.0; 4],
            moving: vec![false; 4],
            speed_mps: vec![0.0; 4],
            heading_device: vec![None; 4],
            angular_rate: vec![0.0; 4],
            segments: vec![
                SegmentEstimate {
                    start: 0,
                    end: 2,
                    kind: SegmentKind::Translation,
                    distance_m: 1.5,
                    heading_device: Some(0.0),
                    rotation_rad: 0.0,
                    confidence: Confidence::default(),
                },
                SegmentEstimate {
                    start: 2,
                    end: 4,
                    kind: SegmentKind::Rotation,
                    distance_m: 0.0,
                    heading_device: None,
                    rotation_rad: -0.5,
                    confidence: Confidence::default(),
                },
            ],
        };
        assert!((est.total_distance() - 1.5).abs() < 1e-12);
        assert!((est.total_rotation() + 0.5).abs() < 1e-12);
        let track = est.trajectory(Point2::ORIGIN, 0.0);
        assert_eq!(track.len(), 4);
    }

    #[test]
    fn deviated_direction_snaps_to_resolvable() {
        // 15°-deviated motion must still resolve to the nearest array
        // direction (paper §3.2 "deviated retracing").
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let fs = 100.0;
        let traj = line(
            Point2::new(0.0, 2.0),
            12f64.to_radians(),
            0.8,
            0.8,
            fs,
            OrientationMode::Fixed(0.0),
        );
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&record(&sim, &geo, &traj))
            .unwrap();
        assert!(est.total_distance() > 0.5, "deviated motion still measured");
        let h = est.segments[0].heading_device.expect("heading");
        assert!(rim_dsp::stats::angle_diff(h, 0.0) < 15f64.to_radians());
    }

    #[test]
    fn antenna_offsets_respect_device_frame() {
        // Sanity glue test: geometry offsets land where the trajectory
        // says (exercised indirectly throughout, pinned here).
        let traj = dwell(
            Point2::new(1.0, 1.0),
            std::f64::consts::FRAC_PI_2,
            0.01,
            100.0,
        );
        let p = traj.antenna_position(0, Vec2::new(0.1, 0.0));
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.1).abs() < 1e-9);
    }
}
