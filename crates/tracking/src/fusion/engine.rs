//! The fusion engine proper: the validated [`Fuser`] entry point and the
//! streaming [`FusedStream`] it builds around a [`RimStream`].

use super::config::{FusionConfig, MapFusionConfig};
use super::eskf::{Eskf, E_BG, E_THETA, E_V};
use super::zupt::ZuptDetector;
use super::{segment_weight, FusedTrack};
use crate::particle::ParticleFilter;
use rim_channel::floorplan::Floorplan;
use rim_core::{
    Confidence, Error, FusedMode, ImuSample, MotionEstimate, RimStream, StreamEvent, StreamInput,
};
use rim_dsp::geom::{Point2, Vec2};
use rim_dsp::stats::wrap_angle;
use rim_obs::{fusion_metric, stage, ActiveTrace, NullProbe, Probe};
use rim_sensors::integrate_gyro;

/// Innovation gate width for RIM *provisional* distance corrections, in
/// standard deviations of the innovation. A provisional whose innovation
/// exceeds `DISTANCE_GATE_SIGMA·√S + DISTANCE_GATE_FLOOR_M` is
/// discarded: provisionals are translation-only approximations, and an
/// outlier mid-motion must not yank the arc. Closing segments bypass
/// this gate (see [`FusedStream::absorb`]), and known-stale gap-split
/// measurements are rejected by provenance rather than magnitude.
const DISTANCE_GATE_SIGMA: f64 = 5.0;
/// Absolute slack added to the distance gate, metres, so near-zero
/// innovation variance (fresh anchors, noiseless configs) never rejects
/// honest centimetre-scale corrections.
const DISTANCE_GATE_FLOOR_M: f64 = 0.05;
/// Relative slack added to the distance gate, as a fraction of the
/// measured cumulative distance. RIM's provisional estimates are
/// translation-only approximations that the motion's closing segment
/// supersedes; after an exact (R = 0) provisional reset the innovation
/// variance collapses, and without this term the few-percent
/// provisional-vs-final discrepancy would be rejected as an outlier.
/// A blackout-sized mismatch (metres of unseen motion) still dwarfs
/// 5 % of the measured distance and stays gated out.
const DISTANCE_GATE_FRAC: f64 = 0.05;
/// Longest IMU inter-sample step integrated as-is, seconds; longer gaps
/// are clamped so one stale timestamp cannot catapult the dead
/// reckoning.
const MAX_IMU_DT_S: f64 = 1.0;

/// The RIM×IMU fusion engine: a validated [`FusionConfig`] plus the
/// batch and streaming entry points that consume it.
///
/// Construct through [`Fuser::builder`]; every knob is checked once at
/// [`FuserBuilder::build`] so the hot paths never re-validate.
///
/// ```
/// use rim_tracking::Fuser;
/// let fuser = Fuser::builder()
///     .rim_distance_noise(0.02)
///     .confidence_floor(0.2)
///     .build()
///     .expect("valid configuration");
/// assert!((fuser.config().rim_distance_noise - 0.02).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Fuser {
    config: FusionConfig,
}

impl Fuser {
    /// Starts a builder preloaded with [`FusionConfig::default`].
    pub fn builder() -> FuserBuilder {
        FuserBuilder {
            config: FusionConfig::default(),
        }
    }

    /// The validated configuration.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Batch fusion of a RIM estimate with a gyroscope track
    /// (paper §6.3.3): per-sample displacement along the
    /// gyro-integrated heading, down-weighted by the confidence of the
    /// containing segment under [`FusionConfig::confidence_floor`].
    /// Samples outside any segment keep full weight (movement gating
    /// already excludes them), and samples without a finite speed add no
    /// displacement. Starts from the configured initial pose.
    ///
    /// `gyro_z` must be sampled at the estimate's rate; a track of a
    /// different length is rejected with [`Error::GyroLengthMismatch`].
    pub fn fuse(&self, estimate: &MotionEstimate, gyro_z: &[f64]) -> Result<Vec<Point2>, Error> {
        let orientation = self.orientation(estimate, gyro_z)?;
        let dt = 1.0 / estimate.sample_rate_hz;
        let mut pos = self.config.initial_position;
        let mut out = Vec::with_capacity(orientation.len());
        for (i, &theta) in orientation.iter().enumerate() {
            let v = estimate.speed_mps[i];
            if v.is_finite() && v > 0.0 && estimate.moving[i] {
                let w = estimate
                    .segments
                    .iter()
                    .find(|s| s.start <= i && i < s.end)
                    .map_or(1.0, |s| segment_weight(s, self.config.confidence_floor));
                pos += Vec2::from_angle(theta) * (v * dt * w);
            }
            out.push(pos);
        }
        Ok(out)
    }

    /// Batch fusion through the map-constrained particle filter
    /// (paper Fig. 21), yielding both the unweighted dead-reckoned track
    /// and the filtered track, which steps the filter once every
    /// [`MapFusionConfig::samples_per_step`] samples.
    ///
    /// Rejects a gyro track of the wrong length like [`Fuser::fuse`].
    pub fn fuse_with_map(
        &self,
        estimate: &MotionEstimate,
        gyro_z: &[f64],
        floorplan: &Floorplan,
        map: &MapFusionConfig,
    ) -> Result<FusedTrack, Error> {
        let orientation = self.orientation(estimate, gyro_z)?;
        let dt = 1.0 / estimate.sample_rate_hz;
        let start = self.config.initial_position;
        let mut pf = ParticleFilter::new(floorplan.clone(), start, map.filter, map.seed);
        let mut dead_reckoned = Vec::with_capacity(orientation.len());
        let mut filtered = Vec::with_capacity(orientation.len());
        let (mut pos, mut current) = (start, start);
        let mut pending_dx = Vec2::ZERO;
        let mut since_step = 0usize;
        for (i, &theta) in orientation.iter().enumerate() {
            let v = estimate.speed_mps[i];
            if v.is_finite() && v > 0.0 && estimate.moving[i] {
                let step = Vec2::from_angle(theta) * (v * dt);
                pos += step;
                pending_dx = pending_dx + step;
            }
            dead_reckoned.push(pos);
            since_step += 1;
            if since_step >= map.samples_per_step {
                let d = pending_dx.norm();
                if d > 1e-9 {
                    let dt_s = map.samples_per_step as f64 / estimate.sample_rate_hz;
                    current = pf.step(d, pending_dx.angle(), dt_s);
                }
                pending_dx = Vec2::ZERO;
                since_step = 0;
            }
            filtered.push(current);
        }
        Ok(FusedTrack {
            dead_reckoned,
            filtered,
        })
    }

    /// The gyro-integrated heading track for batch fusion, once `gyro_z`
    /// is checked to pair sample by sample with `estimate`.
    fn orientation(&self, estimate: &MotionEstimate, gyro_z: &[f64]) -> Result<Vec<f64>, Error> {
        if gyro_z.len() != estimate.speed_mps.len() {
            return Err(Error::GyroLengthMismatch {
                estimate: estimate.speed_mps.len(),
                gyro: gyro_z.len(),
            });
        }
        Ok(integrate_gyro(
            gyro_z,
            estimate.sample_rate_hz,
            self.config.initial_heading,
        ))
    }

    /// Wraps a streaming RIM engine in the error-state filter,
    /// producing a [`FusedStream`] that accepts both CSI and IMU input
    /// through one ingest call.
    pub fn stream(&self, rim: RimStream) -> FusedStream {
        FusedStream::new(rim, self)
    }
}

/// Builder for [`Fuser`]; see [`FusionConfig`] for what each knob
/// means. [`FuserBuilder::build`] validates the whole configuration and
/// returns [`rim_core::Error::Config`] naming the offending field.
#[derive(Debug, Clone)]
pub struct FuserBuilder {
    config: FusionConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $($(#[$doc])*
        #[must_use]
        pub fn $name(mut self, $name: $ty) -> Self {
            self.config.$name = $name;
            self
        })*
    };
}

impl FuserBuilder {
    builder_setters! {
        /// ZUPT stance window, samples (≥ 2).
        zupt_window: usize,
        /// Extra consecutive qualifying windows before stance fires
        /// (absorbs inter-step gait lulls; 0 = bare windowed verdict).
        zupt_sustain: usize,
        /// Stance threshold on windowed accel deviation, m/s².
        zupt_accel_std: f64,
        /// Stance threshold on windowed mean |gyro|, rad/s.
        zupt_gyro_rate: f64,
        /// Accelerometer white-noise density, (m/s²)/√Hz.
        accel_noise: f64,
        /// Gyroscope white-noise density, (rad/s)/√Hz.
        gyro_noise: f64,
        /// Gyro bias random-walk density, (rad/s²)/√Hz.
        gyro_bias_walk: f64,
        /// RIM distance noise at full confidence, metres (0 = exact).
        rim_distance_noise: f64,
        /// RIM heading noise, radians (`f64::INFINITY` disables).
        rim_heading_noise: f64,
        /// Magnetometer heading noise, radians (`f64::INFINITY` disables).
        mag_heading_noise: f64,
        /// ZUPT velocity pseudo-measurement noise, m/s.
        zupt_velocity_noise: f64,
        /// Confidence score below which RIM corrections are dropped.
        confidence_floor: f64,
        /// Seconds without a RIM correction before coasting is declared.
        coast_timeout_s: f64,
        /// Initial fused position, metres.
        initial_position: Point2,
        /// Initial fused heading, radians.
        initial_heading: f64,
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    /// [`rim_core::Error::Config`] when any field is out of range; the
    /// message names the field and the accepted values.
    pub fn build(self) -> Result<Fuser, Error> {
        self.config.validate()?;
        Ok(Fuser {
            config: self.config,
        })
    }
}

/// A streaming RIM engine wrapped in the RIM×IMU error-state Kalman
/// filter.
///
/// One ingest call accepts every [`StreamInput`] shape: CSI input is
/// forwarded to the inner [`RimStream`] unchanged (events come back
/// bit-identical to an unwrapped stream, at any thread count) and its
/// segment/provisional estimates are absorbed as filter corrections;
/// [`StreamInput::Imu`] batches propagate the filter and emit one
/// [`StreamEvent::Fused`] estimate each — including during CSI gaps and
/// blackouts, which is the point.
#[derive(Debug)]
pub struct FusedStream {
    rim: RimStream,
    config: FusionConfig,
    eskf: Eskf,
    zupt: ZuptDetector,
    /// Latest stance verdict after arbitration: the ZUPT detector says
    /// stance AND RIM does not currently contradict it (see
    /// [`FusedStream::step_imu`]).
    stationary: bool,
    /// Whether a RIM movement segment is currently open.
    motion_open: bool,
    /// Σ distance of chunks RIM has closed in the open motion, metres.
    rim_arc_base: f64,
    /// Σ fused distance over fully closed motions, metres.
    closed_total: f64,
    /// Fused heading at the current motion's anchor (RIM headings are
    /// relative to it).
    theta_anchor: f64,
    /// Timestamp of the previous IMU sample, if any.
    last_imu_us: Option<u64>,
    /// Latest IMU timestamp — the fused clock.
    now_us: u64,
    /// Arc value when the current stop banked it (0 while a motion is
    /// open); post-stop arc growth is measured against this.
    arc_at_stop: f64,
    /// Whether the stream degraded since the last stop — the signal that
    /// post-stop arc growth is coasted motion, not dwell drift.
    degraded_since_stop: bool,
    /// Fused clock at the last confident RIM contact (an estimate over
    /// the confidence floor, whether or not the gate applied it).
    last_rim_us: Option<u64>,
    /// Cumulative microseconds spent coasting (moving, no usable RIM).
    coast_time_us: u64,
    /// Mode of the most recent fused estimate.
    mode: FusedMode,
    /// Stance samples that produced ZUPT corrections.
    zupt_count: u64,
    /// Accepted RIM corrections.
    rim_updates: u64,
}

impl FusedStream {
    /// Wraps an existing streaming engine with the given fuser's
    /// configuration.
    pub fn new(rim: RimStream, fuser: &Fuser) -> Self {
        let config = fuser.config.clone();
        let eskf = Eskf::new(
            config.initial_position,
            config.initial_heading,
            config.gyro_noise,
            config.accel_noise,
            config.gyro_bias_walk,
        );
        let zupt = ZuptDetector::new(
            config.zupt_window,
            config.zupt_accel_std,
            config.zupt_gyro_rate,
        )
        .with_sustain(config.zupt_sustain);
        let theta_anchor = config.initial_heading;
        Self {
            rim,
            config,
            eskf,
            zupt,
            stationary: false,
            motion_open: false,
            rim_arc_base: 0.0,
            closed_total: 0.0,
            arc_at_stop: 0.0,
            degraded_since_stop: false,
            theta_anchor,
            last_imu_us: None,
            now_us: 0,
            last_rim_us: None,
            coast_time_us: 0,
            mode: FusedMode::RimAnchored,
            zupt_count: 0,
            rim_updates: 0,
        }
    }

    /// Starts an un-instrumented session (see [`FusedSession`]).
    pub fn session(&mut self) -> FusedSession<'_, NullProbe> {
        FusedSession {
            stream: self,
            probe: &NullProbe,
            trace: None,
        }
    }

    /// Ingests one unit of input — CSI or IMU — and returns any events
    /// it completes. Shorthand for [`FusedStream::session`] +
    /// [`FusedSession::ingest`].
    ///
    /// # Errors
    /// The inner [`RimStream::ingest`] errors, verbatim; IMU input never
    /// fails.
    pub fn ingest(&mut self, input: impl Into<StreamInput>) -> Result<Vec<StreamEvent>, Error> {
        self.ingest_internal(input.into(), &NullProbe, None)
    }

    /// Flushes the inner stream's open segment, absorbs the final
    /// estimates, and returns the events.
    pub fn finish(&mut self) -> Vec<StreamEvent> {
        self.finish_internal(&NullProbe)
    }

    /// The wrapped streaming RIM engine (read-only; mutate it through
    /// ingest so the filter sees every event).
    pub fn rim(&self) -> &RimStream {
        &self.rim
    }

    /// Current fused position, metres.
    pub fn position(&self) -> Point2 {
        self.eskf.position
    }

    /// Current fused heading, radians.
    pub fn heading(&self) -> f64 {
        self.eskf.heading
    }

    /// Current fused forward speed, m/s.
    pub fn velocity(&self) -> f64 {
        self.eskf.velocity
    }

    /// Trace of the error-state covariance.
    pub fn covariance_trace(&self) -> f64 {
        self.eskf.covariance_trace()
    }

    /// Mode of the most recent fused estimate.
    pub fn mode(&self) -> FusedMode {
        self.mode
    }

    /// Total fused travel distance, metres: the banked motions plus the
    /// arc grown since the last bank. Between a stop and the next start
    /// that growth is the IMU's opinion — kept for good if the stream
    /// degraded in between (distance coasted through a blackout that RIM
    /// never saw), discarded at a clean restart (dwell drift plus the
    /// detection latency that the backdated restart re-measures).
    pub fn total_distance(&self) -> f64 {
        self.closed_total + self.eskf.arc - self.arc_at_stop
    }

    /// Stance samples that produced ZUPT corrections so far.
    pub fn zupt_count(&self) -> u64 {
        self.zupt_count
    }

    /// Accepted RIM corrections so far.
    pub fn rim_updates(&self) -> u64 {
        self.rim_updates
    }

    /// Cumulative time spent IMU-coasting, microseconds.
    pub fn coast_time_us(&self) -> u64 {
        self.coast_time_us
    }

    /// The ingest body shared by the public entry points.
    fn ingest_internal<P: Probe + ?Sized>(
        &mut self,
        input: StreamInput,
        probe: &P,
        trace: Option<&mut ActiveTrace>,
    ) -> Result<Vec<StreamEvent>, Error> {
        match input {
            StreamInput::Imu(samples) => Ok(self.ingest_imu(&samples, probe)),
            other => {
                let events = {
                    let mut session = self.rim.session().probe(probe);
                    if let Some(t) = trace {
                        session = session.trace(t);
                    }
                    session.ingest(other)?
                };
                self.absorb(&events, probe);
                Ok(events)
            }
        }
    }

    /// The finish body shared by the public entry points.
    fn finish_internal<P: Probe + ?Sized>(&mut self, probe: &P) -> Vec<StreamEvent> {
        let events = self.rim.session().probe(probe).finish();
        self.absorb(&events, probe);
        events
    }

    /// Runs one IMU batch through the filter: propagate each sample,
    /// apply stance corrections, and emit a single fused estimate
    /// stamped with the batch's last timestamp.
    fn ingest_imu<P: Probe + ?Sized>(
        &mut self,
        samples: &[ImuSample],
        probe: &P,
    ) -> Vec<StreamEvent> {
        probe.count(
            stage::FUSION,
            fusion_metric::IMU_SAMPLES,
            samples.len() as u64,
        );
        let Some(last) = samples.last() else {
            return Vec::new();
        };
        for s in samples {
            self.step_imu(s, probe);
        }
        self.mode = self.current_mode();
        let event = StreamEvent::Fused {
            t_us: last.t_us,
            position: self.eskf.position,
            heading: self.eskf.heading,
            velocity: self.eskf.velocity,
            covariance_trace: self.eskf.covariance_trace(),
            mode: self.mode,
        };
        vec![event]
    }

    /// Propagates one IMU sample and applies any stance-time
    /// corrections.
    fn step_imu<P: Probe + ?Sized>(&mut self, s: &ImuSample, probe: &P) {
        let dt = match self.last_imu_us {
            Some(prev) if s.t_us > prev => ((s.t_us - prev) as f64 / 1e6).min(MAX_IMU_DT_S),
            // First sample (or a non-monotone timestamp): seed the clock
            // without integrating.
            _ => 0.0,
        };
        self.last_imu_us = Some(s.t_us);
        self.now_us = s.t_us;

        let stance = self.zupt.push(s.accel_body.norm(), s.gyro_z);
        // Inertial stance detection cannot tell cruise from standstill —
        // constant-velocity motion is invisible to an accelerometer — and
        // a false stance clamps the filter into certainty that it is not
        // moving. While a RIM movement segment is open and the anchor is
        // fresh, RIM's channel-based movement detection outranks the
        // stance guess: suppress ZUPT, and let it re-arm when RIM agrees
        // the user stopped or the anchor is lost (blackout coasting —
        // ZUPT's actual job).
        self.stationary = stance && (!self.motion_open || self.coasting());
        self.eskf.propagate(s.accel_body.x, s.gyro_z, dt);

        if self.stationary {
            // Velocity is zero by observation; the gyro reading is pure
            // bias.
            let r_v = self.config.zupt_velocity_noise * self.config.zupt_velocity_noise;
            self.eskf.update_scalar(E_V, -self.eskf.velocity, r_v);
            if dt > 0.0 {
                let r_bg = self.config.gyro_noise * self.config.gyro_noise / dt;
                self.eskf
                    .update_scalar(E_BG, s.gyro_z - self.eskf.gyro_bias, r_bg);
            }
            self.zupt_count += 1;
            probe.count(stage::FUSION, fusion_metric::ZUPT_COUNT, 1);
        } else if self.coasting() {
            let dt_us = (dt * 1e6) as u64;
            self.coast_time_us += dt_us;
            probe.count(stage::FUSION, fusion_metric::COAST_TIME_US, dt_us);
        }

        if let Some(mag) = s.mag_orientation {
            if self.config.mag_heading_noise.is_finite() {
                let z = wrap_angle(mag - self.eskf.heading);
                let r = self.config.mag_heading_noise * self.config.mag_heading_noise;
                self.eskf.update_scalar(E_THETA, z, r);
            }
        }
    }

    /// Whether the stream currently lacks a usable RIM anchor: CSI is
    /// degraded or no confident RIM estimate has arrived within the
    /// coast timeout.
    fn coasting(&self) -> bool {
        if self.rim.degraded() {
            return true;
        }
        let timeout_us = (self.config.coast_timeout_s * 1e6) as u64;
        self.last_rim_us
            .is_none_or(|t| self.now_us.saturating_sub(t) > timeout_us)
    }

    /// The mode label for the next fused estimate.
    fn current_mode(&self) -> FusedMode {
        if self.stationary {
            FusedMode::Zupt
        } else if self.coasting() {
            FusedMode::ImuCoasting
        } else {
            FusedMode::RimAnchored
        }
    }

    /// Absorbs the inner stream's events as filter corrections.
    fn absorb<P: Probe + ?Sized>(&mut self, events: &[StreamEvent], probe: &P) {
        // A batch carrying an input-gap degradation is the stream closing
        // shop over a blackout: its segment/provisional figures measure
        // only up to where the samples stopped, while the filter's arc
        // kept growing through the outage on the IMU. Applying such a
        // measurement would snap the coasted distance (and velocity) back
        // to the pre-gap figure — with a covariance widened by the very
        // coast it is about to erase, the innovation gate cannot be
        // trusted to reject it. The measurements are not outliers, they
        // are stale; skip the corrections and keep the bookkeeping.
        let gap_split = events.iter().any(|e| {
            matches!(
                e,
                StreamEvent::Degraded {
                    reason: rim_core::DegradeReason::InputGap { .. },
                    ..
                }
            )
        });
        for event in events {
            match event {
                StreamEvent::MovementStarted { .. } => {
                    // When the stream degraded between the last stop and
                    // this restart, the stop was a gap split and the arc
                    // grown since it is motion the IMU coasted through a
                    // blackout — bank it, the way the fused position
                    // keeps it. After a clean stop the remainder is
                    // dwell drift plus RIM's detection latency, both of
                    // which the backdated restart re-measures: discard.
                    if self.degraded_since_stop {
                        self.closed_total += self.eskf.arc - self.arc_at_stop;
                    }
                    self.degraded_since_stop = false;
                    self.arc_at_stop = 0.0;
                    self.motion_open = true;
                    self.rim_arc_base = 0.0;
                    self.eskf.reset_arc();
                    self.theta_anchor = self.eskf.heading;
                    self.last_rim_us = Some(self.now_us);
                }
                StreamEvent::Provisional {
                    distance_so_far,
                    heading,
                    confidence,
                    ..
                } if self.motion_open && !gap_split => {
                    self.apply_rim(*distance_so_far, *heading, confidence, true, probe);
                }
                StreamEvent::Segment(seg) if self.motion_open => {
                    let cumulative = self.rim_arc_base + seg.distance_m;
                    if !gap_split {
                        self.apply_rim(
                            cumulative,
                            seg.heading_device,
                            &seg.confidence,
                            false,
                            probe,
                        );
                    }
                    self.rim_arc_base = cumulative;
                }
                StreamEvent::MovementStopped { .. } if self.motion_open => {
                    self.closed_total += self.eskf.arc;
                    self.arc_at_stop = self.eskf.arc;
                    self.motion_open = false;
                    self.rim_arc_base = 0.0;
                }
                StreamEvent::Degraded { .. } => {
                    self.degraded_since_stop = true;
                }
                _ => {}
            }
        }
    }

    /// Applies one RIM estimate — cumulative distance since the motion
    /// opened, plus an optional device-frame heading — as filter
    /// corrections, confidence-weighted. Provisionals (`gated`) must
    /// additionally pass the innovation gate; a motion's closing segment
    /// is RIM's authoritative figure and bypasses it — its trust is
    /// already encoded in the confidence-scaled R, and a filter that
    /// drifted (or was pinned by false stance on constant-velocity
    /// motion, where an accelerometer cannot tell cruise from standstill)
    /// must be pulled back to RIM, not allowed to veto it.
    fn apply_rim<P: Probe + ?Sized>(
        &mut self,
        cumulative_m: f64,
        heading_device: Option<f64>,
        confidence: &Confidence,
        gated: bool,
        probe: &P,
    ) {
        let score = confidence.score();
        if score < self.config.confidence_floor {
            probe.count(stage::FUSION, fusion_metric::LOW_CONFIDENCE_DROPPED, 1);
            return;
        }
        // A zero score with a zero floor accepts everything; keep the
        // noise scaling finite.
        let weight = score.max(1e-6);
        // A confident estimate proves the RIM anchor is alive whatever
        // the gate decides below — refresh the coast clock on contact,
        // not on acceptance, or a run of gate-rejected provisionals
        // would fake a blackout and re-arm ZUPT mid-motion.
        self.last_rim_us = Some(self.now_us);

        let z = cumulative_m - self.eskf.arc;
        probe.observe(stage::FUSION, fusion_metric::SPEED_INNOVATION, z);
        let sigma = self.config.rim_distance_noise / weight;
        let r = sigma * sigma;
        let gate = DISTANCE_GATE_SIGMA * (self.eskf.arc_variance() + r).sqrt()
            + DISTANCE_GATE_FLOOR_M.max(DISTANCE_GATE_FRAC * cumulative_m.abs());
        if (!gated || z.abs() <= gate) && self.eskf.update_scalar(super::eskf::E_ARC, z, r) {
            self.rim_updates += 1;
            probe.count(stage::FUSION, fusion_metric::RIM_UPDATES, 1);
        }

        if let Some(h) = heading_device {
            if self.config.rim_heading_noise.is_finite() {
                let z = wrap_angle(self.theta_anchor + h - self.eskf.heading);
                probe.observe(stage::FUSION, fusion_metric::HEADING_INNOVATION, z);
                let sigma = self.config.rim_heading_noise / weight;
                self.eskf.update_scalar(E_THETA, z, sigma * sigma);
            }
        }
    }
}

/// A builder-style handle for probed fused ingests, created by
/// [`FusedStream::session`]. Mirrors [`rim_core::StreamSession`]: attach
/// a probe and/or trace, then ingest any [`StreamInput`] shape.
#[derive(Debug)]
pub struct FusedSession<'s, P: Probe + ?Sized = NullProbe> {
    stream: &'s mut FusedStream,
    probe: &'s P,
    trace: Option<&'s mut ActiveTrace>,
}

impl<'s, P: Probe + ?Sized> FusedSession<'s, P> {
    /// Attaches an observability probe: the inner stream reports under
    /// its usual stages, and the fusion layer under
    /// [`rim_obs::stage::FUSION`].
    pub fn probe<Q: Probe + ?Sized>(self, probe: &'s Q) -> FusedSession<'s, Q> {
        FusedSession {
            stream: self.stream,
            probe,
            trace: self.trace,
        }
    }

    /// Attaches a per-request trace, forwarded to the inner stream for
    /// CSI input (IMU batches are not traced — they never touch the
    /// alignment pipeline).
    pub fn trace(self, trace: &'s mut ActiveTrace) -> FusedSession<'s, P> {
        FusedSession {
            stream: self.stream,
            probe: self.probe,
            trace: Some(trace),
        }
    }

    /// Ingests one unit of input — CSI or IMU — and returns any events
    /// it completes.
    ///
    /// # Errors
    /// The inner [`RimStream::ingest`] errors, verbatim.
    pub fn ingest(&mut self, input: impl Into<StreamInput>) -> Result<Vec<StreamEvent>, Error> {
        self.stream
            .ingest_internal(input.into(), self.probe, self.trace.as_deref_mut())
    }

    /// Flushes the open segment if any and returns its estimate.
    pub fn finish(&mut self) -> Vec<StreamEvent> {
        self.stream.finish_internal(self.probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_core::{RimConfig, StreamEventKind};
    use rim_dsp::geom::Vec2;

    fn imu_batch(t0_us: u64, n: usize, dt_us: u64, accel: Vec2, gyro: f64) -> Vec<ImuSample> {
        (0..n)
            .map(|i| ImuSample {
                t_us: t0_us + i as u64 * dt_us,
                accel_body: accel,
                gyro_z: gyro,
                mag_orientation: None,
            })
            .collect()
    }

    fn test_stream(fuser: &Fuser) -> FusedStream {
        let geometry = rim_array::ArrayGeometry::linear(3, 0.05);
        let rim = RimStream::new(geometry, RimConfig::for_sample_rate(100.0)).unwrap();
        fuser.stream(rim)
    }

    #[test]
    fn builder_rejects_invalid_fields_with_named_errors() {
        let err = Fuser::builder().zupt_window(1).build().unwrap_err();
        assert!(err.to_string().contains("zupt_window"), "{err}");
        let err = Fuser::builder().confidence_floor(1.0).build().unwrap_err();
        assert!(err.to_string().contains("confidence_floor"), "{err}");
        let err = Fuser::builder()
            .rim_heading_noise(-0.1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("rim_heading_noise"), "{err}");
        assert!(Fuser::builder().build().is_ok(), "defaults are valid");
        // INFINITY is the documented "disabled" value, not an error.
        assert!(Fuser::builder()
            .mag_heading_noise(f64::INFINITY)
            .build()
            .is_ok());
    }

    #[test]
    fn imu_batches_emit_one_fused_event_each() {
        let fuser = Fuser::builder().build().unwrap();
        let mut stream = test_stream(&fuser);
        let events = stream
            .ingest(imu_batch(0, 80, 10_000, Vec2::new(0.0, 0.0), 0.0))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), StreamEventKind::Fused);
        let StreamEvent::Fused { t_us, mode, .. } = events[0] else {
            panic!("fused event expected");
        };
        assert_eq!(t_us, 79 * 10_000);
        // A quiet IMU fills the stance window plus the sustain tail
        // (16 + 48 samples by default): ZUPT mode.
        assert_eq!(mode, FusedMode::Zupt);
        assert!(stream.zupt_count() > 0);
        // An empty batch is a no-op.
        assert!(stream.ingest(Vec::<ImuSample>::new()).unwrap().is_empty());
    }

    #[test]
    fn moving_without_rim_is_labelled_coasting_and_accumulates_time() {
        let fuser = Fuser::builder().build().unwrap();
        let mut stream = test_stream(&fuser);
        // Jittery forward accel keeps the stance detector off (constant
        // readings have zero deviation and would look like stance); no
        // CSI anywhere.
        let batch: Vec<ImuSample> = (0..100)
            .map(|i| ImuSample {
                t_us: i as u64 * 10_000,
                accel_body: Vec2::new(0.8 + 0.5 * (-1f64).powi(i), 0.0),
                gyro_z: 0.0,
                mag_orientation: None,
            })
            .collect();
        let events = stream.ingest(batch).unwrap();
        let StreamEvent::Fused { mode, velocity, .. } = events[0] else {
            panic!("fused event expected");
        };
        assert_eq!(mode, FusedMode::ImuCoasting);
        assert!(velocity > 0.5, "accel integrated: {velocity}");
        assert!(stream.coast_time_us() > 0);
        assert!(stream.position().x > 0.0, "the track moved forward");
    }

    #[test]
    fn covariance_trace_grows_while_coasting() {
        let fuser = Fuser::builder().build().unwrap();
        let mut stream = test_stream(&fuser);
        // Jittery accel keeps the stance detector off in both batches so
        // the filter genuinely coasts throughout.
        let jitter = |t0_us: u64, n: usize| -> Vec<ImuSample> {
            (0..n)
                .map(|i| ImuSample {
                    t_us: t0_us + i as u64 * 10_000,
                    accel_body: Vec2::new(0.5 + 0.4 * (-1f64).powi(i as i32), 0.1),
                    gyro_z: 0.02,
                    mag_orientation: None,
                })
                .collect()
        };
        let first = stream.ingest(jitter(0, 20)).unwrap();
        let later = stream.ingest(jitter(200_000, 200)).unwrap();
        let (
            StreamEvent::Fused {
                covariance_trace: a,
                ..
            },
            StreamEvent::Fused {
                covariance_trace: b,
                ..
            },
        ) = (&first[0], &later[0])
        else {
            panic!("fused events expected");
        };
        assert!(b > a, "uncertainty grows while coasting: {a} → {b}");
    }

    #[test]
    fn fused_stream_is_transparent_for_csi_only_input() {
        // Same dense CSI through a bare RimStream and a FusedStream:
        // identical events (modulo the absence of any Fused estimates,
        // since no IMU was ingested).
        let geometry = rim_array::ArrayGeometry::linear(3, 0.05);
        let config = RimConfig::for_sample_rate(100.0);
        let mut bare = RimStream::new(geometry.clone(), config.clone()).unwrap();
        let fuser = Fuser::builder().build().unwrap();
        let mut fused = fuser.stream(RimStream::new(geometry, config).unwrap());

        let n_ant = 3;
        let snaps = |seed: usize| -> Vec<rim_csi::frame::CsiSnapshot> {
            (0..n_ant)
                .map(|a| rim_csi::frame::CsiSnapshot {
                    per_tx: vec![(0..16)
                        .map(|k| {
                            let x = (seed * 31 + a * 7 + k) as f64;
                            rim_dsp::complex::Complex64::new((x * 0.37).sin(), (x * 0.61).cos())
                        })
                        .collect()],
                })
                .collect()
        };
        for i in 0..120 {
            let a = bare.ingest(snaps(i)).unwrap();
            let b = fused.ingest(snaps(i)).unwrap();
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "sample {i}");
        }
        assert_eq!(
            format!("{:?}", bare.finish()),
            format!("{:?}", fused.finish())
        );
    }
}
