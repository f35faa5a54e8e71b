//! Streaming (real-time) RIM pipeline with bounded memory and gap
//! tolerance.
//!
//! The paper's prototype includes a real-time C++ system (§5, §6.3.3);
//! this module is its counterpart: CSI snapshots are *pushed* sample by
//! sample, a ring buffer holds just enough history for the alignment
//! window and the virtual-massive average, and motion estimates are
//! emitted with bounded latency as soon as each movement segment (or
//! partial segment) can be resolved. Memory is `O(ring capacity)` no
//! matter how long the device runs.
//!
//! Real captures are not clean (§7 concedes loss is only tolerable "to a
//! certain extent by interpolation"): packets are lost, duplicated, and
//! reordered by two unsynchronised NICs. The stream therefore ingests
//! *sequence-numbered, possibly-incomplete* samples through a
//! [`GapFilter`]: short gaps (up to 100 ms of samples) are bridged by
//! linear interpolation with the same arithmetic as
//! [`rim_dsp::interp::fill_gaps_complex`], long gaps split the open
//! segment instead of silently integrating garbage, and duplicates /
//! stale reorders are dropped idempotently. A watchdog monitors input
//! continuity and alignment quality and emits
//! [`StreamEvent::Degraded`] / [`StreamEvent::Recovered`] transitions so
//! downstream fusion can down-weight bad stretches.
//!
//! Latency/accuracy trade-off: segments are flushed either when movement
//! stops or when the open segment reaches `max_open_segment` samples, in
//! which case it is analyzed in place and the tail re-examined later
//! chunks continue seamlessly (the Δd compensation is applied only once
//! per physical movement).

use crate::error::Error;
use crate::incremental::{ColumnCache, ProvisionalTracker};
use crate::movement::LaggedTerms;
use crate::pipeline::{Confidence, MotionEstimate, Rim, RimConfig, SegmentEstimate, SegmentInput};
use crate::trrs::NormSnapshot;
use rim_array::ArrayGeometry;
use rim_csi::frame::CsiSnapshot;
use rim_csi::sync::SyncedSample;
use rim_dsp::geom::{Point2, Vec2};
use rim_obs::{
    fusion_metric, incremental_metric, stage, stream_metric, ActiveTrace, NullProbe, Probe,
    SpanKind,
};
use std::collections::VecDeque;
use std::time::Instant;

/// An incremental update emitted by the stream.
///
/// Sample indices (`at`) are on the stream's absolute time axis: index 0
/// is the first delivered sample, and lost stretches advance the axis by
/// their sequence-number span so estimates never span a gap unknowingly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum StreamEvent {
    /// Movement started at the given absolute sample index.
    MovementStarted {
        /// Absolute sample index.
        at: usize,
    },
    /// A resolved stretch of motion (one segment or a bounded chunk of an
    /// ongoing one).
    Segment(SegmentEstimate),
    /// A provisional mid-motion estimate from the incremental engine,
    /// emitted every [`RimConfig::provisional_every`] ingested samples
    /// while a movement segment is open. Provisional values are
    /// approximate by design (no gap bridging, translation-only); the
    /// final [`StreamEvent::Segment`] for the motion supersedes every
    /// provisional and stays bit-identical to the batch analysis.
    Provisional {
        /// Absolute sample index the estimate was computed at.
        at: usize,
        /// Distance travelled since the motion opened, metres. Monotone
        /// non-decreasing across one motion's provisionals.
        distance_so_far: f64,
        /// Dominant device-frame heading so far, if resolvable.
        heading: Option<f64>,
        /// Confidence over the samples tracked so far.
        confidence: Confidence,
    },
    /// Movement stopped at the given absolute sample index.
    MovementStopped {
        /// Absolute sample index.
        at: usize,
    },
    /// Input or alignment quality fell below the watchdog's thresholds
    /// (see [`DegradeReason`]); estimates may be missing or low-confidence
    /// until the matching [`StreamEvent::Recovered`].
    Degraded {
        /// Absolute sample index of the transition.
        at: usize,
        /// What tripped the watchdog.
        reason: DegradeReason,
    },
    /// Every active degradation cause has cleared.
    Recovered {
        /// Absolute sample index of the transition.
        at: usize,
    },
    /// A fused RIM×IMU state estimate from a fusion layer wrapping the
    /// stream (see `rim-tracking`'s `FusedStream`). Emitted once per
    /// ingested IMU batch, including during CSI gaps and blackouts —
    /// the event that keeps position flowing when
    /// [`StreamEvent::Degraded`] is active.
    Fused {
        /// IMU timestamp of the estimate, microseconds.
        t_us: u64,
        /// Fused position, metres.
        position: Point2,
        /// Fused device heading, radians.
        heading: f64,
        /// Fused forward speed, m/s.
        velocity: f64,
        /// Trace of the error-state covariance — a scalar uncertainty
        /// summary that grows while coasting and shrinks on RIM/ZUPT
        /// corrections.
        covariance_trace: f64,
        /// Which information source currently dominates the estimate.
        mode: FusedMode,
    },
}

/// Which information source dominates a [`StreamEvent::Fused`] estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedMode {
    /// RIM corrections are flowing: IMU drift is actively bounded.
    RimAnchored,
    /// Moving with no recent usable RIM correction (CSI gap, blackout,
    /// or low confidence): the estimate is IMU dead reckoning and its
    /// covariance grows.
    ImuCoasting,
    /// The ZUPT detector reports a stationary device: velocity is
    /// clamped and the gyro bias is being re-estimated.
    Zupt,
}

/// The discriminant of a [`StreamEvent`], decoupled from each variant's
/// payload. `StreamEvent` is `#[non_exhaustive]` and grows variants over
/// time (`Degraded`, `Provisional`, `Fused`, …); match on the kind — or
/// on the event with a wildcard arm — instead of enumerating payloads,
/// and use [`StreamEventKind::wire_tag`] as the one registry of wire
/// discriminants (documented in DESIGN.md) so serialisers cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StreamEventKind {
    /// [`StreamEvent::MovementStarted`].
    MovementStarted,
    /// [`StreamEvent::Segment`].
    Segment,
    /// [`StreamEvent::MovementStopped`].
    MovementStopped,
    /// [`StreamEvent::Degraded`].
    Degraded,
    /// [`StreamEvent::Recovered`].
    Recovered,
    /// [`StreamEvent::Provisional`].
    Provisional,
    /// [`StreamEvent::Fused`].
    Fused,
}

impl StreamEventKind {
    /// The stable wire discriminant for this kind. Tags are append-only:
    /// a value, once assigned, is never reused or renumbered.
    pub const fn wire_tag(self) -> u8 {
        match self {
            Self::MovementStarted => 0,
            Self::Segment => 1,
            Self::MovementStopped => 2,
            Self::Degraded => 3,
            Self::Recovered => 4,
            Self::Provisional => 5,
            Self::Fused => 6,
        }
    }

    /// Inverse of [`StreamEventKind::wire_tag`]; `None` for unassigned
    /// tags.
    pub const fn from_wire_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Self::MovementStarted),
            1 => Some(Self::Segment),
            2 => Some(Self::MovementStopped),
            3 => Some(Self::Degraded),
            4 => Some(Self::Recovered),
            5 => Some(Self::Provisional),
            6 => Some(Self::Fused),
            _ => None,
        }
    }

    /// Human-readable kind name (for logs and reports).
    pub const fn name(self) -> &'static str {
        match self {
            Self::MovementStarted => "movement_started",
            Self::Segment => "segment",
            Self::MovementStopped => "movement_stopped",
            Self::Degraded => "degraded",
            Self::Recovered => "recovered",
            Self::Provisional => "provisional",
            Self::Fused => "fused",
        }
    }
}

impl StreamEvent {
    /// This event's discriminant (see [`StreamEventKind`]).
    pub fn kind(&self) -> StreamEventKind {
        match self {
            Self::MovementStarted { .. } => StreamEventKind::MovementStarted,
            Self::Segment(_) => StreamEventKind::Segment,
            Self::MovementStopped { .. } => StreamEventKind::MovementStopped,
            Self::Degraded { .. } => StreamEventKind::Degraded,
            Self::Recovered { .. } => StreamEventKind::Recovered,
            Self::Provisional { .. } => StreamEventKind::Provisional,
            Self::Fused { .. } => StreamEventKind::Fused,
        }
    }
}

/// Why the stream entered degraded mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradeReason {
    /// A run of `lost` consecutive samples exceeded the gap tolerance
    /// (100 ms of samples); the open segment was split and the lost
    /// stretch skipped.
    InputGap {
        /// Consecutive samples lost.
        lost: u64,
    },
    /// The interpolated fraction of the one-second watchdog window
    /// reached 35 %.
    HighInterpolation {
        /// Interpolated fraction at the transition.
        fraction: f64,
    },
    /// The last flushed segment resolved alignment on less than 20 % of
    /// its samples.
    LowAlignment {
        /// Alignment-coverage ratio of the offending segment.
        coverage: f64,
    },
}

/// One repaired sample leaving the [`GapFilter`]: a full set of
/// per-antenna snapshots plus whether any part of it was synthesised.
#[derive(Debug, Clone)]
pub struct GapSample {
    /// Sequence number this sample occupies.
    pub seq: u64,
    /// One snapshot per antenna, holes already repaired.
    pub snapshots: Vec<CsiSnapshot>,
    /// True when any snapshot was interpolated or held rather than
    /// measured.
    pub interpolated: bool,
}

/// What the [`GapFilter`] decided about one offered sample.
#[derive(Debug, Clone)]
pub enum GapOutcome {
    /// In-order (or bridged) samples ready to analyze, oldest first. A
    /// bridged gap delivers the synthesised samples followed by the
    /// offered one.
    Deliver(Vec<GapSample>),
    /// The gap before the offered sample exceeded `max_gap`: the lost
    /// stretch is unrecoverable, restart analysis at `resume`.
    Split {
        /// Consecutive samples lost.
        lost: u64,
        /// The offered sample, repaired, to restart from.
        resume: GapSample,
    },
    /// Nothing usable: the sample was dropped.
    Dropped(DropReason),
}

/// Why an offered sample was dropped rather than delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Sequence number of the most recently delivered sample — a
    /// duplicate delivery.
    Duplicate,
    /// Sequence number older than that — an out-of-order packet that
    /// arrived after its position was already bridged or skipped.
    Stale,
    /// No antenna carried data, or the stream has no history yet to
    /// repair a partial first sample from.
    Incomplete,
}

/// Sequence-number bookkeeping in front of the ring: detects missing,
/// duplicate, and out-of-order samples, repairs per-antenna holes by
/// holding the last measured value, and bridges whole-sample gaps of at
/// most `max_gap` by linear interpolation (bit-identical to
/// [`rim_dsp::interp::fill_gaps_complex`] on the same data).
#[derive(Debug)]
pub struct GapFilter {
    n_antennas: usize,
    max_gap: usize,
    /// Next expected sequence number; `None` until the epoch starts.
    next_seq: Option<u64>,
    /// Last delivered (repaired) sample — the left interpolation anchor.
    last: Vec<CsiSnapshot>,
}

impl GapFilter {
    /// A filter for `n_antennas`-wide samples bridging gaps of at most
    /// `max_gap` samples.
    pub fn new(n_antennas: usize, max_gap: usize) -> Self {
        Self {
            n_antennas,
            max_gap,
            next_seq: None,
            last: Vec::new(),
        }
    }

    /// The next sequence number the filter expects (0 before the first
    /// delivery).
    pub fn next_expected(&self) -> u64 {
        self.next_seq.unwrap_or(0)
    }

    /// Offers one sequence-numbered sample; `None` entries are antennas
    /// whose snapshot was lost.
    ///
    /// # Panics
    /// When `antennas.len()` differs from the count fixed at
    /// construction.
    pub fn offer(&mut self, seq: u64, antennas: &[Option<CsiSnapshot>]) -> GapOutcome {
        self.offer_owned(seq, antennas.to_vec())
    }

    /// The zero-copy fast path for dense in-order capture: the sample is
    /// implicitly the next expected sequence number with every antenna
    /// measured, so the snapshots are moved straight into the delivered
    /// [`GapSample`] and the interpolation anchor is refreshed in place —
    /// no per-sample snapshot allocation once the shapes stabilise.
    ///
    /// # Panics
    /// When `snapshots.len()` differs from the count fixed at
    /// construction.
    pub fn offer_dense(&mut self, snapshots: Vec<CsiSnapshot>) -> GapOutcome {
        assert_eq!(
            snapshots.len(),
            self.n_antennas,
            "antenna count is fixed at construction"
        );
        let seq = self.next_expected();
        if self.last.len() == snapshots.len() {
            for (anchor, snap) in self.last.iter_mut().zip(&snapshots) {
                copy_snapshot_into(anchor, snap);
            }
        } else {
            self.last.clone_from(&snapshots);
        }
        self.next_seq = Some(seq + 1);
        GapOutcome::Deliver(vec![GapSample {
            seq,
            snapshots,
            interpolated: false,
        }])
    }

    /// [`GapFilter::offer`] taking ownership: measured snapshots are
    /// moved into the outcome rather than cloned; only hole repairs
    /// (which synthesise a value from history) still copy.
    ///
    /// # Panics
    /// When `antennas.len()` differs from the count fixed at
    /// construction.
    pub fn offer_owned(&mut self, seq: u64, antennas: Vec<Option<CsiSnapshot>>) -> GapOutcome {
        assert_eq!(
            antennas.len(),
            self.n_antennas,
            "antenna count is fixed at construction"
        );
        if antennas.iter().all(Option::is_none) {
            // A fully-lost sample carries no information beyond what its
            // absence from the sequence numbering already says.
            return GapOutcome::Dropped(DropReason::Incomplete);
        }
        let expected = match self.next_seq {
            None => {
                // Epoch start: require a fully-measured sample so later
                // repairs have a real anchor.
                if antennas.iter().any(Option::is_none) {
                    return GapOutcome::Dropped(DropReason::Incomplete);
                }
                let snapshots: Vec<CsiSnapshot> = antennas.into_iter().flatten().collect();
                self.last.clone_from(&snapshots);
                self.next_seq = Some(seq + 1);
                return GapOutcome::Deliver(vec![GapSample {
                    seq,
                    snapshots,
                    interpolated: false,
                }]);
            }
            Some(e) => e,
        };
        if seq < expected {
            return GapOutcome::Dropped(if seq + 1 == expected {
                DropReason::Duplicate
            } else {
                DropReason::Stale
            });
        }
        // Repair per-antenna holes by holding the last delivered value;
        // measured snapshots move, they are not cloned.
        let mut interpolated = false;
        let snapshots: Vec<CsiSnapshot> = antennas
            .into_iter()
            .enumerate()
            .map(|(a, s)| match s {
                Some(s) => s,
                None => {
                    interpolated = true;
                    self.last[a].clone()
                }
            })
            .collect();
        let gap = (seq - expected) as usize;
        let outcome = if gap == 0 {
            GapOutcome::Deliver(vec![GapSample {
                seq,
                snapshots: self.refresh_anchor(snapshots),
                interpolated,
            }])
        } else if gap <= self.max_gap {
            // Bridge: interpolate the missing samples between the last
            // delivered one (at `expected - 1`) and the offered one with
            // the batch repair's exact arithmetic.
            let span = (gap + 1) as f64;
            let mut out = Vec::with_capacity(gap + 1);
            for step in 0..gap {
                let t = (step + 1) as f64 / span;
                let bridged = self
                    .last
                    .iter()
                    .zip(&snapshots)
                    .map(|(l, r)| lerp_snapshot(l, r, t))
                    .collect();
                out.push(GapSample {
                    seq: expected + step as u64,
                    snapshots: bridged,
                    interpolated: true,
                });
            }
            out.push(GapSample {
                seq,
                snapshots: self.refresh_anchor(snapshots),
                interpolated,
            });
            GapOutcome::Deliver(out)
        } else {
            GapOutcome::Split {
                lost: gap as u64,
                resume: GapSample {
                    seq,
                    snapshots: self.refresh_anchor(snapshots),
                    interpolated,
                },
            }
        };
        self.next_seq = Some(seq + 1);
        outcome
    }

    /// Copies the delivered snapshots into the interpolation anchor
    /// (reusing its allocations) and passes them back through.
    fn refresh_anchor(&mut self, snapshots: Vec<CsiSnapshot>) -> Vec<CsiSnapshot> {
        if self.last.len() == snapshots.len() {
            for (anchor, snap) in self.last.iter_mut().zip(&snapshots) {
                copy_snapshot_into(anchor, snap);
            }
        } else {
            self.last.clone_from(&snapshots);
        }
        snapshots
    }
}

/// Copies `src` into `dst` reusing `dst`'s buffers: per-TX subcarrier
/// vectors are cleared and refilled rather than reallocated, so a steady
/// stream of same-shape samples causes no heap churn here.
fn copy_snapshot_into(dst: &mut CsiSnapshot, src: &CsiSnapshot) {
    dst.per_tx.resize(src.per_tx.len(), Vec::new());
    for (d, s) in dst.per_tx.iter_mut().zip(&src.per_tx) {
        d.clear();
        d.extend_from_slice(s);
    }
}

/// Component-wise linear interpolation between two snapshots, using the
/// same expression as [`rim_dsp::interp::fill_gaps_complex`] so streamed
/// repairs are bit-identical to batch repairs of the same gap.
fn lerp_snapshot(l: &CsiSnapshot, r: &CsiSnapshot, t: f64) -> CsiSnapshot {
    CsiSnapshot {
        per_tx: l
            .per_tx
            .iter()
            .zip(&r.per_tx)
            .map(|(lc, rc)| {
                lc.iter()
                    .zip(rc)
                    .map(|(&lv, &rv)| lv + (rv - lv).scale(t))
                    .collect()
            })
            .collect(),
    }
}

/// Longest run of entirely missing samples the stream bridges by linear
/// interpolation: 100 ms of loss, at least 2 samples (§5/§7: loss is
/// tolerated "to a certain extent by interpolation"). A longer gap closes
/// the open segment and restarts alignment after it.
fn max_gap(sample_rate_hz: f64) -> usize {
    ((0.1 * sample_rate_hz).round() as usize).max(2)
}

/// The watchdog enters degraded mode when the interpolated fraction of
/// its window reaches this value…
const DEGRADED_ENTER: f64 = 0.35;
/// …and leaves it once the fraction falls back to this one (hysteresis,
/// so the state does not oscillate).
const DEGRADED_EXIT: f64 = 0.15;
/// Minimum alignment-coverage ratio ([`Confidence::alignment_coverage`])
/// a flushed segment needs before the watchdog flags alignment quality
/// as degraded.
const MIN_COVERAGE: f64 = 0.2;

/// Degraded-mode watchdog: tracks input continuity (interpolated
/// fraction over a one-second sliding window, forced splits) and
/// alignment quality (the last segment's coverage) with enter/exit
/// hysteresis, and turns state changes into [`StreamEvent::Degraded`] /
/// [`StreamEvent::Recovered`] transitions.
#[derive(Debug)]
struct Watchdog {
    /// Sliding-window length, samples.
    window: usize,
    /// Interpolation flags of the newest `window` samples.
    recent: VecDeque<bool>,
    interp_in_window: usize,
    /// Input-continuity degradation cause (interpolation or splits).
    input_bad: bool,
    /// Alignment-quality degradation cause (low segment coverage).
    alignment_bad: bool,
    /// Index of the most recent forced split; holds input degradation
    /// for a full window afterwards.
    last_split: Option<usize>,
    /// Cumulative delivered samples observed while degraded.
    degraded_samples: u64,
}

impl Watchdog {
    fn new(sample_rate_hz: f64) -> Self {
        let window = (sample_rate_hz.round() as usize).max(8);
        Self {
            window,
            recent: VecDeque::with_capacity(window + 1),
            interp_in_window: 0,
            input_bad: false,
            alignment_bad: false,
            last_split: None,
            degraded_samples: 0,
        }
    }

    fn degraded(&self) -> bool {
        self.input_bad || self.alignment_bad
    }

    /// Interpolated fraction of the current window.
    fn fraction(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.interp_in_window as f64 / self.recent.len() as f64
        }
    }

    /// Records one delivered sample; returns the transition event this
    /// sample caused, if any.
    fn on_sample(&mut self, interpolated: bool, at: usize) -> Option<StreamEvent> {
        let was = self.degraded();
        self.recent.push_back(interpolated);
        if interpolated {
            self.interp_in_window += 1;
        }
        if self.recent.len() > self.window && self.recent.pop_front() == Some(true) {
            self.interp_in_window -= 1;
        }
        let fraction = self.fraction();
        let mut reason = None;
        // The fraction is only meaningful over a full window: a couple of
        // lost packets among the first few samples is not degradation
        // (catastrophic early loss still degrades via the split path).
        let window_full = self.recent.len() >= self.window;
        if !self.input_bad && window_full && fraction >= DEGRADED_ENTER {
            self.input_bad = true;
            reason = Some(DegradeReason::HighInterpolation { fraction });
        } else if self.input_bad && fraction <= DEGRADED_EXIT {
            // A recent split keeps input degraded for a full window even
            // though the (restarted) window looks healthy.
            let held = self
                .last_split
                .is_some_and(|s| at.saturating_sub(s) < self.window);
            if !held {
                self.input_bad = false;
            }
        }
        if self.degraded() {
            self.degraded_samples += 1;
        }
        self.transition(was, at, reason)
    }

    /// Records a forced split at `at` that skipped `lost` samples.
    fn on_split(&mut self, at: usize, lost: u64) -> Option<StreamEvent> {
        let was = self.degraded();
        self.last_split = Some(at);
        self.input_bad = true;
        // The ring restarts after the gap; stale window contents would
        // dilute the post-gap fraction.
        self.recent.clear();
        self.interp_in_window = 0;
        self.transition(was, at, Some(DegradeReason::InputGap { lost }))
    }

    /// Records a flushed segment's alignment-coverage ratio.
    fn on_segment(&mut self, coverage: f64, at: usize) -> Option<StreamEvent> {
        let was = self.degraded();
        self.alignment_bad = coverage < MIN_COVERAGE;
        self.transition(was, at, Some(DegradeReason::LowAlignment { coverage }))
    }

    fn transition(
        &self,
        was: bool,
        at: usize,
        reason: Option<DegradeReason>,
    ) -> Option<StreamEvent> {
        match (was, self.degraded()) {
            (false, true) => Some(StreamEvent::Degraded {
                at,
                reason: reason.unwrap_or(DegradeReason::HighInterpolation {
                    fraction: self.fraction(),
                }),
            }),
            (true, false) => Some(StreamEvent::Recovered { at }),
            _ => None,
        }
    }
}

/// One unit of streaming input, accepted by [`RimStream::ingest`] and
/// [`StreamSession::ingest`].
///
/// The three variants correspond to the three acquisition front-ends:
/// dense in-order capture, lossy sequence-numbered capture, and the
/// output of the cross-NIC synchronizer. Conversions exist from the
/// natural argument shapes so call sites stay terse:
///
/// ```no_run
/// # fn run(stream: &mut rim_core::RimStream,
/// #        snaps: Vec<rim_csi::frame::CsiSnapshot>,
/// #        holes: Vec<Option<rim_csi::frame::CsiSnapshot>>,
/// #        sample: &rim_csi::sync::SyncedSample)
/// #     -> Result<(), rim_core::Error> {
/// stream.ingest(&snaps[..])?;        // dense, implicitly next in sequence
/// stream.ingest((7, &holes[..]))?;   // sequence-numbered with loss
/// stream.ingest(sample)?;            // synchronizer output
/// # Ok(()) }
/// ```
#[derive(Debug, Clone)]
pub enum StreamInput {
    /// A dense, in-order sample: one snapshot per antenna, implicitly
    /// the next in sequence with nothing lost.
    Dense(Vec<CsiSnapshot>),
    /// A sequence-numbered sample with per-antenna loss (`None` = that
    /// antenna's snapshot was lost); the gap-tolerant entry point.
    Sequenced {
        /// Broadcast sequence number.
        seq: u64,
        /// Per-antenna snapshot or `None` on loss.
        antennas: Vec<Option<CsiSnapshot>>,
    },
    /// A synchronizer output sample (see [`rim_csi::sync::synchronize`]).
    Synced(SyncedSample),
    /// A batch of inertial samples. A bare [`RimStream`] is CSI-only and
    /// counts-then-drops these (see [`RimStream::ingest`]); wrap the
    /// stream in `rim-tracking`'s `FusedStream` to fuse them into
    /// [`StreamEvent::Fused`] estimates.
    Imu(Vec<ImuSample>),
}

/// One inertial sample flowing through [`StreamInput::Imu`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Timestamp, microseconds, on the IMU's own clock. Must be
    /// monotone within and across batches of one stream.
    pub t_us: u64,
    /// Body-frame specific acceleration, m/s² (x = device forward axis).
    pub accel_body: Vec2,
    /// Angular rate about z, rad/s.
    pub gyro_z: f64,
    /// Magnetometer heading estimate, radians, when the device has one.
    pub mag_orientation: Option<f64>,
}

impl From<Vec<ImuSample>> for StreamInput {
    fn from(samples: Vec<ImuSample>) -> Self {
        StreamInput::Imu(samples)
    }
}

impl From<&[ImuSample]> for StreamInput {
    fn from(samples: &[ImuSample]) -> Self {
        StreamInput::Imu(samples.to_vec())
    }
}

impl From<&[CsiSnapshot]> for StreamInput {
    fn from(snapshots: &[CsiSnapshot]) -> Self {
        StreamInput::Dense(snapshots.to_vec())
    }
}

impl From<Vec<CsiSnapshot>> for StreamInput {
    fn from(snapshots: Vec<CsiSnapshot>) -> Self {
        StreamInput::Dense(snapshots)
    }
}

impl From<(u64, &[Option<CsiSnapshot>])> for StreamInput {
    fn from((seq, antennas): (u64, &[Option<CsiSnapshot>])) -> Self {
        StreamInput::Sequenced {
            seq,
            antennas: antennas.to_vec(),
        }
    }
}

impl From<(u64, Vec<Option<CsiSnapshot>>)> for StreamInput {
    fn from((seq, antennas): (u64, Vec<Option<CsiSnapshot>>)) -> Self {
        StreamInput::Sequenced { seq, antennas }
    }
}

impl From<&SyncedSample> for StreamInput {
    fn from(sample: &SyncedSample) -> Self {
        StreamInput::Synced(sample.clone())
    }
}

impl From<SyncedSample> for StreamInput {
    fn from(sample: SyncedSample) -> Self {
        StreamInput::Synced(sample)
    }
}

/// Push-based RIM engine with bounded memory.
#[derive(Debug)]
pub struct RimStream {
    rim: Rim,
    /// Sequence-number repair in front of the ring.
    gap_filter: GapFilter,
    /// Degraded-mode watchdog.
    watchdog: Watchdog,
    /// Ring of recent normalised snapshots per antenna.
    ring: Vec<VecDeque<NormSnapshot>>,
    /// Absolute index of the first sample currently in the ring.
    ring_base: usize,
    /// Absolute index one past the newest ingested sample. Lost
    /// stretches advance this by their span, so indices stay aligned
    /// with sequence numbers.
    pushed: usize,
    /// Sequence number of the first delivered sample (absolute index 0).
    first_seq: Option<u64>,
    /// Per-sample movement flags for the ring span (same base).
    moving: VecDeque<bool>,
    /// Per-antenna lagged self-TRRS terms behind the newest movement
    /// indicator.
    lagged: Vec<LaggedTerms>,
    /// Per-sample "was interpolated" flags for the ring span (same base).
    interp: VecDeque<bool>,
    /// Absolute start of the currently open moving segment.
    open_segment: Option<usize>,
    /// Whether the open segment has already been partially flushed (so
    /// later flushes must not re-apply the initial-motion compensation).
    segment_continued: bool,
    /// Online cross-TRRS columns, kept in lockstep with the ring (only
    /// when [`RimConfig::incremental`] is set).
    cache: Option<ColumnCache>,
    /// Provisional-estimate state for the open segment.
    tracker: Option<ProvisionalTracker>,
    /// Ring capacity.
    capacity: usize,
    /// Maximum open-segment length before a partial flush.
    max_open: usize,
    /// Sample rate, Hz.
    fs: f64,
    /// Subcarrier count of the first accepted snapshot. The TRRS kernels
    /// score snapshots on mismatched grids as zero similarity instead of
    /// failing (TX-count disagreement, by contrast, truncates gracefully
    /// and is only counted — see `TX_MISMATCH`), so a mid-stream grid
    /// change (56 ↔ 114 ↔ 242 subcarriers) would silently corrupt every
    /// estimate; the boundary pins the grid instead.
    grid: Option<usize>,
}

/// A builder-style handle for probed streaming pushes, created by
/// [`RimStream::session`]. Mirrors [`crate::Session`] for the push-based
/// engine:
///
/// ```no_run
/// # fn run(stream: &mut rim_core::RimStream,
/// #        snaps: &[rim_csi::frame::CsiSnapshot])
/// #     -> Result<(), rim_core::Error> {
/// let recorder = rim_obs::Recorder::new();
/// let events = stream.session().probe(&recorder).ingest(snaps)?;
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct StreamSession<'s, P: Probe + ?Sized = NullProbe> {
    stream: &'s mut RimStream,
    probe: &'s P,
    trace: Option<&'s mut ActiveTrace>,
}

impl<'s, P: Probe + ?Sized> StreamSession<'s, P> {
    /// Attaches an observability probe: the streaming front-end reports
    /// ring occupancy, sample/segment/gap counters, and flush latency
    /// under [`stage::STREAM`]; the per-segment analyses it triggers
    /// report under the six pipeline stages.
    pub fn probe<Q: Probe + ?Sized>(self, probe: &'s Q) -> StreamSession<'s, Q> {
        StreamSession {
            stream: self.stream,
            probe,
            trace: self.trace,
        }
    }

    /// Attaches a per-request trace: the next [`StreamSession::ingest`]
    /// records an [`SpanKind::IncrementalIngest`] span covering the whole
    /// call, with a child [`SpanKind::Flush`] span for any segment flush
    /// it triggers. Tracing is purely observational — events are
    /// bit-identical with or without it.
    pub fn trace(self, trace: &'s mut ActiveTrace) -> StreamSession<'s, P> {
        StreamSession {
            stream: self.stream,
            probe: self.probe,
            trace: Some(trace),
        }
    }

    /// Ingests one unit of streaming input — dense, sequence-numbered,
    /// or synchronizer output (see [`StreamInput`]) — and returns any
    /// events it completes.
    ///
    /// # Errors
    /// [`Error::AntennaMismatch`] when the snapshot count differs from
    /// the geometry's antennas; [`Error::NonFiniteCsi`] when a present
    /// snapshot contains NaN or infinite values.
    pub fn ingest(&mut self, input: impl Into<StreamInput>) -> Result<Vec<StreamEvent>, Error> {
        self.stream
            .ingest_input(input.into(), self.probe, self.trace.as_deref_mut())
    }

    /// Flushes the open segment if any (e.g. at end of stream) and
    /// returns its estimate.
    pub fn finish(&mut self) -> Vec<StreamEvent> {
        self.stream.finish_internal(self.probe)
    }
}

impl RimStream {
    /// Creates a streaming engine for the configuration's sample rate
    /// ([`RimConfig::sample_rate_hz`]). The ring holds `4·(W + V)`
    /// samples plus the maximum open-segment length. The gap tolerance
    /// (100 ms) and the watchdog window (1 s) are sized from the rate.
    ///
    /// # Errors
    /// The same validation as [`Rim::new`]: [`Error::Config`] for
    /// out-of-range parameters, [`Error::Geometry`] for arrays with
    /// fewer than two antennas.
    pub fn new(geometry: ArrayGeometry, config: RimConfig) -> Result<Self, Error> {
        Ok(Self::with_engine(Rim::new(geometry, config)?))
    }

    /// Builds a streaming front-end around an existing engine, sharing
    /// its validated configuration and thread pool. This is how a
    /// multi-session server keeps N streams on one pool instead of N:
    /// [`Rim`] is cheap to clone (the pool is shared by `Arc`), so each
    /// session wraps a clone of one template engine.
    pub fn with_engine(rim: Rim) -> Self {
        let config = rim.config();
        let w = config.alignment.window;
        let v = config.alignment.virtual_antennas;
        let fs = config.sample_rate_hz;
        let max_open = (4.0 * fs) as usize; // flush at least every 4 s
        let capacity = max_open + 4 * (w + v) + 8;
        let n_ant = rim.geometry().n_antennas();
        let cache = config
            .incremental
            .then(|| ColumnCache::new(rim.geometry(), w, config.precision));
        Self {
            gap_filter: GapFilter::new(n_ant, max_gap(fs)),
            watchdog: Watchdog::new(fs),
            ring: (0..n_ant)
                .map(|_| VecDeque::with_capacity(capacity))
                .collect(),
            ring_base: 0,
            pushed: 0,
            first_seq: None,
            moving: VecDeque::with_capacity(capacity),
            lagged: Vec::new(),
            interp: VecDeque::with_capacity(capacity),
            open_segment: None,
            segment_continued: false,
            cache,
            tracker: None,
            capacity,
            max_open,
            fs,
            grid: None,
            rim,
        }
    }

    /// Starts an un-instrumented streaming session (see
    /// [`StreamSession`]).
    pub fn session(&mut self) -> StreamSession<'_, NullProbe> {
        StreamSession {
            stream: self,
            probe: &NullProbe,
            trace: None,
        }
    }

    /// Samples on the stream's absolute time axis so far: delivered
    /// samples plus any lost stretches skipped by splits.
    pub fn samples_pushed(&self) -> usize {
        self.pushed
    }

    /// Current ring occupancy (bounded by the configured capacity).
    pub fn ring_len(&self) -> usize {
        self.ring.first().map_or(0, VecDeque::len)
    }

    /// Whether the watchdog currently reports degraded operation.
    pub fn degraded(&self) -> bool {
        self.watchdog.degraded()
    }

    /// Cumulative stream time spent degraded, seconds.
    pub fn degraded_time_s(&self) -> f64 {
        self.watchdog.degraded_samples as f64 / self.fs
    }

    /// Ingests one unit of streaming input and returns any events it
    /// completes. This is the single entry point for all three input
    /// shapes (see [`StreamInput`]): dense in-order samples are treated
    /// as the next expected sequence number with every antenna present;
    /// sequence-numbered and synchronizer samples go through the
    /// gap-tolerant path, where missing sequence numbers are bridged
    /// (short gaps) or split around (long gaps), duplicates and stale
    /// reorders are dropped, and per-antenna holes are repaired from
    /// history. Shorthand for [`RimStream::session`] +
    /// [`StreamSession::ingest`].
    ///
    /// # Errors
    /// [`Error::AntennaMismatch`] when the snapshot count differs from
    /// the geometry's antennas; [`Error::NonFiniteCsi`] when a present
    /// snapshot contains NaN or infinite values.
    pub fn ingest(&mut self, input: impl Into<StreamInput>) -> Result<Vec<StreamEvent>, Error> {
        self.ingest_input(input.into(), &NullProbe, None)
    }

    /// The ingest body: dispatches one [`StreamInput`] to the shared
    /// push/offer internals.
    fn ingest_input<P: Probe + ?Sized>(
        &mut self,
        input: StreamInput,
        probe: &P,
        trace: Option<&mut ActiveTrace>,
    ) -> Result<Vec<StreamEvent>, Error> {
        match input {
            StreamInput::Dense(snapshots) => self.push_internal(snapshots, probe, trace),
            StreamInput::Sequenced { seq, antennas } => {
                self.offer_internal(seq, antennas, probe, trace)
            }
            StreamInput::Synced(sample) => {
                self.offer_internal(sample.seq, sample.antennas, probe, trace)
            }
            StreamInput::Imu(samples) => {
                // A bare RimStream is CSI-only: IMU batches are counted
                // and dropped so mixed feeds stay valid through one entry
                // point. rim-tracking's FusedStream intercepts this
                // variant before it reaches here.
                probe.count(
                    stage::FUSION,
                    fusion_metric::IMU_SAMPLES_DROPPED,
                    samples.len() as u64,
                );
                Ok(Vec::new())
            }
        }
    }

    /// The push body: a clean push is an offer of the next expected
    /// sequence number with every antenna present. The snapshots are
    /// moved, not cloned — dense ingest is the zero-copy hot path.
    fn push_internal<P: Probe + ?Sized>(
        &mut self,
        snapshots: Vec<CsiSnapshot>,
        probe: &P,
        mut trace: Option<&mut ActiveTrace>,
    ) -> Result<Vec<StreamEvent>, Error> {
        if snapshots.len() != self.ring.len() {
            return Err(Error::AntennaMismatch {
                expected: self.ring.len(),
                got: snapshots.len(),
            });
        }
        let seq = self.gap_filter.next_expected();
        for (a, snap) in snapshots.iter().enumerate() {
            if !snap.is_finite() {
                return Err(Error::NonFiniteCsi {
                    antenna: a,
                    sample: seq as usize,
                });
            }
            self.check_shape(a, seq, snap)?;
        }
        let t0 = probe.enabled().then(Instant::now);
        let ingest_span = trace
            .as_deref_mut()
            .map(|t| t.open(SpanKind::IncrementalIngest));
        let outcome = self.gap_filter.offer_dense(snapshots);
        let events = self.handle_outcome(outcome, probe, trace.as_deref_mut());
        if let (Some(t), Some(id)) = (trace, ingest_span) {
            t.close(id);
        }
        self.note_ingest_latency(t0, probe);
        Ok(events)
    }

    /// The offer body shared by every sequence-numbered entry point.
    fn offer_internal<P: Probe + ?Sized>(
        &mut self,
        seq: u64,
        antennas: Vec<Option<CsiSnapshot>>,
        probe: &P,
        mut trace: Option<&mut ActiveTrace>,
    ) -> Result<Vec<StreamEvent>, Error> {
        if antennas.len() != self.ring.len() {
            return Err(Error::AntennaMismatch {
                expected: self.ring.len(),
                got: antennas.len(),
            });
        }
        for (a, snap) in antennas.iter().enumerate() {
            if let Some(s) = snap.as_ref() {
                if !s.is_finite() {
                    return Err(Error::NonFiniteCsi {
                        antenna: a,
                        sample: seq as usize,
                    });
                }
                self.check_shape(a, seq, s)?;
            }
        }
        let t0 = probe.enabled().then(Instant::now);
        let ingest_span = trace
            .as_deref_mut()
            .map(|t| t.open(SpanKind::IncrementalIngest));
        let outcome = self.gap_filter.offer_owned(seq, antennas);
        let events = self.handle_outcome(outcome, probe, trace.as_deref_mut());
        if let (Some(t), Some(id)) = (trace, ingest_span) {
            t.close(id);
        }
        self.note_ingest_latency(t0, probe);
        Ok(events)
    }

    /// Pins the stream's subcarrier grid to the first accepted snapshot
    /// and rejects later snapshots that disagree (see the `grid` field).
    fn check_shape(&mut self, antenna: usize, seq: u64, snap: &CsiSnapshot) -> Result<(), Error> {
        let sc = snap.n_subcarriers();
        if snap.per_tx.iter().any(|cfr| cfr.len() != sc) {
            return Err(Error::Geometry(format!(
                "ragged CSI at antenna {antenna} seq {seq}: \
                 TX streams disagree on subcarrier count"
            )));
        }
        match self.grid {
            None => {
                self.grid = Some(sc);
                Ok(())
            }
            Some(esc) if esc != sc => Err(Error::Geometry(format!(
                "subcarrier grid changed mid-stream at antenna {antenna} seq {seq}: \
                 {sc} subcarriers vs {esc} at stream start"
            ))),
            Some(_) => Ok(()),
        }
    }

    /// Records one ingest's wall-clock latency on the incremental-stage
    /// histogram (microseconds).
    fn note_ingest_latency<P: Probe + ?Sized>(&self, t0: Option<Instant>, probe: &P) {
        if let Some(t0) = t0 {
            probe.observe(
                stage::INCREMENTAL,
                incremental_metric::INGEST_LATENCY_US,
                t0.elapsed().as_secs_f64() * 1e6,
            );
        }
    }

    /// Applies one [`GapFilter`] outcome to the stream state.
    fn handle_outcome<P: Probe + ?Sized>(
        &mut self,
        outcome: GapOutcome,
        probe: &P,
        mut trace: Option<&mut ActiveTrace>,
    ) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        match outcome {
            GapOutcome::Dropped(reason) => {
                let name = match reason {
                    DropReason::Duplicate => stream_metric::DUPLICATES,
                    DropReason::Stale => stream_metric::REORDERED,
                    DropReason::Incomplete => stream_metric::INCOMPLETE,
                };
                probe.count(stage::STREAM, name, 1);
            }
            GapOutcome::Deliver(samples) => {
                if samples.len() > 1 {
                    probe.count(stage::STREAM, stream_metric::GAPS, 1);
                    probe.count(
                        stage::STREAM,
                        stream_metric::INTERPOLATED,
                        (samples.len() - 1) as u64,
                    );
                }
                for sample in samples {
                    self.ingest_sample(sample, probe, &mut events, trace.as_deref_mut());
                }
            }
            GapOutcome::Split { lost, resume } => {
                probe.count(stage::STREAM, stream_metric::GAPS, 1);
                probe.count(stage::STREAM, stream_metric::SPLITS, 1);
                let gap_at = self.pushed;
                // Close the open segment at the edge of the gap rather
                // than integrating across unseen motion.
                if let Some(start) = self.open_segment.take() {
                    self.flush_and_note(start, gap_at, probe, &mut events, trace.as_deref_mut());
                    events.push(StreamEvent::MovementStopped { at: gap_at });
                }
                self.tracker = None;
                if let Some(ev) = self.watchdog.on_split(gap_at, lost) {
                    Self::count_transition(&ev, probe);
                    events.push(ev);
                }
                // Fast-forward past the lost stretch: absolute indices
                // track sequence numbers, so the resumed sample keeps its
                // place on the time axis. A resume seq from before the
                // epoch cannot be placed on the axis — drop it as stale
                // rather than rebasing onto an underflowed index.
                if let Some(resume_idx) = self.abs_index(resume.seq) {
                    for ring in &mut self.ring {
                        ring.clear();
                    }
                    self.moving.clear();
                    self.lagged.iter_mut().for_each(LaggedTerms::clear);
                    self.interp.clear();
                    self.ring_base = resume_idx;
                    self.pushed = resume_idx;
                    if let Some(cache) = self.cache.as_mut() {
                        cache.clear(resume_idx);
                    }
                    self.ingest_sample(resume, probe, &mut events, trace);
                } else {
                    probe.count(stage::STREAM, stream_metric::REORDERED, 1);
                }
            }
        }
        probe.gauge(
            stage::STREAM,
            stream_metric::INTERPOLATED_FRACTION,
            self.watchdog.fraction(),
        );
        probe.gauge(
            stage::STREAM,
            stream_metric::DEGRADED_TIME_S,
            self.degraded_time_s(),
        );
        events
    }

    /// Absolute sample index of a sequence number (index 0 = first
    /// delivered sample), or `None` for a sequence number from before the
    /// epoch — a stale leftover that must not underflow the time axis.
    fn abs_index(&mut self, seq: u64) -> Option<usize> {
        let first = *self.first_seq.get_or_insert(seq);
        seq.checked_sub(first).map(|d| d as usize)
    }

    /// Counts a watchdog transition event on the probe.
    fn count_transition<P: Probe + ?Sized>(event: &StreamEvent, probe: &P) {
        match event {
            StreamEvent::Degraded { .. } => {
                probe.count(stage::STREAM, stream_metric::DEGRADED_EVENTS, 1);
            }
            StreamEvent::Recovered { .. } => {
                probe.count(stage::STREAM, stream_metric::RECOVERED_EVENTS, 1);
            }
            _ => {}
        }
    }

    /// Ingests one delivered (repaired) sample into the ring and runs
    /// the incremental segmentation state machine on it.
    fn ingest_sample<P: Probe + ?Sized>(
        &mut self,
        sample: GapSample,
        probe: &P,
        events: &mut Vec<StreamEvent>,
        mut trace: Option<&mut ActiveTrace>,
    ) {
        let Some(newest) = self.abs_index(sample.seq) else {
            // Pre-epoch sequence number: placing it would underflow the
            // absolute time axis. Drop it like any other stale reorder.
            probe.count(stage::STREAM, stream_metric::REORDERED, 1);
            return;
        };
        debug_assert_eq!(newest, self.pushed, "delivered samples are contiguous");
        let tx0 = sample.snapshots.first().map_or(0, |s| s.per_tx.len());
        if sample.snapshots.iter().any(|s| s.per_tx.len() != tx0) {
            // Antennas disagree on the TX count: `trrs_avg` will truncate
            // to the common prefix (see its truncation contract).
            probe.count(stage::STREAM, stream_metric::TX_MISMATCH, 1);
        }
        for (ring, snap) in self.ring.iter_mut().zip(&sample.snapshots) {
            ring.push_back(NormSnapshot::from_snapshot(snap));
        }
        if let Some(cache) = self.cache.as_mut() {
            let built = cache.on_sample(&self.ring, self.ring_base);
            if built > 0 {
                probe.count(stage::INCREMENTAL, incremental_metric::COLUMNS_BUILT, built);
            }
        }
        self.interp.push_back(sample.interpolated);
        self.pushed = newest + 1;

        // Incremental movement detection: min self-TRRS across antennas
        // at the newest sample.
        let mcfg = self.rim.config().movement;
        let flag = self.instant_movement();
        self.moving.push_back(flag);

        match (self.open_segment, flag) {
            (None, true) => {
                // Debounce opening: a lone moving flag (noise flicker while
                // static) must not start a segment. Require a short run of
                // consecutive moving samples, then backdate the start to
                // cover the confirmation wait plus the indicator lag.
                let confirm = ((0.05 * self.fs) as usize).max(2);
                let tail_moving = self.moving.len() >= confirm
                    && self.moving.iter().rev().take(confirm).all(|&m| m);
                if tail_moving {
                    let start = (newest + 1 - confirm)
                        .saturating_sub(mcfg.lag)
                        .max(self.ring_base);
                    self.open_segment = Some(start);
                    self.segment_continued = false;
                    events.push(StreamEvent::MovementStarted { at: start });
                    if self.rim.config().provisional_every > 0 {
                        if let Some(cache) = self.cache.as_ref() {
                            self.tracker = Some(ProvisionalTracker::new(
                                self.rim.geometry(),
                                self.rim.config(),
                                cache,
                                start,
                            ));
                        }
                    }
                }
            }
            (Some(start), false) => {
                // Require a debounce of consecutive static samples before
                // closing (cheap: check the tail of the flags).
                let quiet = (0.2 * self.fs) as usize;
                let tail_static = self.moving.iter().rev().take(quiet).all(|&m| !m);
                if tail_static && self.moving.len() >= quiet {
                    self.flush_and_note(
                        start,
                        newest + 1 - quiet.min(newest),
                        probe,
                        events,
                        trace.as_deref_mut(),
                    );
                    events.push(StreamEvent::MovementStopped { at: newest });
                    self.open_segment = None;
                    self.tracker = None;
                }
            }
            (Some(start), true) => {
                // Partial flush of very long movements to bound memory.
                if newest - start >= self.max_open {
                    let flushed = self
                        .flush_and_note(start, newest + 1, probe, events, trace)
                        .unwrap_or(0.0);
                    self.open_segment = Some(newest + 1);
                    self.segment_continued = true;
                    if let Some(tracker) = self.tracker.as_mut() {
                        tracker.on_partial_flush(flushed, newest + 1);
                    }
                }
            }
            (None, false) => {}
        }

        if self.open_segment.is_some() {
            if let (Some(tracker), Some(cache)) = (self.tracker.as_mut(), self.cache.as_ref()) {
                if let Some(p) = tracker.on_sample(cache, newest) {
                    let mut confidence = p.confidence;
                    // The tracker cannot see which samples were
                    // synthesised; patch the fraction from the stream's
                    // own bookkeeping, like the segment flush does.
                    let start = self.open_segment.unwrap_or(newest);
                    let s_rel = start.saturating_sub(self.ring_base);
                    let span = (newest + 1).saturating_sub(self.ring_base + s_rel);
                    if span > 0 {
                        let synth = self
                            .interp
                            .iter()
                            .skip(s_rel)
                            .take(span)
                            .filter(|&&b| b)
                            .count();
                        confidence.interpolated_fraction = synth as f64 / span as f64;
                    }
                    probe.count(stage::INCREMENTAL, incremental_metric::PROVISIONALS, 1);
                    events.push(StreamEvent::Provisional {
                        at: newest,
                        distance_so_far: p.distance_so_far,
                        heading: p.heading,
                        confidence,
                    });
                }
            }
        }

        if let Some(ev) = self.watchdog.on_sample(sample.interpolated, newest) {
            Self::count_transition(&ev, probe);
            events.push(ev);
        }

        self.trim_ring();
        probe.count(stage::STREAM, "samples_pushed", 1);
        probe.gauge(stage::STREAM, "ring_occupancy", self.ring_len() as f64);
        probe.gauge(stage::STREAM, "ring_capacity", self.capacity as f64);
    }

    /// Flushes the open segment if any (e.g. at end of stream) and
    /// returns its estimate. Shorthand for [`RimStream::session`] +
    /// [`StreamSession::finish`].
    pub fn finish(&mut self) -> Vec<StreamEvent> {
        self.finish_internal(&NullProbe)
    }

    /// The finish body shared by the public entry points.
    fn finish_internal<P: Probe + ?Sized>(&mut self, probe: &P) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        if let Some(start) = self.open_segment.take() {
            self.flush_and_note(start, self.pushed, probe, &mut events, None);
            events.push(StreamEvent::MovementStopped { at: self.pushed });
            self.tracker = None;
        }
        events
    }

    /// Movement flag for the newest ring sample: the minimum across
    /// antennas of the indicator at that sample, against the threshold.
    /// Each antenna adds one lagged self-TRRS term per sample.
    fn instant_movement(&mut self) -> bool {
        let mcfg = self.rim.config().movement;
        if self.lagged.is_empty() {
            self.lagged
                .resize_with(self.ring.len(), LaggedTerms::default);
        }
        let mut min_ind = f64::INFINITY;
        for (terms, ring) in self.lagged.iter_mut().zip(&self.ring) {
            match terms.advance(ring, self.ring_base, mcfg) {
                Some(v) => min_ind = min_ind.min(v),
                None => return false,
            }
        }
        min_ind < mcfg.threshold
    }

    /// Flushes `[start, end)`, emits the segment event, and feeds the
    /// segment's alignment coverage to the watchdog. Returns the flushed
    /// distance (metres) when a segment resolved.
    fn flush_and_note<P: Probe + ?Sized>(
        &mut self,
        start: usize,
        end: usize,
        probe: &P,
        events: &mut Vec<StreamEvent>,
        trace: Option<&mut ActiveTrace>,
    ) -> Option<f64> {
        if let Some(seg) = self.flush_segment(start, end, probe, trace) {
            let coverage = seg.confidence.alignment_coverage;
            let at = seg.end;
            let distance = seg.distance_m;
            events.push(StreamEvent::Segment(seg));
            if let Some(ev) = self.watchdog.on_segment(coverage, at) {
                Self::count_transition(&ev, probe);
                events.push(ev);
            }
            Some(distance)
        } else {
            None
        }
    }

    /// Analyzes absolute range `[start, end)` and returns its segment
    /// estimate (if the stretch was resolvable).
    fn flush_segment<P: Probe + ?Sized>(
        &mut self,
        start: usize,
        end: usize,
        probe: &P,
        mut trace: Option<&mut ActiveTrace>,
    ) -> Option<SegmentEstimate> {
        if end <= start {
            return None;
        }
        // Flush latency: everything from ring materialisation through the
        // per-segment pipeline run. The trace span nests under the
        // enclosing ingest span; if the flush bails out early, the parent
        // span's close sweeps it up.
        let _span = probe.span(stage::STREAM);
        let flush_span = trace.as_deref_mut().map(|t| t.open(SpanKind::Flush));
        // Lend the ring as contiguous slices — no snapshot is cloned;
        // `make_contiguous` only rotates the deque's backing storage.
        for ring in &mut self.ring {
            ring.make_contiguous();
        }
        let series: Vec<&[NormSnapshot]> = self.ring.iter().map(|r| r.as_slices().0).collect();
        let s_rel = start.checked_sub(self.ring_base)?;
        let e_rel = (end - self.ring_base).min(series[0].len());
        if e_rel <= s_rel {
            return None;
        }
        // Reuse the incrementally built columns: the cache is indexed on
        // the same ring-relative axis as the materialised series, and
        // materialisation re-masks every entry against the series bounds,
        // so the analysis is bit-identical to recomputing from scratch.
        let input = SegmentInput {
            series,
            columns: self.cache.as_ref(),
        };
        let mut result =
            self.rim
                .analyze_segment(&input, self.fs, s_rel, e_rel, self.rim.pool(), probe);
        if self.segment_continued {
            // A continuation chunk: remove the per-segment Δd compensation
            // that analyze_segment applied (the motion did not restart).
            let sep = self
                .rim
                .geometry()
                .pairs()
                .iter()
                .map(|p| p.separation)
                .fold(f64::INFINITY, f64::min);
            if sep.is_finite() && result.summary.distance_m >= sep {
                result.summary.distance_m -= sep;
            }
        }
        // The batch pipeline cannot see which ring samples were
        // synthesised; patch the confidence from the stream's own
        // bookkeeping.
        let span_len = e_rel - s_rel;
        let synth = self
            .interp
            .iter()
            .skip(s_rel)
            .take(span_len)
            .filter(|&&b| b)
            .count();
        result.summary.confidence.interpolated_fraction = synth as f64 / span_len as f64;
        // Re-anchor to absolute sample indices.
        result.summary.start = start;
        result.summary.end = end;
        probe.count(stage::STREAM, "segments_flushed", 1);
        if let (Some(t), Some(id)) = (trace, flush_span) {
            t.close(id);
        }
        Some(result.summary)
    }

    /// Drops ring history that no open segment can still need.
    fn trim_ring(&mut self) {
        let keep_from = match self.open_segment {
            Some(start) => start.saturating_sub(
                2 * (self.rim.config().alignment.window
                    + self.rim.config().alignment.virtual_antennas),
            ),
            None => self.pushed.saturating_sub(
                2 * (self.rim.config().alignment.window
                    + self.rim.config().alignment.virtual_antennas)
                    + 4,
            ),
        };
        while self.ring_base < keep_from && self.ring_len() > 1 {
            for ring in &mut self.ring {
                ring.pop_front();
            }
            self.moving.pop_front();
            self.interp.pop_front();
            self.ring_base += 1;
        }
        // Hard cap: never exceed capacity.
        while self.ring_len() > self.capacity {
            for ring in &mut self.ring {
                ring.pop_front();
            }
            self.moving.pop_front();
            self.interp.pop_front();
            self.ring_base += 1;
        }
        if let Some(cache) = self.cache.as_mut() {
            cache.trim_to(self.ring_base);
        }
    }
}

/// Aggregates streamed segments into totals comparable with the offline
/// [`MotionEstimate`], plus a tally of watchdog transitions.
#[derive(Debug, Clone, Default)]
pub struct StreamAggregate {
    /// Segments seen so far.
    pub segments: Vec<SegmentEstimate>,
    /// [`StreamEvent::Degraded`] transitions seen.
    pub degraded: usize,
    /// [`StreamEvent::Recovered`] transitions seen.
    pub recovered: usize,
}

impl StreamAggregate {
    /// Consumes events.
    pub fn absorb(&mut self, events: &[StreamEvent]) {
        for e in events {
            match e {
                StreamEvent::Segment(s) => self.segments.push(s.clone()),
                StreamEvent::Degraded { .. } => self.degraded += 1,
                StreamEvent::Recovered { .. } => self.recovered += 1,
                _ => {}
            }
        }
    }

    /// Total travelled distance.
    pub fn total_distance(&self) -> f64 {
        self.segments.iter().map(|s| s.distance_m).sum()
    }

    /// Net rotation, radians.
    pub fn total_rotation(&self) -> f64 {
        self.segments.iter().map(|s| s.rotation_rad).sum()
    }

    /// Mean confidence score across segments (1.0 when no segments were
    /// emitted: nothing was claimed, so nothing is in doubt).
    pub fn mean_confidence(&self) -> f64 {
        if self.segments.is_empty() {
            return 1.0;
        }
        self.segments
            .iter()
            .map(|s| s.confidence.score())
            .sum::<f64>()
            / self.segments.len() as f64
    }

    /// Compares against an offline estimate (used in tests).
    pub fn distance_gap(&self, offline: &MotionEstimate) -> f64 {
        (self.total_distance() - offline.total_distance()).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movement::MovementConfig;
    use crate::pipeline::Precision;
    use rim_array::HALF_WAVELENGTH;
    use rim_channel::simulator::{ApConfig, ChannelSimulator};
    use rim_channel::trajectory::{dwell, line, OrientationMode};
    use rim_channel::{uniform_field, Floorplan, RayTracer, SubcarrierLayout, TracerConfig};
    use rim_csi::recorder::{CsiRecorder, DeviceConfig, RecorderConfig};
    use rim_dsp::complex::Complex64;
    use rim_dsp::geom::Point2;
    use rim_dsp::interp::fill_gaps_complex;

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

    /// A one-TX snapshot with distinct subcarrier values derived from
    /// `base`, for exact-value assertions.
    fn probe_snap(base: f64) -> CsiSnapshot {
        CsiSnapshot {
            per_tx: vec![(0..4)
                .map(|s| Complex64::new(base + s as f64, base * 0.5 - s as f64))
                .collect()],
        }
    }

    #[test]
    fn gap_filter_bridges_short_gaps_like_batch_interp() {
        let mut filter = GapFilter::new(1, 3);
        let a = probe_snap(1.0);
        let b = probe_snap(5.0);
        assert!(matches!(
            filter.offer(0, &[Some(a.clone())]),
            GapOutcome::Deliver(ref v) if v.len() == 1 && !v[0].interpolated
        ));
        // Seqs 1 and 2 are lost; offering 3 bridges the gap.
        let out = filter.offer(3, &[Some(b.clone())]);
        let GapOutcome::Deliver(samples) = out else {
            panic!("expected delivery, got {out:?}");
        };
        assert_eq!(samples.len(), 3);
        assert_eq!(
            samples.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(samples[0].interpolated && samples[1].interpolated);
        assert!(!samples[2].interpolated);
        // Bit-identical to the batch repair of the same gap, per
        // subcarrier.
        for sc in 0..4 {
            let lane = [Some(a.per_tx[0][sc]), None, None, Some(b.per_tx[0][sc])];
            let filled = fill_gaps_complex(&lane).unwrap();
            assert_eq!(samples[0].snapshots[0].per_tx[0][sc], filled[1]);
            assert_eq!(samples[1].snapshots[0].per_tx[0][sc], filled[2]);
        }
    }

    #[test]
    fn gap_filter_drops_duplicates_and_stale_reorders() {
        let mut filter = GapFilter::new(1, 3);
        let s = probe_snap(2.0);
        filter.offer(0, &[Some(s.clone())]);
        filter.offer(1, &[Some(s.clone())]);
        assert!(matches!(
            filter.offer(1, &[Some(s.clone())]),
            GapOutcome::Dropped(DropReason::Duplicate)
        ));
        assert!(matches!(
            filter.offer(0, &[Some(s.clone())]),
            GapOutcome::Dropped(DropReason::Stale)
        ));
        assert_eq!(filter.next_expected(), 2, "drops do not advance");
        // Delivery resumes exactly where it left off.
        assert!(matches!(
            filter.offer(2, &[Some(s)]),
            GapOutcome::Deliver(ref v) if v.len() == 1
        ));
    }

    #[test]
    fn gap_filter_splits_on_long_gap_and_holds_antenna_holes() {
        let mut filter = GapFilter::new(2, 2);
        let a = probe_snap(1.0);
        let b = probe_snap(9.0);
        filter.offer(0, &[Some(a.clone()), Some(a.clone())]);
        // Gap of 4 > max_gap 2: split, not interpolation.
        let out = filter.offer(5, &[Some(b.clone()), None]);
        let GapOutcome::Split { lost, resume } = out else {
            panic!("expected split, got {out:?}");
        };
        assert_eq!(lost, 4);
        assert_eq!(resume.seq, 5);
        assert!(resume.interpolated, "held antenna flags the sample");
        assert_eq!(resume.snapshots[0], b, "measured antenna kept");
        assert_eq!(resume.snapshots[1], a, "lost antenna held from history");
        // The split re-anchors: the next in-order sample delivers.
        assert!(matches!(
            filter.offer(6, &[Some(b.clone()), Some(b)]),
            GapOutcome::Deliver(ref v) if v.len() == 1
        ));
    }

    #[test]
    fn gap_filter_needs_complete_first_sample() {
        let mut filter = GapFilter::new(2, 2);
        let s = probe_snap(1.0);
        assert!(matches!(
            filter.offer(0, &[Some(s.clone()), None]),
            GapOutcome::Dropped(DropReason::Incomplete)
        ));
        assert!(matches!(
            filter.offer(0, &[None, None]),
            GapOutcome::Dropped(DropReason::Incomplete)
        ));
        assert!(matches!(
            filter.offer(1, &[Some(s.clone()), Some(s)]),
            GapOutcome::Deliver(_)
        ));
    }

    #[test]
    fn offer_rejects_non_finite_snapshots() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let mut bad = probe_snap(1.0);
        bad.per_tx[0][2] = Complex64::new(f64::NAN, 0.0);
        let offer = vec![Some(probe_snap(0.0)), Some(bad), Some(probe_snap(2.0))];
        let err = stream.ingest((7, offer)).unwrap_err();
        assert_eq!(
            err,
            Error::NonFiniteCsi {
                antenna: 1,
                sample: 7
            }
        );
        // The rejected sample left no trace.
        assert_eq!(stream.samples_pushed(), 0);
    }

    #[test]
    fn mid_stream_grid_change_is_rejected_as_geometry_error() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        stream
            .ingest(vec![probe_snap(0.0), probe_snap(1.0), probe_snap(2.0)])
            .unwrap();
        // A snapshot on a different subcarrier grid would score zero
        // TRRS against everything already in the ring — reject it.
        let mut narrow = probe_snap(3.0);
        narrow.per_tx[0].pop();
        let err = stream
            .ingest(vec![probe_snap(3.0), narrow, probe_snap(5.0)])
            .unwrap_err();
        assert!(matches!(err, Error::Geometry(_)), "{err:?}");
        assert!(err.to_string().contains("grid changed mid-stream"), "{err}");
        // Consistent snapshots keep flowing afterwards.
        stream
            .ingest(vec![probe_snap(3.0), probe_snap(4.0), probe_snap(5.0)])
            .unwrap();
        assert_eq!(stream.samples_pushed(), 2);
    }

    #[test]
    fn stream_matches_offline_on_simple_move() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut traj = dwell(Point2::new(0.0, 2.0), 0.0, 0.4, fs);
        traj.extend(&line(
            Point2::new(0.0, 2.0),
            0.0,
            1.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        ));
        traj.extend(&dwell(Point2::new(1.0, 2.0), 0.0, 0.5, fs));
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();

        // Offline reference.
        let offline = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&dense)
            .unwrap();

        // Streamed.
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(fs)).unwrap();
        let mut agg = StreamAggregate::default();
        let mut started = 0;
        let mut stopped = 0;
        for i in 0..dense.n_samples() {
            let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
            let events = stream.ingest(snaps).unwrap();
            for e in &events {
                match e {
                    StreamEvent::MovementStarted { .. } => started += 1,
                    StreamEvent::MovementStopped { .. } => stopped += 1,
                    _ => {}
                }
            }
            agg.absorb(&events);
        }
        agg.absorb(&stream.finish());

        assert_eq!(started, 1, "one movement start");
        assert!(stopped >= 1, "movement stop emitted");
        assert_eq!(agg.degraded, 0, "clean input never degrades");
        assert!(
            (agg.total_distance() - 1.0).abs() < 0.15,
            "streamed distance {:.3}",
            agg.total_distance()
        );
        assert!(
            agg.distance_gap(&offline) < 0.1,
            "stream vs offline gap {:.3}",
            agg.distance_gap(&offline)
        );
        // Clean segments carry usable confidence.
        for seg in &agg.segments {
            assert_eq!(seg.confidence.interpolated_fraction, 0.0);
            assert!(
                seg.confidence.alignment_coverage > 0.0,
                "coverage {:?}",
                seg.confidence
            );
        }
    }

    #[test]
    fn stream_memory_stays_bounded() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        // A long move (8 m) forces partial flushes.
        let traj = line(
            Point2::new(-4.0, 2.0),
            0.0,
            8.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        );
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(fs)).unwrap();
        let mut agg = StreamAggregate::default();
        let mut max_ring = 0usize;
        for i in 0..dense.n_samples() {
            let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
            agg.absorb(&stream.ingest(snaps).unwrap());
            max_ring = max_ring.max(stream.ring_len());
        }
        agg.absorb(&stream.finish());
        assert!(
            max_ring < dense.n_samples(),
            "ring ({max_ring}) stays below trace length ({})",
            dense.n_samples()
        );
        assert!(agg.segments.len() >= 2, "partial flushes happened");
        assert!(
            (agg.total_distance() - 8.0).abs() < 0.6,
            "streamed long distance {:.2}",
            agg.total_distance()
        );
    }

    #[test]
    fn static_stream_emits_nothing() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let traj = dwell(Point2::new(0.5, 1.5), 0.0, 1.0, fs);
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(fs)).unwrap();
        let mut events = Vec::new();
        for i in 0..dense.n_samples() {
            let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
            events.extend(stream.ingest(snaps).unwrap());
        }
        events.extend(stream.finish());
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn long_gap_splits_and_emits_degraded_then_recovered() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut traj = dwell(Point2::new(0.0, 2.0), 0.0, 0.4, fs);
        traj.extend(&line(
            Point2::new(0.0, 2.0),
            0.0,
            1.5,
            1.0,
            fs,
            OrientationMode::FollowPath,
        ));
        traj.extend(&dwell(Point2::new(1.5, 2.0), 0.0, 1.0, fs));
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();
        let cfg = RimConfig::for_sample_rate(fs);
        let max_gap = max_gap(cfg.sample_rate_hz);
        let mut stream = RimStream::new(geo, cfg).unwrap();
        let mut agg = StreamAggregate::default();
        let mut saw_input_gap = false;
        // Lose a stretch longer than max_gap mid-move: samples
        // [60, 60 + max_gap + 5) never arrive.
        let lost = 60..60 + max_gap + 5;
        for i in 0..dense.n_samples() {
            if lost.contains(&i) {
                continue;
            }
            let snaps: Vec<_> = dense.antennas.iter().map(|a| Some(a[i].clone())).collect();
            let events = stream.ingest((i as u64, snaps)).unwrap();
            for e in &events {
                if let StreamEvent::Degraded {
                    reason: DegradeReason::InputGap { lost: n },
                    ..
                } = e
                {
                    saw_input_gap = true;
                    assert_eq!(*n as usize, max_gap + 5);
                }
            }
            agg.absorb(&events);
        }
        agg.absorb(&stream.finish());
        assert!(saw_input_gap, "split reported as an input-gap degradation");
        assert!(agg.degraded >= 1, "degraded transition emitted");
        assert!(
            agg.recovered >= 1,
            "recovered after a healthy post-gap window (degraded {}, recovered {})",
            agg.degraded,
            agg.recovered
        );
        // The time axis still spans the whole recording.
        assert_eq!(stream.samples_pushed(), dense.n_samples());
    }

    #[test]
    fn short_gaps_are_bridged_without_degrading() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut traj = dwell(Point2::new(0.0, 2.0), 0.0, 0.4, fs);
        traj.extend(&line(
            Point2::new(0.0, 2.0),
            0.0,
            1.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        ));
        traj.extend(&dwell(Point2::new(1.0, 2.0), 0.0, 0.5, fs));
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(fs)).unwrap();
        let mut agg = StreamAggregate::default();
        // Drop every 24th sample: isolated single-sample gaps, far below
        // both max_gap and the watchdog's enter threshold.
        for i in 0..dense.n_samples() {
            if i % 24 == 23 {
                continue;
            }
            let snaps: Vec<_> = dense.antennas.iter().map(|a| Some(a[i].clone())).collect();
            agg.absorb(&stream.ingest((i as u64, snaps)).unwrap());
        }
        agg.absorb(&stream.finish());
        assert_eq!(agg.degraded, 0, "sparse loss must not degrade");
        assert!(
            (agg.total_distance() - 1.0).abs() < 0.2,
            "distance with sparse loss {:.3}",
            agg.total_distance()
        );
        let interp: Vec<f64> = agg
            .segments
            .iter()
            .map(|s| s.confidence.interpolated_fraction)
            .collect();
        assert!(
            interp.iter().any(|&f| f > 0.0),
            "interpolation is reflected in confidence: {interp:?}"
        );
    }

    #[test]
    fn ingest_accepts_every_input_shape() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let snaps = vec![probe_snap(0.0), probe_snap(1.0), probe_snap(2.0)];
        assert!(stream.ingest(snaps.clone()).unwrap().is_empty());
        let holes: Vec<_> = snaps.into_iter().map(Some).collect();
        assert!(stream.ingest((1u64, holes.clone())).unwrap().is_empty());
        let sample = SyncedSample {
            seq: 2,
            antennas: holes,
        };
        assert!(stream.ingest(sample).unwrap().is_empty());
        assert_eq!(stream.samples_pushed(), 3);
    }

    #[test]
    fn stale_seq_after_rebase_is_dropped_not_underflowed() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        // White-box: a rebased gap filter expecting a pre-epoch sequence
        // number. Before the guard, `(seq - first) as usize` underflowed.
        stream.first_seq = Some(1000);
        stream.gap_filter.next_seq = Some(10);
        stream.gap_filter.last = vec![probe_snap(0.0); 3];
        let snaps: Vec<_> = (0..3).map(|a| Some(probe_snap(a as f64))).collect();
        let recorder = rim_obs::Recorder::new();
        let events = stream
            .session()
            .probe(&recorder)
            .ingest((10u64, snaps))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(stream.samples_pushed(), 0, "stale sample left no trace");
        let report = recorder.report();
        let stream_stage = report.stage(stage::STREAM).expect("stream stage reported");
        assert!(
            stream_stage
                .counters
                .iter()
                .any(|(n, v)| n == stream_metric::REORDERED && *v >= 1),
            "stale drop counted: {:?}",
            stream_stage.counters
        );
    }

    #[test]
    fn tx_mismatch_within_a_sample_is_counted() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let mut two_tx = probe_snap(1.0);
        two_tx.per_tx.push(two_tx.per_tx[0].clone());
        let recorder = rim_obs::Recorder::new();
        stream
            .session()
            .probe(&recorder)
            .ingest(vec![probe_snap(0.0), two_tx, probe_snap(2.0)])
            .unwrap();
        stream
            .session()
            .probe(&recorder)
            .ingest(vec![probe_snap(3.0), probe_snap(4.0), probe_snap(5.0)])
            .unwrap();
        let report = recorder.report();
        let stream_stage = report.stage(stage::STREAM).expect("stream stage reported");
        let count = stream_stage
            .counters
            .iter()
            .find(|(n, _)| n == stream_metric::TX_MISMATCH)
            .map(|(_, v)| *v);
        assert_eq!(count, Some(1), "only the mismatched sample is counted");
    }

    #[test]
    fn provisionals_are_emitted_during_motion_and_monotone() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut traj = dwell(Point2::new(0.0, 2.0), 0.0, 0.4, fs);
        traj.extend(&line(
            Point2::new(0.0, 2.0),
            0.0,
            1.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        ));
        traj.extend(&dwell(Point2::new(1.0, 2.0), 0.0, 0.5, fs));
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();
        let mut cfg = RimConfig::for_sample_rate(fs);
        cfg.provisional_every = 10;
        let mut stream = RimStream::new(geo, cfg).unwrap();
        let mut provisional_distances = Vec::new();
        let mut before_close = 0usize;
        let mut segments = 0usize;
        for i in 0..dense.n_samples() {
            let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
            for e in stream.ingest(snaps).unwrap() {
                match e {
                    StreamEvent::Provisional {
                        distance_so_far,
                        confidence,
                        ..
                    } => {
                        assert!(distance_so_far.is_finite());
                        assert!(confidence.peak_margin >= 0.0);
                        provisional_distances.push(distance_so_far);
                        if segments == 0 {
                            before_close += 1;
                        }
                    }
                    StreamEvent::Segment(_) => segments += 1,
                    _ => {}
                }
            }
        }
        stream.finish();
        assert!(
            before_close >= 2,
            "provisionals arrive while the motion is open (got {before_close})"
        );
        for pair in provisional_distances.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "provisional distance went backwards: {provisional_distances:?}"
            );
        }
        let last = provisional_distances.last().copied().unwrap_or(0.0);
        assert!(
            last > 0.2,
            "provisionals track real motion, got {last:.3} m: {provisional_distances:?}"
        );
    }

    /// The indicator the stream used to evaluate per sample: the batch
    /// definition over a `lag + V + 1` tail of the ring `[base, t]`, last
    /// value, minimum across antennas; `None` while the ring holds no
    /// sample `lag` behind `t`.
    fn tail_window_indicator(
        norm: &[Vec<NormSnapshot>],
        base: usize,
        t: usize,
        mcfg: MovementConfig,
    ) -> Option<f64> {
        let len = t + 1 - base;
        if len <= mcfg.lag {
            return None;
        }
        let tail = (mcfg.lag + mcfg.virtual_antennas + 1).min(len);
        let last = tail - 1;
        let ind = norm
            .iter()
            .map(|series| {
                let slice = &series[t + 1 - tail..=t];
                crate::trrs::trrs_massive(
                    slice,
                    slice,
                    last,
                    last - mcfg.lag,
                    mcfg.virtual_antennas,
                )
            })
            .fold(f64::INFINITY, f64::min);
        Some(ind)
    }

    /// The one-term-per-sample movement indicator equals the old
    /// tail-window evaluation bit for bit, sample by sample: through ring
    /// trims while idle, the first `lag` samples of each epoch, and gap
    /// splits that clear the ring mid-motion and mid-dwell.
    #[test]
    fn lagged_indicator_matches_tail_window_evaluation_bitwise() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut traj = dwell(Point2::new(0.0, 2.0), 0.0, 0.6, fs);
        traj.extend(&line(
            Point2::new(0.0, 2.0),
            0.0,
            1.5,
            1.0,
            fs,
            OrientationMode::FollowPath,
        ));
        traj.extend(&dwell(Point2::new(1.5, 2.0), 0.0, 1.0, fs));
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();
        let cfg = RimConfig::for_sample_rate(fs);
        let mcfg = cfg.movement;
        let gap = max_gap(cfg.sample_rate_hz) + 3;
        // Splits mid-dwell, mid-motion and in the closing dwell.
        let lost = [30..30 + gap, 110..110 + gap, 200..200 + gap];
        let norm: Vec<Vec<NormSnapshot>> = dense
            .antennas
            .iter()
            .map(|a| a.iter().map(NormSnapshot::from_snapshot).collect())
            .collect();
        let mut stream = RimStream::new(geo, cfg).unwrap();
        let (mut splits, mut trimmed, mut moving, mut warming) = (0, 0, 0, 0);
        for i in 0..dense.n_samples() {
            if lost.iter().any(|r| r.contains(&i)) {
                continue;
            }
            // A split restarts the ring at the resumed sample.
            let base = if i == stream.samples_pushed() {
                stream.ring_base
            } else {
                splits += 1;
                i
            };
            if base > 0 && i == stream.samples_pushed() {
                trimmed += 1;
            }
            let snaps: Vec<_> = dense.antennas.iter().map(|a| Some(a[i].clone())).collect();
            stream.ingest((i as u64, snaps)).unwrap();
            let flag = *stream.moving.back().expect("flag pushed");
            match tail_window_indicator(&norm, base, i, mcfg) {
                None => {
                    warming += 1;
                    assert!(
                        !flag,
                        "sample {i}: no lagged partner yet, yet flagged moving"
                    );
                }
                Some(want) => {
                    let got = stream
                        .lagged
                        .iter()
                        .map(LaggedTerms::value)
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(got.to_bits(), want.to_bits(), "sample {i}: {got} vs {want}");
                    assert_eq!(flag, want < mcfg.threshold, "sample {i}");
                    moving += usize::from(flag);
                }
            }
        }
        assert_eq!(splits, lost.len(), "every lost stretch split the stream");
        assert!(trimmed > 0, "the idle ring was trimmed");
        assert!(
            moving > 20,
            "the walk was detected ({moving} moving samples)"
        );
        assert!(
            warming >= (1 + lost.len()) * mcfg.lag,
            "each epoch warmed up"
        );
    }

    /// The window mirror's footprint is fixed by the alignment window: an
    /// open segment held past `max_open` grows the snapshot ring, never
    /// the mirror — in both precisions.
    #[test]
    fn window_mirror_footprint_is_fixed_by_the_alignment_window() {
        let fs = 100.0;
        let sim = small_sim();
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let traj = line(
            Point2::new(-3.0, 2.0),
            0.0,
            6.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        );
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig::default(),
        )
        .record(&traj)
        .interpolated()
        .unwrap();
        let first = &dense.antennas[0][0];
        let rows = first.per_tx.len() * first.per_tx[0].len();
        for (precision, elem) in [
            (Precision::F64Reference, std::mem::size_of::<f64>()),
            (Precision::F32Fast, std::mem::size_of::<f32>()),
        ] {
            let cfg = RimConfig::for_sample_rate(fs).precision(precision);
            let w = cfg.alignment.window;
            let mut stream = RimStream::new(geo.clone(), cfg).unwrap();
            let (mut max_ring, mut partial) = (0usize, false);
            // Two planes of 2C + 1 slots per row, C = W + 1.
            let want = geo.n_antennas() * rows * 2 * (2 * (w + 1) + 1) * elem;
            for i in 0..dense.n_samples() {
                let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
                stream.ingest(snaps).unwrap();
                let bytes = stream.cache.as_ref().expect("incremental").mirror_bytes();
                assert_eq!(bytes, want, "{precision:?} sample {i}");
                max_ring = max_ring.max(stream.ring_len());
                partial |= stream.segment_continued;
            }
            assert!(partial, "{precision:?}: the open segment outlived max_open");
            assert!(
                max_ring >= stream.max_open,
                "{precision:?}: ring reached {max_ring} samples"
            );
        }
    }

    #[test]
    fn wrong_antenna_count_is_rejected() {
        let geo = rim_array::ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut stream = RimStream::new(geo, RimConfig::for_sample_rate(100.0)).unwrap();
        let err = stream.ingest(StreamInput::Dense(Vec::new())).unwrap_err();
        assert_eq!(
            err,
            Error::AntennaMismatch {
                expected: 3,
                got: 0
            }
        );
        // The stream stays usable after a rejected push.
        assert_eq!(stream.samples_pushed(), 0);
    }
}
