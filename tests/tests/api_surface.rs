//! Snapshot of the intended v2 public API surface.
//!
//! Every name below is imported explicitly (no globs), so removing or
//! renaming a re-export breaks this file at compile time — an API change
//! has to edit this snapshot, which makes it reviewable. Signature
//! drift on the central entry points is pinned with typed function
//! items; behavioural contracts live in the other integration tests.
//!
//! The v1 entry points deleted in the 0.5 sweep (`RimStream::push` /
//! `offer` / `offer_synced` and their `StreamSession` twins, the
//! `ingest_to_estimate_ms` serve-metric alias) are deliberately absent:
//! code goes through `ingest`, the session builder, and the µs metric.
//! `ServeConfig` construction goes through the validated
//! [`ServeConfig::builder`] — the struct's fields are private.

#![allow(unused_imports)]

// The engine and its session builder.
use rim_core::{Confidence, MotionEstimate, Rim, RimConfig, Session};
// Error taxonomy (one type, actionable messages).
use rim_core::Error;
// Segment output.
use rim_core::{SegmentEstimate, SegmentKind};
// Streaming front-end: one ingest entry point over four input shapes.
use rim_core::{
    DegradeReason, GapFilter, RimStream, StreamAggregate, StreamEvent, StreamInput, StreamSession,
};
// Multi-modal ingest v2: IMU input, the fused estimate's mode label, and
// the forward-compatible event discriminant (`StreamEvent` is
// `#[non_exhaustive]`; `kind()` is the match-free dispatch path).
use rim_core::{FusedMode, ImuSample, StreamEventKind};
// The RIM×IMU fusion engine: validated builder, streaming filter, and
// the probed session handle.
use rim_tracking::{FusedSession, FusedStream, Fuser, FuserBuilder, FusionConfig};
// IMU acquisition: simulated sensors plus the validated external-data
// constructor and its typed error.
use rim_sensors::{ImuConfig, ImuError, ImuRecording, SimulatedImu};
// Algorithm stages exposed for diagnostics and research use.
use rim_core::{alignment_matrix, AlignmentConfig, AlignmentMatrix};
use rim_core::{auto_threshold, detect_movement, movement_indicator, MovementConfig};
use rim_core::{track_peaks, DpConfig, TrackedPath};
use rim_core::{trrs_avg, trrs_cfr, trrs_cir, trrs_massive, trrs_norm, NormSnapshot};
// Precision modes: the f64 reference and the reduced-precision fast path,
// with its scalar reference and the precision-aware matrix entry point.
// One entry point per alignment stage: the base matrix over a column
// range at a precision, then the virtual-antenna box filter.
use rim_core::alignment::{base_cross_trrs_range_prec, virtual_average_with};
use rim_core::{trrs_norm_f32, Precision};
// The dependency-free SIMD kernel crate: dispatch-tier introspection.
use rim_simd::{active_tier, force_tier, Tier};

// The serving layer: manager, server, client, and the wire protocol.
use rim_serve::wire::{read_frame, write_frame, MAX_FRAME_LEN};
use rim_serve::wire::{Request, Response, WireError};
use rim_serve::{
    Admit, Client, RejectReason, ServeConfig, ServeConfigBuilder, Server, SessionManager,
};

use rim_array::ArrayGeometry;
use rim_csi::sync::SyncedSample;
// CSI phase sanitation: one typed rejection for non-finite or ragged CFRs.
use rim_csi::{sanitize_matched_delay, sanitize_snapshot, SanitizeError};
use rim_obs::{Probe, Recorder, RunReport};
// Observability v2: request tracing and windowed live telemetry.
use rim_obs::{
    ActiveTrace, SpanId, SpanKind, TraceId, TraceRecord, TraceSpan, Tracer, WindowSnapshot,
    WindowStageSnapshot, TRACE_RING_CAP, WINDOW_SCHEMA,
};

/// Central constructor/entry-point signatures, pinned as typed function
/// items: a parameter or return-type change fails to compile here.
#[test]
fn entry_point_signatures_are_stable() {
    let _rim_new: fn(ArrayGeometry, RimConfig) -> Result<Rim, Error> = Rim::new;
    let _stream_new: fn(ArrayGeometry, RimConfig) -> Result<RimStream, Error> = RimStream::new;
    let _stream_with_engine: fn(Rim) -> RimStream = RimStream::with_engine;
    let _manager_new: fn(ArrayGeometry, RimConfig, ServeConfig) -> Result<SessionManager, Error> =
        SessionManager::new;
    let _manager_ingest: fn(&SessionManager, u64, SyncedSample) -> Admit = SessionManager::ingest;
    let _manager_process: fn(&SessionManager) -> usize = SessionManager::process;
    let _manager_finish: fn(&SessionManager, u64) -> Vec<StreamEvent> = SessionManager::finish;
    let _manager_report: fn(&SessionManager) -> RunReport = SessionManager::report;
    let _client_finish: fn(&mut Client, u64) -> std::io::Result<Vec<StreamEvent>> = Client::finish;
    // Observability v2 surface: live telemetry and trace access.
    let _manager_metrics: fn(&SessionManager) -> String = SessionManager::metrics_text;
    let _manager_window: fn(&SessionManager) -> WindowSnapshot = SessionManager::window_snapshot;
    let _manager_traces: fn(&SessionManager, usize) -> Vec<TraceRecord> = SessionManager::traces;
    let _client_metrics: fn(&mut Client) -> std::io::Result<String> = Client::metrics;
    let _recorder_window: fn(&Recorder) -> WindowSnapshot = Recorder::window_snapshot;
    let _config_tracing: fn(RimConfig, usize) -> RimConfig = RimConfig::with_trace_sampling;
    let _config_precision: fn(RimConfig, Precision) -> RimConfig = RimConfig::precision;
    let _trrs_f32: fn(&NormSnapshot, &NormSnapshot) -> f64 = trrs_norm_f32;
    // The alignment stages `perfbench` drives directly.
    let _base_cross: BaseCrossFn = base_cross_trrs_range_prec;
    let _virtual_average: fn(&AlignmentMatrix, usize, &rim_par::Pool) -> AlignmentMatrix =
        virtual_average_with;
    let _average: fn(&[&AlignmentMatrix], &rim_par::Pool) -> AlignmentMatrix =
        AlignmentMatrix::average_with;
    let _track_peaks: fn(&AlignmentMatrix, DpConfig) -> TrackedPath = track_peaks;
    // Serve configuration v2: one validated builder path.
    let _serve_builder: fn() -> ServeConfigBuilder = ServeConfig::builder;
    let _serve_build: fn(ServeConfigBuilder) -> Result<ServeConfig, Error> =
        ServeConfigBuilder::build;
    let _budget: fn(&ServeConfig) -> u64 = ServeConfig::latency_budget_us;
    let _io_threads: fn(&ServeConfig) -> usize = ServeConfig::io_threads;
    // Fusion engine v1: validated builder in, streaming filter out.
    let _fuser_builder: fn() -> FuserBuilder = Fuser::builder;
    let _fuser_build: fn(FuserBuilder) -> Result<Fuser, Error> = FuserBuilder::build;
    let _fuser_config: fn(&Fuser) -> &FusionConfig = Fuser::config;
    let _fuser_stream: fn(&Fuser, RimStream) -> FusedStream = Fuser::stream;
    // Batch fusion rejects a misaligned gyro track with a typed error.
    let _fuser_fuse: FuseFn = Fuser::fuse;
    let _fuser_fuse_map: FuseWithMapFn = Fuser::fuse_with_map;
    let _fused_finish: fn(&mut FusedStream) -> Vec<StreamEvent> = FusedStream::finish;
    let _fused_position: fn(&FusedStream) -> rim_dsp::geom::Point2 = FusedStream::position;
    let _fused_total: fn(&FusedStream) -> f64 = FusedStream::total_distance;
    let _fused_mode: fn(&FusedStream) -> FusedMode = FusedStream::mode;
    // Multi-modal ingest v2: the event discriminant and the validated
    // IMU-recording constructor for external data.
    let _event_kind: fn(&StreamEvent) -> StreamEventKind = StreamEvent::kind;
    let _imu_validated: ImuValidatedFn = ImuRecording::validated;
    let _imu_len: fn(&ImuRecording) -> usize = ImuRecording::len;
    // The serve path carries IMU batches end to end.
    let _manager_with_fuser: fn(
        ArrayGeometry,
        RimConfig,
        ServeConfig,
        Fuser,
    ) -> Result<SessionManager, Error> = SessionManager::with_fuser;
    let _manager_imu: fn(&SessionManager, u64, Vec<ImuSample>) -> Admit =
        SessionManager::ingest_imu;
    let _client_imu: ClientImuFn = Client::ingest_imu;
    let _client_imu_blocking: ClientImuFn = Client::ingest_imu_blocking;
    // Phase sanitation: per-CFR in place, per-snapshot with rejection.
    let _sanitize_cfr: fn(&mut [rim_dsp::complex::Complex64], &[i32]) = sanitize_matched_delay;
    let _sanitize_snapshot: SanitizeSnapshotFn = sanitize_snapshot;
}

/// Pinned signatures too wide for an inline annotation; a parameter or
/// return-type change on the aliased entry points still fails to
/// compile here.
type ImuValidatedFn =
    fn(f64, Vec<rim_dsp::geom::Vec2>, Vec<f64>, Vec<f64>) -> Result<ImuRecording, ImuError>;
type ClientImuFn =
    fn(&mut Client, u64, Vec<ImuSample>) -> std::io::Result<(Admit, Vec<StreamEvent>)>;
type SanitizeSnapshotFn =
    fn(&mut [Vec<rim_dsp::complex::Complex64>], &[i32]) -> Result<(), SanitizeError>;
type BaseCrossFn = fn(
    &[NormSnapshot],
    &[NormSnapshot],
    usize,
    (usize, usize),
    &rim_par::Pool,
    Precision,
) -> AlignmentMatrix;
type FuseFn = fn(&Fuser, &MotionEstimate, &[f64]) -> Result<Vec<rim_dsp::geom::Point2>, Error>;
type FuseWithMapFn = fn(
    &Fuser,
    &MotionEstimate,
    &[f64],
    &rim_channel::floorplan::Floorplan,
    &rim_tracking::MapFusionConfig,
) -> Result<rim_tracking::FusedTrack, Error>;

/// `ingest` accepts all three input shapes through one entry point, on
/// both the bare stream and the probed session builder.
#[test]
fn ingest_accepts_all_stream_input_shapes() {
    let geometry = ArrayGeometry::linear(3, rim_array::HALF_WAVELENGTH);
    let config = RimConfig::for_sample_rate(100.0);
    let mut stream = RimStream::new(geometry, config).expect("valid config");
    let recorder = Recorder::new();

    // One snapshot per antenna = one dense sample.
    let dense: Vec<rim_csi::frame::CsiSnapshot> = (0..3)
        .map(|a| rim_csi::frame::CsiSnapshot {
            per_tx: vec![vec![
                rim_dsp::complex::Complex64::new(1.0 + a as f64, 0.0);
                8
            ]],
        })
        .collect();
    // Dense slices, sequenced holes, and synced samples all coerce.
    assert!(stream.ingest(dense.clone()).is_ok());
    assert!(stream.ingest((1u64, vec![None, None, None])).is_ok());
    assert!(stream
        .ingest(SyncedSample {
            seq: 2,
            antennas: vec![None, None, None],
        })
        .is_ok());
    assert!(stream
        .session()
        .probe(&recorder)
        .ingest(StreamInput::Dense(dense))
        .is_ok());
}

/// The admission contract is a three-way decision with typed payloads.
#[test]
fn admit_variants_carry_backpressure_payloads() {
    let decisions = [
        Admit::Accepted,
        Admit::Throttled { retry_after: 5 },
        Admit::Rejected {
            reason: RejectReason::SessionTableFull,
        },
        Admit::Rejected {
            reason: RejectReason::ShuttingDown,
        },
        Admit::Rejected {
            reason: RejectReason::Backpressure,
        },
    ];
    assert_eq!(
        decisions.iter().filter(|d| **d == Admit::Accepted).count(),
        1
    );
}
