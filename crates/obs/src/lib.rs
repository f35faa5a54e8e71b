//! Structured observability for the RIM pipeline.
//!
//! The pipeline stages (paper §4.2–§4.5: movement detection,
//! pre-detection, alignment-matrix build, DP tracking, post-detection,
//! reckoning) are instrumented against the [`Probe`] trait defined here.
//! Callers choose at the call site what instrumentation costs:
//!
//! * [`NullProbe`] — the default. A zero-sized type whose hooks are empty
//!   inlineable bodies, so the instrumented pipeline monomorphises to the
//!   uninstrumented machine code. No timer reads, no allocation.
//! * [`Recorder`] — aggregates per-stage call counts, wall-time totals,
//!   log-scale latency histograms (for p50/p95), named counters, gauges,
//!   and bounded value distributions. A finished run snapshots into a
//!   [`RunReport`] that renders as a human text table
//!   ([`RunReport::render`]) or machine-readable JSON
//!   ([`RunReport::to_json`] / [`RunReport::from_json`]).
//!
//! The crate is dependency-light on purpose: timing uses
//! `std::time::Instant` (monotonic), aggregation uses `std::sync::Mutex`
//! (uncontended in the single-threaded pipeline; the lock exists so a
//! `Recorder` can be shared across threads), and JSON is a small
//! self-contained writer/parser ([`JsonValue`]).

//! Since v2 the crate also carries the serve path's live-telemetry
//! layer: per-request traces ([`Tracer`], [`TraceRecord`], span taxonomy
//! in [`SpanKind`]) whose span durations feed the
//! [`stage::LATENCY_ATTRIBUTION`] distributions, and sliding-window
//! snapshots ([`Recorder::window_snapshot`] → [`WindowSnapshot`]) for
//! reading metrics mid-run without stopping it.

mod json;
mod probe;
mod recorder;
mod report;
mod trace;
mod window;

pub use json::JsonValue;
pub use probe::{NullProbe, Probe, Span};
pub use recorder::Recorder;
pub use report::{DistributionReport, RunReport, StageReport};
pub use trace::{
    ActiveTrace, SpanId, SpanKind, TraceId, TraceRecord, TraceSpan, Tracer, TRACE_RING_CAP,
};
pub use window::{WindowSnapshot, WindowStageSnapshot, DEFAULT_WINDOWS, WINDOW_SCHEMA};

/// Canonical stage names, in pipeline order. Instrumentation sites use
/// these constants so reports, tests, and docs agree on spelling.
pub mod stage {
    /// §4.2 movement detection over TRRS self-similarity.
    pub const MOVEMENT_DETECTION: &str = "movement_detection";
    /// §4.5 pre-detection: prominence blocks gating segment analysis.
    pub const PRE_DETECTION: &str = "pre_detection";
    /// §4.3 alignment-matrix build (virtual-antenna TRRS averaging).
    pub const ALIGNMENT_BUILD: &str = "alignment_build";
    /// §4.4 dynamic-programming peak tracking across the matrix.
    pub const DP_TRACKING: &str = "dp_tracking";
    /// §4.5 post-detection: hysteresis on tracked-path quality.
    pub const POST_DETECTION: &str = "post_detection";
    /// §4.5 reckoning: speed/heading integration into displacement.
    pub const RECKONING: &str = "reckoning";

    /// Streaming front-end (ring buffer, incremental flushes, gap
    /// repair, degraded-mode watchdog). Not one of the six offline
    /// stages, so not part of [`PIPELINE`]. Its counters and gauges use
    /// the canonical names in [`super::stream_metric`].
    pub const STREAM: &str = "stream";
    /// The rim-par work-stealing pool (tiles, steals, per-worker busy
    /// time). Cross-cutting, so not part of [`PIPELINE`].
    pub const PARALLEL: &str = "parallel_pool";
    /// CSI acquisition (snapshots ingested/dropped, sanitize rejections).
    /// Upstream of the pipeline, so not part of [`PIPELINE`].
    pub const CSI_INGEST: &str = "csi_ingest";
    /// Multi-session serving front-end (admission, queueing, batch
    /// scheduling, eviction). Wraps the per-session streams, so not part
    /// of [`PIPELINE`]. Its counters and gauges use the canonical names
    /// in [`super::serve_metric`].
    pub const SERVE: &str = "serve";
    /// Incremental alignment engine (online cross-TRRS columns, cached
    /// column reuse at flush, provisional estimates). Runs inside the
    /// streaming front-end rather than as an offline stage, so not part
    /// of [`PIPELINE`]. Its counters and distributions use the canonical
    /// names in [`super::incremental_metric`].
    pub const INCREMENTAL: &str = "incremental";
    /// Per-request latency attribution: trace-span durations (µs)
    /// aggregated by span kind, so the serve tail decomposes into queue
    /// wait vs. batch scheduling vs. compute vs. wire. Fed by
    /// [`crate::Tracer::commit`]; distribution names come from
    /// [`super::attribution_metric`]. Synthetic (no code runs "inside"
    /// it), so not part of [`PIPELINE`].
    pub const LATENCY_ATTRIBUTION: &str = "latency_attribution";
    /// The readiness-driven serve I/O loop (poll wakeups, ready events,
    /// frame assembly, write backpressure). Sits between the sockets and
    /// [`SERVE`] admission, so not part of [`PIPELINE`]. Its counters use
    /// the canonical names in [`super::reactor_metric`].
    pub const REACTOR: &str = "reactor";
    /// RIM×IMU fusion engine (error-state Kalman filter, ZUPT detection,
    /// IMU coasting through CSI blackouts). Wraps the streaming front-end
    /// rather than running inside the offline pipeline, so not part of
    /// [`PIPELINE`]. Its counters and distributions use the canonical
    /// names in [`super::fusion_metric`].
    pub const FUSION: &str = "fusion";

    /// All six pipeline stages in execution order.
    pub const PIPELINE: [&str; 6] = [
        MOVEMENT_DETECTION,
        PRE_DETECTION,
        ALIGNMENT_BUILD,
        DP_TRACKING,
        POST_DETECTION,
        RECKONING,
    ];
}

/// Canonical counter / gauge names emitted by the streaming front-end
/// under [`stage::STREAM`]. Kept here (rather than in `rim-core`) so the
/// CLI, tests, and report tooling can reference them without depending
/// on the engine crate.
pub mod stream_metric {
    /// Counter: input gaps observed (each run of missing sequence
    /// numbers counts once, whether bridged or split).
    pub const GAPS: &str = "stream_gaps";
    /// Counter: samples synthesised by interpolation to bridge short
    /// gaps (`gap ≤ max_gap`).
    pub const INTERPOLATED: &str = "gap_samples_interpolated";
    /// Counter: duplicate deliveries dropped (sequence number already
    /// delivered).
    pub const DUPLICATES: &str = "duplicates_dropped";
    /// Counter: out-of-order deliveries that arrived too late to use.
    pub const REORDERED: &str = "reordered_dropped";
    /// Counter: samples dropped because no antenna data was present (or
    /// the stream had no history to repair a partial sample from).
    pub const INCOMPLETE: &str = "incomplete_dropped";
    /// Counter: segment splits forced by gaps longer than `max_gap`.
    pub const SPLITS: &str = "stream_splits";
    /// Counter: `StreamEvent::Degraded` transitions emitted.
    pub const DEGRADED_EVENTS: &str = "degraded_events";
    /// Counter: `StreamEvent::Recovered` transitions emitted.
    pub const RECOVERED_EVENTS: &str = "recovered_events";
    /// Gauge: cumulative wall-clock seconds of stream time spent in
    /// degraded mode.
    pub const DEGRADED_TIME_S: &str = "degraded_time_s";
    /// Gauge: fraction of the watchdog window that is interpolated.
    pub const INTERPOLATED_FRACTION: &str = "interpolated_fraction";
    /// Counter: ingested samples whose antennas disagreed on the TX
    /// count, forcing `trrs_avg`'s truncation to the common prefix.
    pub const TX_MISMATCH: &str = "tx_mismatch";
}

/// Canonical counter / gauge / distribution names emitted by the RIM×IMU
/// fusion engine under [`stage::FUSION`]. Kept here for the same reason
/// as [`stream_metric`]: the CLI, tests, and report tooling reference
/// them without depending on the fusion crate.
pub mod fusion_metric {
    /// Counter: IMU samples ingested by the fusion filter.
    pub const IMU_SAMPLES: &str = "imu_samples";
    /// Counter: IMU samples offered to a CSI-only stream and dropped
    /// (no fusion layer attached to consume them).
    pub const IMU_SAMPLES_DROPPED: &str = "imu_samples_dropped";
    /// Counter: zero-velocity pseudo-measurements applied.
    pub const ZUPT_COUNT: &str = "zupt_count";
    /// Counter: RIM distance/heading corrections applied.
    pub const RIM_UPDATES: &str = "rim_updates";
    /// Counter: RIM corrections dropped below the confidence floor.
    pub const LOW_CONFIDENCE_DROPPED: &str = "low_confidence_dropped";
    /// Gauge: cumulative stream microseconds spent coasting on the IMU
    /// (moving with no usable RIM anchor).
    pub const COAST_TIME_US: &str = "coast_time_us";
    /// Distribution: speed-innovation magnitude of accepted RIM distance
    /// corrections, metres.
    pub const SPEED_INNOVATION: &str = "speed_innovation_m";
    /// Distribution: heading-innovation magnitude of accepted heading
    /// corrections, radians.
    pub const HEADING_INNOVATION: &str = "heading_innovation_rad";
}

/// Canonical counter / distribution names emitted by the incremental
/// alignment engine under [`stage::INCREMENTAL`]. Kept here for the same
/// reason as [`stream_metric`]: the CLI, tests, and report tooling
/// reference them without depending on the engine crate.
pub mod incremental_metric {
    /// Counter: cross-TRRS column entries computed online (one per
    /// `trrs_norm` evaluation, appends and backfills alike).
    pub const COLUMNS_BUILT: &str = "columns_built";
    /// Counter: base-matrix columns and pre-detection probes served from
    /// the incremental cache at segment flush instead of being recomputed.
    pub const CACHE_HITS: &str = "cache_hits";
    /// Distribution: wall-clock microseconds spent ingesting one sample
    /// (gap repair, column build, provisional tracking included).
    pub const INGEST_LATENCY_US: &str = "ingest_latency_us";
    /// Counter: provisional estimates emitted while motion was open.
    pub const PROVISIONALS: &str = "provisionals";
}

/// Canonical counter / gauge / distribution names emitted by the
/// multi-session serving front-end under [`stage::SERVE`]. Kept here for
/// the same reason as [`stream_metric`]: the CLI, tests, and report
/// tooling reference them without depending on `rim-serve`.
pub mod serve_metric {
    /// Counter: samples admitted into a per-session ingress queue.
    pub const ADMITTED: &str = "samples_admitted";
    /// Counter: samples throttled because the session's queue was full.
    pub const THROTTLED: &str = "samples_throttled";
    /// Counter: samples rejected outright (session table full or
    /// manager shut down).
    pub const REJECTED: &str = "samples_rejected";
    /// Counter: sessions evicted by the idle policy.
    pub const SESSIONS_EVICTED: &str = "sessions_evicted";
    /// Counter: batch scheduler ticks that moved at least one sample.
    pub const BATCHES: &str = "batches_scheduled";
    /// Gauge: sessions currently resident.
    pub const SESSIONS_ACTIVE: &str = "sessions_active";
    /// Gauge: total queued samples across sessions at the last tick.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Distribution: microseconds from a sample's admission to the batch
    /// tick that analysed it (end-to-end ingest→estimate latency).
    /// The millisecond alias (`ingest_to_estimate_ms`) was removed in the
    /// v2 report schema; this is the only spelling.
    pub const INGEST_TO_ESTIMATE_US: &str = "ingest_to_estimate_us";
    /// Counter: samples throttled because the admission predictor
    /// expected the queue wait to blow the session's latency budget
    /// (`ServeConfig::latency_budget_us`). A subset of [`THROTTLED`]
    /// causes; tracked separately so capacity tuning can distinguish
    /// "queue physically full" from "deadline would be missed".
    pub const THROTTLED_PREDICTED: &str = "samples_throttled_predicted";
}

/// Canonical counter names emitted by the readiness-driven serve I/O
/// loop under [`stage::REACTOR`]. Kept here for the same reason as
/// [`stream_metric`]: the CLI, tests, and report tooling reference them
/// without depending on `rim-serve`.
pub mod reactor_metric {
    /// Counter: `poll(2)` wakeups (one per loop iteration that returned
    /// at least one ready descriptor or picked up new connections).
    pub const WAKEUPS: &str = "reactor_wakeups";
    /// Counter: readiness events delivered across all wakeups (a single
    /// wakeup may report many ready sockets).
    pub const READY_EVENTS: &str = "ready_events";
    /// Counter: complete request frames assembled from nonblocking reads.
    pub const FRAMES_IN: &str = "frames_in";
    /// Counter: response frames fully written to a socket.
    pub const FRAMES_OUT: &str = "frames_out";
    /// Counter: writes that hit `WouldBlock` and parked the remainder in
    /// the per-connection backpressure queue.
    pub const WRITE_STALLS: &str = "write_stalls";
    /// Counter: requests answered `Rejected` (or suppressed) because the
    /// connection's write queue exceeded its high watermark.
    pub const BACKPRESSURE_REJECTED: &str = "backpressure_rejected";
    /// Counter: connections accepted.
    pub const CONNS_OPENED: &str = "conns_opened";
    /// Counter: connections closed (clean EOF, protocol error, or
    /// shutdown).
    pub const CONNS_CLOSED: &str = "conns_closed";
}

/// Canonical distribution names under [`stage::LATENCY_ATTRIBUTION`]:
/// per-request trace-span durations in microseconds, one distribution
/// per [`SpanKind`] (see [`SpanKind::attribution_metric`]) plus the
/// end-to-end total.
pub mod attribution_metric {
    /// Admission control ([`crate::SpanKind::Admission`]).
    pub const ADMISSION_US: &str = "admission_us";
    /// Ingress-queue wait ([`crate::SpanKind::QueueWait`]).
    pub const QUEUE_WAIT_US: &str = "queue_wait_us";
    /// Scheduler fan-out ([`crate::SpanKind::BatchSchedule`]).
    pub const BATCH_SCHEDULE_US: &str = "batch_schedule_us";
    /// Stream ingest compute ([`crate::SpanKind::IncrementalIngest`]).
    pub const COMPUTE_US: &str = "compute_us";
    /// Segment flush within an ingest ([`crate::SpanKind::Flush`]).
    pub const FLUSH_US: &str = "flush_us";
    /// Response encode + socket write ([`crate::SpanKind::EventWireOut`]).
    pub const WIRE_US: &str = "wire_us";
    /// Whole-trace extent (admission through the last span).
    pub const TOTAL_US: &str = "total_us";
}

#[cfg(test)]
mod stage_tests {
    /// The canonical metric names are part of the report format; keep
    /// them unique so counters can't shadow each other.
    #[test]
    fn stream_metric_names_are_unique() {
        let names = [
            super::stream_metric::GAPS,
            super::stream_metric::INTERPOLATED,
            super::stream_metric::DUPLICATES,
            super::stream_metric::REORDERED,
            super::stream_metric::INCOMPLETE,
            super::stream_metric::SPLITS,
            super::stream_metric::DEGRADED_EVENTS,
            super::stream_metric::RECOVERED_EVENTS,
            super::stream_metric::DEGRADED_TIME_S,
            super::stream_metric::INTERPOLATED_FRACTION,
            super::stream_metric::TX_MISMATCH,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn serve_metric_names_are_unique() {
        let names = [
            super::serve_metric::ADMITTED,
            super::serve_metric::THROTTLED,
            super::serve_metric::REJECTED,
            super::serve_metric::SESSIONS_EVICTED,
            super::serve_metric::BATCHES,
            super::serve_metric::SESSIONS_ACTIVE,
            super::serve_metric::QUEUE_DEPTH,
            super::serve_metric::INGEST_TO_ESTIMATE_US,
            super::serve_metric::THROTTLED_PREDICTED,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn reactor_metric_names_are_unique() {
        let names = [
            super::reactor_metric::WAKEUPS,
            super::reactor_metric::READY_EVENTS,
            super::reactor_metric::FRAMES_IN,
            super::reactor_metric::FRAMES_OUT,
            super::reactor_metric::WRITE_STALLS,
            super::reactor_metric::BACKPRESSURE_REJECTED,
            super::reactor_metric::CONNS_OPENED,
            super::reactor_metric::CONNS_CLOSED,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn attribution_metric_names_are_unique_and_cover_every_span_kind() {
        let names = [
            super::attribution_metric::ADMISSION_US,
            super::attribution_metric::QUEUE_WAIT_US,
            super::attribution_metric::BATCH_SCHEDULE_US,
            super::attribution_metric::COMPUTE_US,
            super::attribution_metric::FLUSH_US,
            super::attribution_metric::WIRE_US,
            super::attribution_metric::TOTAL_US,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        // Every span kind maps into the list above.
        for kind in super::SpanKind::ALL {
            assert!(names.contains(&kind.attribution_metric()));
        }
    }

    #[test]
    fn incremental_metric_names_are_unique() {
        let names = [
            super::incremental_metric::COLUMNS_BUILT,
            super::incremental_metric::CACHE_HITS,
            super::incremental_metric::INGEST_LATENCY_US,
            super::incremental_metric::PROVISIONALS,
        ];
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
