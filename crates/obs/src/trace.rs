//! Per-request trace context for the serve path.
//!
//! A trace follows one admitted sample end to end: allocated at
//! admission, carried on the pending frame through the session manager's
//! ingress queue, threaded into the stream's ingest call, and committed
//! when the sample's analysis completes. Each hop records a [`TraceSpan`]
//! with monotonic microsecond timestamps relative to the trace's own
//! epoch, and parent links reconstruct the span tree (the ingest span is
//! the parent of the flush span it triggered).
//!
//! Committed traces land in a bounded ring inside [`Tracer`] for live
//! inspection, and their span durations feed the
//! [`crate::stage::LATENCY_ATTRIBUTION`] distributions of a
//! [`Recorder`], so a run report decomposes the ingest→estimate tail
//! into queue wait vs. batch scheduling vs. compute vs. wire time
//! instead of only observing it.

use crate::recorder::Recorder;
use crate::{attribution_metric, stage};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Committed traces retained in the [`Tracer`] ring.
pub const TRACE_RING_CAP: usize = 512;

/// The span taxonomy of the serve path, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Admission control: shard lookup, session creation, queue push.
    Admission,
    /// From queue push to the scheduler worker picking the sample up.
    QueueWait,
    /// From the scheduler tick's start to this sample's worker pickup
    /// (fan-out and cross-session contention).
    BatchSchedule,
    /// The stream's ingest call: gap repair, column build, movement
    /// state machine, provisional tracking. Parent of [`SpanKind::Flush`].
    IncrementalIngest,
    /// Segment flush inside an ingest: materialisation plus the
    /// per-segment pipeline run.
    Flush,
    /// Encoding and writing the response frame that shipped the
    /// session's events back over the wire.
    EventWireOut,
}

impl SpanKind {
    /// Canonical lowercase name (used in exposition text and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Admission => "admission",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::BatchSchedule => "batch_schedule",
            SpanKind::IncrementalIngest => "incremental_ingest",
            SpanKind::Flush => "flush",
            SpanKind::EventWireOut => "event_wire_out",
        }
    }

    /// Every kind, in lifecycle order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Admission,
        SpanKind::QueueWait,
        SpanKind::BatchSchedule,
        SpanKind::IncrementalIngest,
        SpanKind::Flush,
        SpanKind::EventWireOut,
    ];

    /// The latency-attribution distribution this kind feeds.
    pub fn attribution_metric(self) -> &'static str {
        match self {
            SpanKind::Admission => attribution_metric::ADMISSION_US,
            SpanKind::QueueWait => attribution_metric::QUEUE_WAIT_US,
            SpanKind::BatchSchedule => attribution_metric::BATCH_SCHEDULE_US,
            SpanKind::IncrementalIngest => attribution_metric::COMPUTE_US,
            SpanKind::Flush => attribution_metric::FLUSH_US,
            SpanKind::EventWireOut => attribution_metric::WIRE_US,
        }
    }
}

/// Process-unique trace identifier, allocated at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// Identifier of one span within its trace (dense, allocation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

/// One completed (or still-open) span of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// What this span measures.
    pub kind: SpanKind,
    /// This span's id within the trace.
    pub id: SpanId,
    /// The enclosing span, if any (root spans have none).
    pub parent: Option<SpanId>,
    /// Start offset from the trace epoch, microseconds (monotonic).
    pub start_us: u64,
    /// Duration, microseconds. Still-open spans report 0.
    pub dur_us: u64,
}

/// A committed per-request trace: the spans of one admitted sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The trace id allocated at admission.
    pub trace_id: TraceId,
    /// The session the sample belonged to.
    pub session_id: u64,
    /// The sample's sequence number.
    pub seq: u64,
    /// Spans in allocation order.
    pub spans: Vec<TraceSpan>,
}

impl TraceRecord {
    /// Duration of the first span of `kind`, if recorded.
    pub fn span_us(&self, kind: SpanKind) -> Option<u64> {
        self.spans.iter().find(|s| s.kind == kind).map(|s| s.dur_us)
    }

    /// End offset of the latest-ending span — the trace's total extent
    /// on its own time axis, microseconds.
    pub fn total_us(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0)
    }

    /// One-line summary for exposition text and `rim top`.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "trace {} session={} seq={} total_us={}",
            self.trace_id.0,
            self.session_id,
            self.seq,
            self.total_us()
        );
        for kind in SpanKind::ALL {
            if let Some(us) = self.span_us(kind) {
                let _ = write!(out, " {}={us}", kind.as_str());
            }
        }
        out
    }
}

/// A trace being recorded: owned by the pending sample as it moves
/// through the serve path. Spans open and close against the trace's own
/// monotonic epoch, and an open-span stack supplies parent links, so
/// call sites never thread span ids by hand.
#[derive(Debug)]
pub struct ActiveTrace {
    trace_id: TraceId,
    session_id: u64,
    seq: u64,
    epoch: Instant,
    spans: Vec<TraceSpan>,
    /// Indices into `spans` of the currently open spans (innermost last).
    open: Vec<usize>,
}

impl ActiveTrace {
    /// Starts a trace with its epoch at "now".
    pub fn new(trace_id: TraceId, session_id: u64, seq: u64) -> Self {
        Self {
            trace_id,
            session_id,
            seq,
            epoch: Instant::now(),
            spans: Vec::with_capacity(8),
            open: Vec::with_capacity(4),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Opens a span of `kind` starting now. The innermost open span (if
    /// any) becomes its parent. Close with [`ActiveTrace::close`].
    pub fn open(&mut self, kind: SpanKind) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_us = self.now_us();
        self.spans.push(TraceSpan {
            kind,
            id,
            parent,
            start_us,
            dur_us: 0,
        });
        self.open.push(id.0 as usize);
        id
    }

    /// Closes the span, recording its duration. Any spans opened after
    /// it that are still open are closed with it (a span cannot outlive
    /// its parent).
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_us();
        while let Some(idx) = self.open.pop() {
            let span = &mut self.spans[idx];
            span.dur_us = now.saturating_sub(span.start_us);
            if span.id == id {
                return;
            }
        }
    }

    /// Closes the innermost open span of `kind`, if any — for call sites
    /// (e.g. queue pickup) that cannot carry the [`SpanId`] from where
    /// the span was opened.
    pub fn close_open(&mut self, kind: SpanKind) {
        if let Some(&idx) = self
            .open
            .iter()
            .rev()
            .find(|&&i| self.spans[i].kind == kind)
        {
            let id = self.spans[idx].id;
            self.close(id);
        }
    }

    /// Records a completed span whose start was measured externally
    /// (e.g. a scheduler tick's start instant), parented like
    /// [`ActiveTrace::open`].
    pub fn record_since(&mut self, kind: SpanKind, start: Instant) {
        let id = SpanId(self.spans.len() as u32);
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_us = start
            .checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64);
        let dur_us = self.now_us().saturating_sub(start_us);
        self.spans.push(TraceSpan {
            kind,
            id,
            parent,
            start_us,
            dur_us,
        });
    }

    /// The trace id allocated at admission.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// Seals the trace into an immutable record (open spans close now).
    pub fn finish(mut self) -> TraceRecord {
        let now = self.now_us();
        while let Some(idx) = self.open.pop() {
            let span = &mut self.spans[idx];
            span.dur_us = now.saturating_sub(span.start_us);
        }
        TraceRecord {
            trace_id: self.trace_id,
            session_id: self.session_id,
            seq: self.seq,
            spans: self.spans,
        }
    }
}

/// Allocates, samples, and retains traces. One per [`SessionManager`]
/// (or per bench harness); all methods take `&self`.
///
/// [`SessionManager`]: ../../rim_serve/struct.SessionManager.html
#[derive(Debug)]
pub struct Tracer {
    /// Trace every Nth admitted sample; `0` disables tracing entirely.
    sample_every: usize,
    next_id: AtomicU64,
    admitted: AtomicU64,
    ring: Mutex<VecDeque<TraceRecord>>,
}

impl Tracer {
    /// A tracer sampling every `sample_every`-th admission (`0` = off,
    /// `1` = every sample).
    pub fn new(sample_every: usize) -> Self {
        Self {
            sample_every,
            next_id: AtomicU64::new(1),
            admitted: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(if sample_every == 0 {
                0
            } else {
                TRACE_RING_CAP.min(64)
            })),
        }
    }

    /// Whether any tracing is configured.
    pub fn enabled(&self) -> bool {
        self.sample_every > 0
    }

    /// Starts a trace for this admission if it falls on the sampling
    /// cadence; the zero-cost answer otherwise.
    pub fn try_start(&self, session_id: u64, seq: u64) -> Option<ActiveTrace> {
        if self.sample_every == 0 {
            return None;
        }
        let n = self.admitted.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.sample_every as u64) {
            return None;
        }
        let id = TraceId(self.next_id.fetch_add(1, Ordering::Relaxed));
        Some(ActiveTrace::new(id, session_id, seq))
    }

    /// Commits a finished trace: retains it in the bounded ring and
    /// feeds each span's duration into `recorder`'s
    /// [`stage::LATENCY_ATTRIBUTION`] distributions.
    pub fn commit(&self, trace: ActiveTrace, recorder: &Recorder) {
        let record = trace.finish();
        for span in &record.spans {
            recorder.observe(
                stage::LATENCY_ATTRIBUTION,
                span.kind.attribution_metric(),
                span.dur_us as f64,
            );
        }
        recorder.observe(
            stage::LATENCY_ATTRIBUTION,
            attribution_metric::TOTAL_US,
            record.total_us() as f64,
        );
        let mut ring = lock(&self.ring);
        if ring.len() >= TRACE_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Attaches an [`SpanKind::EventWireOut`] span to the most recent
    /// committed trace that lacks one (events leave on the same frame
    /// that answers the traced request, right after the trace committed)
    /// and feeds the wire attribution distribution. No-op when tracing
    /// is off.
    pub fn attach_wire_out(&self, dur_us: u64, recorder: &Recorder) {
        if self.sample_every == 0 {
            return;
        }
        recorder.observe(
            stage::LATENCY_ATTRIBUTION,
            attribution_metric::WIRE_US,
            dur_us as f64,
        );
        let mut ring = lock(&self.ring);
        if let Some(record) = ring
            .iter_mut()
            .rev()
            .find(|r| r.span_us(SpanKind::EventWireOut).is_none())
        {
            let id = SpanId(record.spans.len() as u32);
            let start_us = record.total_us();
            record.spans.push(TraceSpan {
                kind: SpanKind::EventWireOut,
                id,
                parent: None,
                start_us,
                dur_us,
            });
        }
    }

    /// The most recent `n` committed traces, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let ring = lock(&self.ring);
        ring.iter().rev().take(n).rev().cloned().collect()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_parent_links_hold() {
        let mut trace = ActiveTrace::new(TraceId(7), 3, 41);
        let outer = trace.open(SpanKind::IncrementalIngest);
        let inner = trace.open(SpanKind::Flush);
        trace.close(inner);
        trace.close(outer);
        let record = trace.finish();
        assert_eq!(record.spans.len(), 2);
        assert_eq!(record.spans[0].parent, None);
        assert_eq!(record.spans[1].parent, Some(record.spans[0].id));
        assert!(record.span_us(SpanKind::Flush).is_some());
        assert!(record.span_us(SpanKind::Admission).is_none());
        // The parent's extent covers the child's.
        let outer_span = &record.spans[0];
        let inner_span = &record.spans[1];
        assert!(outer_span.start_us <= inner_span.start_us);
        assert!(outer_span.start_us + outer_span.dur_us >= inner_span.start_us + inner_span.dur_us);
    }

    #[test]
    fn closing_a_parent_closes_orphaned_children() {
        let mut trace = ActiveTrace::new(TraceId(1), 0, 0);
        let outer = trace.open(SpanKind::IncrementalIngest);
        let _leaked = trace.open(SpanKind::Flush);
        trace.close(outer);
        let record = trace.finish();
        assert!(record.spans.iter().all(|s| s.id.0 < 2));
        // finish() found nothing left open.
        assert_eq!(record.spans.len(), 2);
    }

    #[test]
    fn tracer_samples_on_cadence_and_bounds_the_ring() {
        let tracer = Tracer::new(3);
        let recorder = Recorder::new();
        let mut started = 0;
        for seq in 0..9u64 {
            if let Some(trace) = tracer.try_start(1, seq) {
                started += 1;
                tracer.commit(trace, &recorder);
            }
        }
        assert_eq!(started, 3, "every 3rd admission traced");
        assert_eq!(tracer.recent(10).len(), 3);
        let report = recorder.report();
        let attr = report.stage(stage::LATENCY_ATTRIBUTION).expect("stage");
        assert!(attr
            .distributions
            .iter()
            .any(|d| d.name == attribution_metric::TOTAL_US && d.count == 3));
        // Disabled tracer starts nothing.
        assert!(Tracer::new(0).try_start(1, 0).is_none());
        assert!(!Tracer::new(0).enabled());
    }

    #[test]
    fn wire_out_attaches_to_the_newest_uncovered_trace() {
        let tracer = Tracer::new(1);
        let recorder = Recorder::new();
        for seq in 0..2u64 {
            let mut t = tracer.try_start(9, seq).expect("sampling every admit");
            let id = t.open(SpanKind::Admission);
            t.close(id);
            tracer.commit(t, &recorder);
        }
        tracer.attach_wire_out(120, &recorder);
        let recent = tracer.recent(2);
        assert_eq!(recent.len(), 2);
        // Newest trace got the wire span; the older one did not.
        assert_eq!(recent[1].span_us(SpanKind::EventWireOut), Some(120));
        assert_eq!(recent[0].span_us(SpanKind::EventWireOut), None);
        let summary = recent[1].summary();
        assert!(summary.contains("event_wire_out=120"), "{summary}");
    }

    #[test]
    fn span_kind_names_match_attribution_metrics() {
        for kind in SpanKind::ALL {
            assert!(!kind.as_str().is_empty());
            assert!(kind.attribution_metric().ends_with("_us"));
        }
    }
}
