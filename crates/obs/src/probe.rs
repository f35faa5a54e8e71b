//! The instrumentation interface the pipeline is written against.

use crate::recorder::Recorder;
use std::time::Instant;

/// Instrumentation sink threaded through the pipeline as a generic
/// parameter (`P: Probe + ?Sized`), so the disabled case monomorphises
/// away completely.
///
/// Implementors only supply [`Probe::recorder`]; every hook has a default
/// body that routes to the recorder when one is present and does nothing
/// otherwise.
pub trait Probe {
    /// The recorder backing this probe, if instrumentation is on.
    fn recorder(&self) -> Option<&Recorder> {
        None
    }

    /// Whether instrumentation is live (lets call sites skip building
    /// expensive metric inputs).
    #[inline]
    fn enabled(&self) -> bool {
        self.recorder().is_some()
    }

    /// Starts a wall-clock span for `stage`; the elapsed time is recorded
    /// when the returned guard drops. Disabled probes return an inert
    /// guard without reading the clock.
    #[inline]
    fn span(&self, stage: &'static str) -> Span<'_> {
        match self.recorder() {
            Some(recorder) => Span {
                inner: Some(SpanInner {
                    recorder,
                    stage,
                    start: Instant::now(),
                }),
            },
            None => Span { inner: None },
        }
    }

    /// Adds `n` to the named counter under `stage`.
    #[inline]
    fn count(&self, stage: &'static str, counter: &'static str, n: u64) {
        if let Some(recorder) = self.recorder() {
            recorder.count(stage, counter, n);
        }
    }

    /// Sets the named gauge under `stage` to its latest value.
    #[inline]
    fn gauge(&self, stage: &'static str, gauge: &'static str, value: f64) {
        if let Some(recorder) = self.recorder() {
            recorder.gauge(stage, gauge, value);
        }
    }

    /// Feeds one sample into the named value distribution under `stage`.
    #[inline]
    fn observe(&self, stage: &'static str, distribution: &'static str, value: f64) {
        if let Some(recorder) = self.recorder() {
            recorder.observe(stage, distribution, value);
        }
    }
}

/// The no-op probe: zero-sized, every hook an empty inlineable body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {}

impl Probe for Recorder {
    #[inline]
    fn recorder(&self) -> Option<&Recorder> {
        Some(self)
    }
}

/// RAII wall-clock timer for one stage invocation; see [`Probe::span`].
#[must_use = "a span measures until it is dropped; binding it to _ drops immediately"]
pub struct Span<'a> {
    inner: Option<SpanInner<'a>>,
}

struct SpanInner<'a> {
    recorder: &'a Recorder,
    stage: &'static str,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed = inner.start.elapsed();
            inner
                .recorder
                .record_duration(inner.stage, elapsed.as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<NullProbe>(), 0);
        let probe = NullProbe;
        assert!(!probe.enabled());
        let span = probe.span("movement_detection");
        assert!(span.inner.is_none());
        probe.count("s", "c", 1);
        probe.gauge("s", "g", 1.0);
        probe.observe("s", "d", 1.0);
    }

    #[test]
    fn recorder_probe_times_spans() {
        let recorder = Recorder::new();
        {
            let _span = recorder.span("dp_tracking");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let report = recorder.report();
        let stage = report.stage("dp_tracking").expect("stage recorded");
        assert_eq!(stage.calls, 1);
        assert!(stage.total_ms >= 1.0, "total_ms = {}", stage.total_ms);
    }

    #[test]
    fn nested_spans_attribute_time_to_each_stage() {
        let recorder = Recorder::new();
        {
            let _outer = recorder.span("outer");
            let _inner = recorder.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let report = recorder.report();
        let outer = report.stage("outer").unwrap();
        let inner = report.stage("inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Outer encloses inner, so its wall time is at least inner's.
        assert!(outer.total_ms >= inner.total_ms);
    }
}
