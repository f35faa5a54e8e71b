//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions (no spans are added inside the program).
//!
//! A span carries a name (`layer.operation`), start and end, the span
//! that was open when it started (its parent), and a request id shared
//! by every span of one request. Spans stay in memory during the run and
//! are written out when it ends. A layer's self time is the duration of
//! its spans minus the parts their child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one request.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder; a disabled tracer records nothing and costs a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`, timing from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes an open span (and any span opened inside it and left open).
    pub fn close(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let end = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-timed leaf span under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.stack.last().copied(),
            req,
        };
        self.spans.push(span);
    }

    /// Appends another tracer's spans (e.g. one per generator thread).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, nanoseconds: each span's duration minus the
    /// durations of its direct children, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// Total duration of the root spans, nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_links_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let root = t.open("bench.request", 7);
        let child_start = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        t.record("core.analyze", 7, child_start, Instant::now());
        t.close(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
        let by_layer = t.self_ns_by_layer();
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.root_ns(), "self times partition the root");
        assert!(by_layer["core"] >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.open("bench.request", 1);
        t.record("core.analyze", 1, Instant::now(), Instant::now());
        t.close(s);
        assert!(t.spans().is_empty());
    }
}
