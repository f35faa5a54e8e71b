//! The readiness-driven I/O event loop.
//!
//! A small fixed set of reactor threads owns every client socket: each
//! runs a `poll(2)` loop ([`crate::sys`]) over its connections, reading
//! nonblockingly into per-connection buffers until a length-prefixed
//! frame completes, dispatching the request against the shared
//! [`SessionManager`], and draining responses through per-connection
//! backpressure queues. No thread is ever parked on a socket: a slow
//! peer costs one pollfd entry and a bounded write queue, not an OS
//! thread.
//!
//! The reactors are also the scheduler's clock. Every `poll` wakeup,
//! timeouts included, first admits every frame it read, then runs one
//! [`SessionManager::process`] tick, and only then answers the ingests
//! it admitted — so an ingest's answer carries the events its own input
//! caused. Only an admitted ingest and the answers queued behind it on
//! the same connection wait for the tick; everything else is answered
//! as soon as it is read.
//!
//! Reactor 0 additionally owns the listener and distributes accepted
//! connections round-robin across the reactor set through small inbox
//! vectors, picked up within one poll timeout.
//!
//! Backpressure: when a connection's queued responses exceed
//! [`ServeConfig::write_buf_cap`], further `Ingest` requests are
//! answered [`RejectReason::Backpressure`] without touching admission,
//! `Metrics` requests get a one-line suppressed snapshot, and the
//! connection stops reading new bytes until the queue drains below half
//! the watermark — the buffer is bounded by construction.
//!
//! [`ServeConfig::write_buf_cap`]: crate::ServeConfig::write_buf_cap
//! [`RejectReason::Backpressure`]: crate::RejectReason::Backpressure

use crate::manager::{Admit, RejectReason, SessionManager};
use crate::sys::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use crate::wire::{Request, Response, MAX_FRAME_LEN};
use bytes::Bytes;
use rim_obs::{reactor_metric, stage, Recorder};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poll timeout: the upper bound on stop-flag and inbox pickup latency.
const POLL_TIMEOUT_MS: i32 = 5;
/// Per-readiness-event read bound, so one firehose connection cannot
/// starve its reactor siblings.
const READ_BATCH_MAX: usize = 256 * 1024;
/// How long a stopping reactor keeps flushing queued responses (the
/// shutdown `Bye` included) before closing everything.
const SHUTDOWN_FLUSH: Duration = Duration::from_millis(500);
/// Reactor-counter flush cadence onto the manager recorder.
const STATS_FLUSH: Duration = Duration::from_millis(100);

/// The text answered to a `Metrics` request while the connection is
/// over its write-queue watermark (a full snapshot would only deepen
/// the backlog). Still a well-formed exposition.
const SUPPRESSED_SNAPSHOT: &str = "# rim-serve metrics v1\nbackpressure.suppressed 1\n";

/// State shared between the server handle and its reactor threads.
pub(crate) struct ReactorShared {
    pub(crate) manager: Arc<SessionManager>,
    pub(crate) stop: AtomicBool,
    /// Accepted connections awaiting pickup, one inbox per reactor.
    pub(crate) inboxes: Vec<Mutex<Vec<TcpStream>>>,
}

/// Locally batched [`stage::REACTOR`] counters, flushed onto the
/// manager recorder on a coarse cadence so the hot loop never takes the
/// recorder lock per frame.
#[derive(Default)]
struct Stats {
    wakeups: u64,
    ready_events: u64,
    frames_in: u64,
    frames_out: u64,
    write_stalls: u64,
    backpressure_rejected: u64,
    conns_opened: u64,
    conns_closed: u64,
}

impl Stats {
    fn flush(&mut self, recorder: &Recorder) {
        for (name, v) in [
            (reactor_metric::WAKEUPS, self.wakeups),
            (reactor_metric::READY_EVENTS, self.ready_events),
            (reactor_metric::FRAMES_IN, self.frames_in),
            (reactor_metric::FRAMES_OUT, self.frames_out),
            (reactor_metric::WRITE_STALLS, self.write_stalls),
            (
                reactor_metric::BACKPRESSURE_REJECTED,
                self.backpressure_rejected,
            ),
            (reactor_metric::CONNS_OPENED, self.conns_opened),
            (reactor_metric::CONNS_CLOSED, self.conns_closed),
        ] {
            if v > 0 {
                recorder.count(stage::REACTOR, name, v);
            }
        }
        *self = Stats::default();
    }
}

/// An answer waiting for the end of the wakeup's tick.
enum Held {
    /// An ingest's answer: its events are drained when it is sent.
    Ingest { session_id: u64, admit: Admit },
    /// Any other answer, already built.
    Ready(Response),
}

/// One nonblocking connection: an assembly buffer on the read side, a
/// bounded frame queue on the write side.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (at most one partial frame after a parse).
    read_buf: Vec<u8>,
    /// Encoded response frames not yet fully written.
    write_queue: VecDeque<Bytes>,
    /// Offset into the queue's front frame.
    write_pos: usize,
    /// Bytes pending across the whole write queue.
    queued_bytes: usize,
    /// High watermark, from [`crate::ServeConfig::write_buf_cap`].
    write_buf_cap: usize,
    /// Reading is suspended until the write queue drains below half the
    /// watermark.
    paused: bool,
    /// Peer sent a clean EOF; close once the write queue is flushed.
    peer_done: bool,
    /// Protocol violation or I/O error; close immediately.
    dead: bool,
    /// Answers held until this wakeup's tick: an admitted ingest and
    /// every answer after it. Empty between wakeups.
    held: Vec<Held>,
}

impl Conn {
    fn new(stream: TcpStream, write_buf_cap: usize) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_queue: VecDeque::new(),
            write_pos: 0,
            queued_bytes: 0,
            write_buf_cap,
            paused: false,
            peer_done: false,
            dead: false,
            held: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        self.dead || (self.peer_done && self.write_queue.is_empty())
    }

    /// Drains readable bytes (bounded), then parses and dispatches every
    /// complete frame. A clean EOF at a frame boundary flags the
    /// connection for close-after-flush; an EOF mid-frame is a protocol
    /// violation and closes immediately.
    fn read_ready(&mut self, shared: &ReactorShared, stats: &mut Stats) {
        let mut chunk = [0u8; 16 * 1024];
        let mut total = 0;
        let mut eof = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if total >= READ_BATCH_MAX {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.parse_frames(shared, stats);
        if eof && !self.dead {
            if self.read_buf.is_empty() {
                self.peer_done = true;
            } else {
                // Half-close mid-frame: the remainder can never arrive.
                self.dead = true;
            }
        }
    }

    /// Parses every complete frame in the assembly buffer; a partial
    /// tail survives until the next readiness event completes it.
    fn parse_frames(&mut self, shared: &ReactorShared, stats: &mut Stats) {
        let mut pos = 0usize;
        loop {
            let buf = &self.read_buf[pos..];
            if buf.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
            if len > MAX_FRAME_LEN {
                self.dead = true;
                break;
            }
            let len = len as usize;
            if buf.len() < 4 + len {
                break;
            }
            let body = self.read_buf[pos + 4..pos + 4 + len].to_vec();
            pos += 4 + len;
            stats.frames_in += 1;
            self.handle_request(&body, shared, stats);
            if self.dead {
                break;
            }
        }
        if pos > 0 {
            self.read_buf.drain(..pos);
        }
    }

    /// Decodes and dispatches one request. An admitted ingest is held
    /// until this wakeup's tick has analysed it, so its answer carries
    /// the events it caused; every answer the peer asked for after it is
    /// held behind it to keep the connection's answers in request order.
    /// Everything else is answered at once. Over the write-queue
    /// watermark, ingests are rejected with [`RejectReason::Backpressure`]
    /// and metrics snapshots are suppressed — cheap bounded answers
    /// instead of unbounded buffering for a peer that is not reading.
    fn handle_request(&mut self, body: &[u8], shared: &ReactorShared, stats: &mut Stats) {
        let Ok(request) = Request::decode(body) else {
            // A garbled frame leaves the stream unframed; drop the
            // connection rather than guess at a resync point.
            self.dead = true;
            return;
        };
        let manager = &shared.manager;
        let over_cap = self.queued_bytes > self.write_buf_cap;
        let answer = match request {
            Request::Ingest { .. } | Request::IngestImu { .. } if over_cap => {
                stats.backpressure_rejected += 1;
                Held::Ready(Response::Admit {
                    admit: Admit::Rejected {
                        reason: RejectReason::Backpressure,
                    },
                    events: Vec::new(),
                })
            }
            Request::Ingest { session_id, sample } => Held::Ingest {
                admit: manager.ingest(session_id, sample),
                session_id,
            },
            Request::IngestImu {
                session_id,
                samples,
            } => Held::Ingest {
                admit: manager.ingest_imu(session_id, samples),
                session_id,
            },
            Request::Finish { session_id } => Held::Ready(Response::Finished {
                events: manager.finish(session_id),
            }),
            Request::Metrics => {
                let text = if over_cap {
                    stats.backpressure_rejected += 1;
                    SUPPRESSED_SNAPSHOT.to_string()
                } else {
                    manager.metrics_text()
                };
                Held::Ready(Response::MetricsSnapshot { text })
            }
            Request::Shutdown => {
                manager.shutdown();
                // The loop checks the flag only after this wakeup's
                // held answers went out, the `Bye` among them.
                shared.stop.store(true, Ordering::Release);
                Held::Ready(Response::Bye)
            }
        };
        let admitted = matches!(
            answer,
            Held::Ingest {
                admit: Admit::Accepted,
                ..
            }
        );
        if admitted || !self.held.is_empty() {
            self.held.push(answer);
        } else {
            self.answer(answer, manager, stats);
        }
    }

    /// Sends the answers held for this wakeup's tick, in request order.
    fn answer_held(&mut self, manager: &SessionManager, stats: &mut Stats) {
        for held in std::mem::take(&mut self.held) {
            if self.dead {
                return;
            }
            self.answer(held, manager, stats);
        }
    }

    /// Encodes and sends one answer; an ingest's answer carries the
    /// session's events drained now.
    fn answer(&mut self, held: Held, manager: &SessionManager, stats: &mut Stats) {
        let response = match held {
            Held::Ingest { session_id, admit } => Response::Admit {
                admit,
                events: manager.drain_events(session_id),
            },
            Held::Ready(response) => response,
        };
        let carries_events = match &response {
            Response::Admit { events, .. } | Response::Finished { events } => !events.is_empty(),
            Response::Bye | Response::MetricsSnapshot { .. } => false,
        };
        // Event-bearing responses carry estimates back to the client:
        // time their encode+first-write so the tracer can close the
        // `event_wire_out` span of the trace that produced them.
        let wire_start = Instant::now();
        let frame = response.encode();
        self.send(frame, stats);
        if carries_events {
            manager.note_wire_out(wire_start.elapsed().as_micros() as u64);
        }
        if self.queued_bytes > self.write_buf_cap {
            self.paused = true;
        }
    }

    /// Writes a frame immediately when nothing is queued ahead of it,
    /// queueing whatever the socket would not take.
    fn send(&mut self, frame: Bytes, stats: &mut Stats) {
        let mut written = 0usize;
        if self.write_queue.is_empty() {
            loop {
                match self.stream.write(&frame[written..]) {
                    Ok(0) => {
                        self.dead = true;
                        return;
                    }
                    Ok(n) => {
                        written += n;
                        if written == frame.len() {
                            stats.frames_out += 1;
                            return;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        return;
                    }
                }
            }
            stats.write_stalls += 1;
            self.write_pos = written;
        }
        self.queued_bytes += frame.len() - written;
        self.write_queue.push_back(frame);
    }

    /// Drains the write queue while the socket accepts bytes; lifts the
    /// read pause once the backlog halves.
    fn write_ready(&mut self, stats: &mut Stats) {
        while let Some(front) = self.write_queue.front() {
            match self.stream.write(&front[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.queued_bytes -= n;
                    if self.write_pos == front.len() {
                        self.write_queue.pop_front();
                        self.write_pos = 0;
                        stats.frames_out += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.paused && self.queued_bytes <= self.write_buf_cap / 2 {
            self.paused = false;
        }
    }
}

/// One reactor thread. Reactor 0 receives the listener and accepts;
/// every reactor serves the connections it owns until the stop flag.
pub(crate) fn reactor_loop(shared: &Arc<ReactorShared>, idx: usize, listener: Option<TcpListener>) {
    use std::os::fd::AsRawFd;
    let write_buf_cap = shared.manager.serve_config().write_buf_cap();
    let recorder = shared.manager.recorder();
    let mut conns: Vec<Conn> = Vec::new();
    let mut stats = Stats::default();
    let mut next_reactor = 0usize;
    let mut last_flush = Instant::now();

    while !shared.stop.load(Ordering::Acquire) {
        for stream in lock(&shared.inboxes[idx]).drain(..) {
            conns.push(Conn::new(stream, write_buf_cap));
        }
        let mut fds = Vec::with_capacity(conns.len() + 1);
        if let Some(l) = &listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for c in &conns {
            let mut events = 0i16;
            if !c.paused && !c.peer_done {
                events |= POLLIN;
            }
            if !c.write_queue.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), events));
        }
        let ready = poll_fds(&mut fds, POLL_TIMEOUT_MS).unwrap_or(0);
        if ready > 0 {
            stats.wakeups += 1;
            stats.ready_events += ready as u64;
            if let Some(l) = &listener {
                if fds[0].revents & POLLIN != 0 {
                    accept_ready(l, shared, idx, &mut next_reactor, &mut conns, &mut stats);
                    // The accept may have grown `conns` past the pollfd
                    // set; new entries are polled next iteration.
                }
            }
            for (i, fd) in fds[base..].iter().enumerate() {
                let Some(c) = conns.get_mut(i) else { break };
                let re = fd.revents;
                if re == 0 {
                    continue;
                }
                if re & (POLLERR | POLLNVAL) != 0 {
                    c.dead = true;
                    continue;
                }
                if re & POLLOUT != 0 {
                    c.write_ready(&mut stats);
                }
                if re & (POLLIN | POLLHUP) != 0 && !c.paused && !c.peer_done && !c.dead {
                    c.read_ready(shared, &mut stats);
                }
            }
        }
        // The tick: analyse what this wakeup admitted (and whatever
        // else is queued), then answer the held ingests with the events
        // their inputs caused.
        shared.manager.process();
        for c in &mut conns {
            c.answer_held(&shared.manager, &mut stats);
        }
        conns.retain(|c| {
            if c.done() {
                stats.conns_closed += 1;
                false
            } else {
                true
            }
        });
        if last_flush.elapsed() >= STATS_FLUSH {
            stats.flush(recorder);
            last_flush = Instant::now();
        }
    }

    // Stopping: flush what the peers are still reading (the shutdown
    // `Bye` in particular), bounded, then close everything.
    let deadline = Instant::now() + SHUTDOWN_FLUSH;
    loop {
        conns.retain(|c| {
            if c.dead || c.write_queue.is_empty() {
                stats.conns_closed += 1;
                false
            } else {
                true
            }
        });
        if conns.is_empty() || Instant::now() >= deadline {
            break;
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| {
                use std::os::fd::AsRawFd;
                PollFd::new(c.stream.as_raw_fd(), POLLOUT)
            })
            .collect();
        if poll_fds(&mut fds, 10).unwrap_or(0) > 0 {
            for (i, fd) in fds.iter().enumerate() {
                if fd.revents & POLLOUT != 0 {
                    if let Some(c) = conns.get_mut(i) {
                        c.write_ready(&mut stats);
                    }
                }
            }
        }
    }
    stats.conns_closed += conns.len() as u64;
    stats.flush(recorder);
}

/// Accepts every pending connection, distributing round-robin across
/// the reactor set (own connections are kept directly; others go
/// through an inbox and are picked up within one poll timeout).
fn accept_ready(
    listener: &TcpListener,
    shared: &ReactorShared,
    idx: usize,
    next_reactor: &mut usize,
    conns: &mut Vec<Conn>,
    stats: &mut Stats,
) {
    let write_buf_cap = shared.manager.serve_config().write_buf_cap();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                stats.conns_opened += 1;
                let target = *next_reactor % shared.inboxes.len();
                *next_reactor += 1;
                if target == idx {
                    conns.push(Conn::new(stream, write_buf_cap));
                } else {
                    lock(&shared.inboxes[target]).push(stream);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
