//! Reactor edge cases, driven over raw sockets so the tests control
//! exactly what hits the wire and when:
//!
//! * a frame arriving in pieces across multiple readiness events is
//!   assembled and answered normally;
//! * a client that half-closes mid-frame is dropped without taking the
//!   server (or its neighbours) down;
//! * a half-close right after a complete request still gets its
//!   response before the server closes the connection;
//! * a slow reader that lets the server's per-connection write queue
//!   overflow gets clean `Rejected { Backpressure }` answers (and
//!   suppressed telemetry snapshots) instead of an unbounded buffer —
//!   and the connection recovers once the reader drains.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::RimConfig;
use rim_csi::sync::SyncedSample;
use rim_csi::{synced_from_recording, CsiRecorder, DeviceConfig, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_integration_tests::{FS, SPACING};
use rim_serve::wire::{self, Request, Response};
use rim_serve::{Admit, Client, RejectReason, ServeConfig, Server, SessionManager};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn geometry() -> ArrayGeometry {
    ArrayGeometry::linear(3, SPACING)
}

/// A handful of real samples to ingest (a short lab walk).
fn samples() -> Vec<SyncedSample> {
    let sim = ChannelSimulator::open_lab(7);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        0.3,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
    let recording = CsiRecorder::new(
        &sim,
        DeviceConfig::single_nic(geometry().offsets().to_vec()),
        RecorderConfig {
            sanitize: true,
            seed: 7,
        },
    )
    .record(&traj);
    synced_from_recording(&recording)
}

fn server_with(serve_cfg: ServeConfig) -> (Server, Arc<SessionManager>) {
    let manager = Arc::new(
        SessionManager::new(geometry(), RimConfig::for_sample_rate(FS), serve_cfg)
            .expect("valid config"),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&manager)).expect("bind");
    (server, manager)
}

fn read_response(stream: &mut TcpStream) -> Response {
    let body = wire::read_frame(stream)
        .expect("read frame")
        .expect("server hung up");
    Response::decode(&body).expect("decodable response")
}

#[test]
fn partial_frame_across_readiness_events_is_assembled() {
    let (mut server, _) = server_with(ServeConfig::default());
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let sample = samples().remove(0);
    let frame = Request::Ingest {
        session_id: 7,
        sample,
    }
    .encode();
    let bytes: &[u8] = &frame;
    // Three separate writes with pauses: the length prefix split from
    // the body, the body split again. Each chunk is its own readiness
    // event; the reactor must buffer until the frame completes.
    let cuts = [2, bytes.len() / 2, bytes.len()];
    let mut start = 0;
    for cut in cuts {
        stream.write_all(&bytes[start..cut]).expect("write chunk");
        stream.flush().expect("flush");
        start = cut;
        std::thread::sleep(Duration::from_millis(20));
    }
    match read_response(&mut stream) {
        Response::Admit { admit, .. } => assert_eq!(admit, Admit::Accepted),
        other => panic!("expected Admit, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn half_close_mid_frame_drops_the_connection_not_the_server() {
    let (mut server, _) = server_with(ServeConfig::default());
    let addr = server.local_addr();

    // Client A dies mid-frame: a length prefix promising 100 bytes,
    // ten bytes of body, then FIN.
    let mut dying = TcpStream::connect(addr).expect("connect");
    dying
        .write_all(&100u32.to_be_bytes())
        .and_then(|()| dying.write_all(&[0u8; 10]))
        .expect("write partial frame");
    dying.shutdown(Shutdown::Write).expect("half-close");
    // The server closes the connection rather than waiting forever for
    // the rest of the frame.
    assert!(
        wire::read_frame(&mut dying).expect("clean close").is_none(),
        "server should close a half-dead connection without a response"
    );

    // A well-behaved neighbour is unaffected.
    let mut client = Client::connect(addr).expect("connect neighbour");
    let (admit, _) = client
        .ingest_blocking(1, samples().remove(0))
        .expect("ingest");
    assert_eq!(admit, Admit::Accepted);
    server.shutdown();
}

#[test]
fn half_close_after_a_complete_request_still_gets_its_response() {
    let (mut server, _) = server_with(ServeConfig::default());
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&Request::Metrics.encode())
        .expect("write metrics request");
    stream.shutdown(Shutdown::Write).expect("half-close");

    // The request was complete before the FIN, so the reactor flushes
    // the response before closing.
    match read_response(&mut stream) {
        Response::MetricsSnapshot { text } => {
            assert!(text.starts_with("# rim-serve metrics v1"));
        }
        other => panic!("expected MetricsSnapshot, got {other:?}"),
    }
    assert!(
        wire::read_frame(&mut stream)
            .expect("clean close")
            .is_none(),
        "connection closes after the flush"
    );
    server.shutdown();
}

#[test]
fn slow_reader_overflow_is_rejected_cleanly_and_recovers() {
    // The smallest permitted write queue, so the overflow threshold is
    // well under what the kernel socket buffers can absorb. Tracing
    // every sample fattens the telemetry snapshot (16 trace lines) so a
    // burst of metrics requests outruns even an autotuned ~4 MB kernel
    // send buffer and forces the queue over its cap.
    let (mut server, _) = server_with(
        ServeConfig::builder()
            .write_buf_cap(1024)
            .trace_every(1)
            .build()
            .expect("valid config"),
    );
    let addr = server.local_addr();

    // Prime the tracer: stream enough samples that the snapshot carries
    // its full 16 recent-trace lines, and wait until it does.
    let mut primer = Client::connect(addr).expect("connect primer");
    for sample in samples() {
        primer.ingest_blocking(3, sample).expect("prime ingest");
    }
    let mut snapshot_len = 0usize;
    for _ in 0..400 {
        let text = primer.metrics().expect("metrics");
        snapshot_len = text.len();
        if text.matches("\ntrace ").count() >= 16 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        snapshot_len > 1200,
        "snapshot too small ({snapshot_len} B) to ever overflow the kernel buffers"
    );

    // The scenario races the client's burst against the reactor's read
    // loop (a preemption mid-burst can let the server answer the tail
    // after the queue drained), so allow a couple of attempts.
    let mut last_failure = String::new();
    for attempt in 0..3 {
        match overflow_scenario(addr, snapshot_len) {
            Ok(()) => {
                server.shutdown();
                return;
            }
            Err(e) => {
                eprintln!("attempt {attempt}: {e}");
                last_failure = e;
            }
        }
    }
    panic!("overflow never triggered cleanly: {last_failure}");
}

/// One slow-reader episode: pipeline a wall of metrics requests and a
/// trailing ingest burst without reading, then drain and check the
/// server answered the overflow with suppressed snapshots and clean
/// `Rejected {{ Backpressure }}` — and that the connection recovers.
fn overflow_scenario(addr: std::net::SocketAddr, snapshot_len: usize) -> Result<(), String> {
    // Enough requests that the full-size responses total several times
    // the kernel's autotuned buffer ceiling (~4.3 MB).
    let metrics_burst = (12 << 20) / snapshot_len.max(1);
    const INGEST_BURST: usize = 5;
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;

    let sample = samples().remove(0);
    let mut burst = Vec::new();
    for _ in 0..metrics_burst {
        burst.extend_from_slice(&Request::Metrics.encode());
    }
    for _ in 0..INGEST_BURST {
        burst.extend_from_slice(
            &Request::Ingest {
                session_id: 9,
                sample: sample.clone(),
            }
            .encode(),
        );
    }
    stream.write_all(&burst).map_err(|e| e.to_string())?;
    stream.flush().map_err(|e| e.to_string())?;
    // Be a genuinely slow reader: give the server time to answer the
    // whole pipeline while nothing is drained, so the responses pile
    // into the kernel buffers and then the per-connection queue.
    std::thread::sleep(Duration::from_millis(1500));

    // Now drain everything like a reader that finally woke up.
    let mut full_snapshots = 0usize;
    let mut suppressed = 0usize;
    let mut rejected = 0usize;
    let mut admitted = 0usize;
    for _ in 0..metrics_burst + INGEST_BURST {
        match read_response(&mut stream) {
            Response::MetricsSnapshot { text } => {
                if text.contains("backpressure.suppressed") {
                    suppressed += 1;
                } else {
                    full_snapshots += 1;
                }
            }
            Response::Admit { admit, .. } => match admit {
                Admit::Rejected {
                    reason: RejectReason::Backpressure,
                } => rejected += 1,
                Admit::Accepted | Admit::Throttled { .. } => admitted += 1,
                other => panic!("unexpected admission {other:?}"),
            },
            other => panic!("unexpected response {other:?}"),
        }
    }
    if full_snapshots + suppressed != metrics_burst {
        return Err(format!(
            "lost snapshots: {full_snapshots} full + {suppressed} suppressed != {metrics_burst}"
        ));
    }
    if suppressed == 0 {
        return Err(format!(
            "the write queue never overflowed — all {full_snapshots} snapshots fit"
        ));
    }
    if rejected != INGEST_BURST {
        return Err(format!(
            "ingests behind an overflowed queue must be rejected \
             ({rejected} rejected, {admitted} admitted)"
        ));
    }

    // The connection recovers once drained: a fresh ingest is admitted.
    stream
        .write_all(
            &Request::Ingest {
                session_id: 9,
                sample,
            }
            .encode(),
        )
        .map_err(|e| e.to_string())?;
    match read_response(&mut stream) {
        Response::Admit { admit, .. } => {
            if admit != Admit::Accepted {
                return Err(format!("recovery ingest not accepted: {admit:?}"));
            }
        }
        other => return Err(format!("expected Admit, got {other:?}")),
    }
    Ok(())
}
