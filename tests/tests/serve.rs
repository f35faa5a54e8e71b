//! Serving-layer contracts, end to end over the loopback wire protocol:
//!
//! * **Bit-equality under multi-tenancy** — K concurrent sessions
//!   streamed through one server produce, per session, exactly the
//!   events a standalone serial [`RimStream`] produces for the same
//!   samples. Cross-session batching, sharding, wire encoding, and the
//!   scheduler's arbitrary interleaving must all be invisible in the
//!   output bits (the repo's determinism invariant extended to the
//!   service). Run under `RIM_THREADS=1` and `=4` by CI.
//! * **Answers carry their own estimates** — each ingest's answer
//!   carries exactly the events its own input caused, so a served
//!   estimate never waits for the session's next request.
//! * **Backpressure isolation** — a flooded session is throttled, and
//!   neither the throttling nor the flood changes a well-behaved
//!   neighbour's results.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{line, OrientationMode, Trajectory};
use rim_channel::ChannelSimulator;
use rim_core::stream::{RimStream, StreamEvent};
use rim_core::{ImuSample, RimConfig, StreamEventKind, StreamInput};
use rim_csi::{
    synced_from_recording, CsiRecorder, CsiRecording, DeviceConfig, LossModel, RecorderConfig,
};
use rim_dsp::geom::Point2;
use rim_integration_tests::{FS, SPACING};
use rim_sensors::{ImuConfig, SimulatedImu};
use rim_serve::{Admit, Client, ServeConfig, Server, SessionManager};
use rim_tracking::Fuser;
use std::sync::Arc;

fn geometry() -> ArrayGeometry {
    ArrayGeometry::linear(3, SPACING)
}

/// A 2 m line at 1 m/s: ~200 samples at the test rate.
fn walk() -> Trajectory {
    line(
        Point2::new(0.0, 2.0),
        0.0,
        2.0,
        1.0,
        FS,
        OrientationMode::FollowPath,
    )
}

fn clean_recording() -> CsiRecording {
    let sim = ChannelSimulator::open_lab(7);
    let geometry = geometry();
    CsiRecorder::new(
        &sim,
        DeviceConfig::single_nic(geometry.offsets().to_vec()),
        RecorderConfig {
            sanitize: true,
            seed: 7,
        },
    )
    .record(&walk())
}

/// The per-session input: each tenant sees its own loss realisation, so
/// the sessions are genuinely different streams, not copies.
fn session_recording(clean: &CsiRecording, k: u64) -> CsiRecording {
    clean.degrade(LossModel::Iid { p: 0.1 }, 0x5EED + k)
}

/// Ground truth: a standalone serial stream fed the same samples.
fn standalone_events(recording: &CsiRecording) -> Vec<StreamEvent> {
    let mut stream = RimStream::new(geometry(), RimConfig::for_sample_rate(FS).with_threads(1))
        .expect("valid config");
    let mut events = Vec::new();
    for sample in synced_from_recording(recording) {
        events.extend(stream.ingest(sample).expect("ingest never errors"));
    }
    events.extend(stream.finish());
    events
}

/// Events compare via `Debug`: f64 formats as its shortest
/// round-trippable representation, so equal strings ⇔ equal bits.
fn fingerprint(events: &[StreamEvent]) -> String {
    format!("{events:#?}")
}

/// Run with one reactor and with two: two reactors tick the one
/// manager concurrently, and that must be invisible in the bits too.
#[test]
fn concurrent_sessions_are_bit_identical_to_standalone_streams() {
    for io_threads in [1, 2] {
        concurrent_sessions_match_standalone(io_threads);
    }
}

fn concurrent_sessions_match_standalone(io_threads: usize) {
    const K: u64 = 8;
    let clean = clean_recording();
    let manager = Arc::new(
        SessionManager::new(
            geometry(),
            RimConfig::for_sample_rate(FS),
            // A queue much shorter than the capture, so sessions hit
            // real backpressure mid-stream and retry — throttling must
            // not perturb results either.
            ServeConfig::builder()
                .queue_depth(16)
                .io_threads(io_threads)
                .build()
                .expect("valid config"),
        )
        .expect("valid config"),
    );
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&manager)).expect("bind");
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for k in 0..K {
        let recording = session_recording(&clean, k);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut events = Vec::new();
            for sample in synced_from_recording(&recording) {
                let (admit, drained) = client.ingest_blocking(k, sample).expect("ingest");
                assert_eq!(admit, Admit::Accepted, "session {k} rejected");
                events.extend(drained);
            }
            events.extend(client.finish(k).expect("finish"));
            (k, events)
        }));
    }
    for h in handles {
        let (k, served) = h.join().expect("session thread");
        let expected = standalone_events(&session_recording(&clean, k));
        assert!(
            !expected.is_empty(),
            "session {k}: reference produced no events"
        );
        assert_eq!(
            fingerprint(&served),
            fingerprint(&expected),
            "session {k} diverged from its standalone stream ({io_threads} reactors)"
        );
    }
    assert_eq!(manager.sessions_active(), 0, "all sessions finished");
    // Clean shutdown over the wire.
    let mut closer = Client::connect(addr).expect("connect");
    closer.shutdown().expect("shutdown handshake");
    server.shutdown();
    assert!(!manager.accepting());
}

/// A served estimate is only useful as soon as its sample has been
/// analysed: with the default configuration, every `ingest` and
/// `ingest_imu` answer carries exactly — bit for bit — the events a
/// standalone fused stream returns for that same input, so an IMU
/// batch's answer carries its own `Fused` estimate and no event waits
/// for the session's next request.
#[test]
fn each_ingest_answer_carries_exactly_its_own_events() {
    const IMU_BATCH: usize = 4;
    let recording = session_recording(&clean_recording(), 0);
    let imu = SimulatedImu::new(ImuConfig::consumer(), 7).sample(&walk());
    let samples = synced_from_recording(&recording);
    // The session's inputs in send order: an IMU batch after every
    // fourth CSI sample, on the CSI clock.
    let mut inputs: Vec<StreamInput> = Vec::new();
    for (i, sample) in samples.into_iter().enumerate() {
        inputs.push(sample.into());
        if (i + 1) % IMU_BATCH == 0 && i < imu.len() {
            let batch = (i + 1 - IMU_BATCH..=i)
                .map(|j| ImuSample {
                    t_us: (j as f64 / FS * 1e6) as u64,
                    accel_body: imu.accel_body[j],
                    gyro_z: imu.gyro_z[j],
                    mag_orientation: Some(imu.mag_orientation[j]),
                })
                .collect();
            inputs.push(StreamInput::Imu(batch));
        }
    }

    let manager = Arc::new(
        SessionManager::new(
            geometry(),
            RimConfig::for_sample_rate(FS),
            ServeConfig::default(),
        )
        .expect("valid config"),
    );
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&manager)).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut reference = Fuser::builder()
        .build()
        .expect("default knobs are valid")
        .stream(
            RimStream::new(geometry(), RimConfig::for_sample_rate(FS).with_threads(1))
                .expect("valid config"),
        );

    let mut fused_answers = 0;
    let mut imu_batches = 0;
    for (n, input) in inputs.into_iter().enumerate() {
        let is_imu = matches!(input, StreamInput::Imu(_));
        let (admit, served) = match input.clone() {
            StreamInput::Imu(batch) => client.ingest_imu(1, batch),
            StreamInput::Synced(sample) => client.ingest(1, sample),
            other => panic!("unexpected input {other:?}"),
        }
        .expect("round trip");
        assert_eq!(admit, Admit::Accepted, "input {n} not admitted");
        let expected = reference.ingest(input).expect("reference ingest");
        assert_eq!(
            fingerprint(&served),
            fingerprint(&expected),
            "input {n}: the answer does not carry exactly this input's events"
        );
        if is_imu {
            imu_batches += 1;
            fused_answers += usize::from(served.iter().any(|e| e.kind() == StreamEventKind::Fused));
        }
    }
    assert!(imu_batches > 0);
    assert_eq!(
        fused_answers, imu_batches,
        "every IMU batch's answer carries its fused estimate"
    );
    assert_eq!(
        fingerprint(&client.finish(1).expect("finish")),
        fingerprint(&reference.finish()),
        "finish carries exactly the flush"
    );
    server.shutdown();
}

/// The deadline path must be invisible too: with a tight latency budget
/// the admission predictor throttles and the EDF scheduler reorders
/// sessions by deadline, yet every admitted sample still lands in its
/// session in order — per-tenant output stays bit-identical to a
/// standalone stream. (Clients use `ingest_blocking`, so throttled
/// samples are retried rather than lost.)
#[test]
fn deadline_scheduling_is_bit_invisible_per_tenant() {
    const K: u64 = 4;
    let clean = clean_recording();
    let manager = Arc::new(
        SessionManager::new(
            geometry(),
            RimConfig::for_sample_rate(FS),
            ServeConfig::builder()
                .queue_depth(8)
                .latency_budget_us(5_000)
                .retry_after_ms(1)
                .build()
                .expect("valid config"),
        )
        .expect("valid config"),
    );
    let mut server = Server::bind("127.0.0.1:0", Arc::clone(&manager)).expect("bind");
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for k in 0..K {
        let recording = session_recording(&clean, k);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut events = Vec::new();
            for sample in synced_from_recording(&recording) {
                let (admit, drained) = client.ingest_blocking(k, sample).expect("ingest");
                assert_eq!(admit, Admit::Accepted, "session {k} rejected");
                events.extend(drained);
            }
            events.extend(client.finish(k).expect("finish"));
            (k, events)
        }));
    }
    for h in handles {
        let (k, served) = h.join().expect("session thread");
        let expected = standalone_events(&session_recording(&clean, k));
        assert_eq!(
            fingerprint(&served),
            fingerprint(&expected),
            "session {k} diverged under deadline scheduling"
        );
    }
    server.shutdown();
}

#[test]
fn flooded_session_is_throttled_without_perturbing_neighbours() {
    let clean = clean_recording();
    let manager = SessionManager::new(
        geometry(),
        RimConfig::for_sample_rate(FS),
        ServeConfig::builder()
            .queue_depth(4)
            .build()
            .expect("valid config"),
    )
    .expect("valid config");

    // Flood session 1 without letting the scheduler drain it: the queue
    // caps at 4 and everything past that is throttled, not queued.
    let flood_input = session_recording(&clean, 1);
    let flood_samples = synced_from_recording(&flood_input);
    let mut throttled = 0;
    let mut accepted_samples = Vec::new();
    for sample in &flood_samples {
        match manager.ingest(1, sample.clone()) {
            Admit::Accepted => accepted_samples.push(sample.clone()),
            Admit::Throttled { .. } => throttled += 1,
            Admit::Rejected { reason } => panic!("unexpected reject: {reason:?}"),
        }
    }
    assert_eq!(accepted_samples.len(), 4, "queue bound respected");
    assert_eq!(throttled, flood_samples.len() - 4);

    // A neighbour streams its full capture with the scheduler running
    // normally, sharing the pool with the flooded session's backlog.
    let neighbour_input = session_recording(&clean, 2);
    let mut neighbour_events = Vec::new();
    for sample in synced_from_recording(&neighbour_input) {
        loop {
            match manager.ingest(2, sample.clone()) {
                Admit::Accepted => break,
                Admit::Throttled { .. } => {
                    manager.process();
                }
                Admit::Rejected { reason } => panic!("unexpected reject: {reason:?}"),
            }
        }
        manager.process();
        neighbour_events.extend(manager.drain_events(2));
    }
    neighbour_events.extend(manager.finish(2));
    assert_eq!(
        fingerprint(&neighbour_events),
        fingerprint(&standalone_events(&neighbour_input)),
        "flooded neighbour perturbed session 2"
    );

    // The flooded session still analyses exactly what was admitted.
    let flood_events = manager.finish(1);
    let mut reference = RimStream::new(geometry(), RimConfig::for_sample_rate(FS).with_threads(1))
        .expect("valid config");
    let mut expected = Vec::new();
    for sample in accepted_samples {
        expected.extend(reference.ingest(sample).expect("ingest"));
    }
    expected.extend(reference.finish());
    assert_eq!(
        fingerprint(&flood_events),
        fingerprint(&expected),
        "flooded session lost or reordered admitted samples"
    );
}
