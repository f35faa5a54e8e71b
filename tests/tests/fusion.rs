//! Cross-crate contracts of the RIM×IMU fusion engine: fused output is
//! bit-identical at any worker-thread count, the R = 0 distance
//! correction makes an ideal-IMU fused track agree with RIM-only to
//! floating-point accuracy, and fusion rides through a CSI blackout
//! that dead-reckoned RIM cannot.

use proptest::prelude::*;
use rim_array::ArrayGeometry;
use rim_channel::trajectory::{dwell, line, OrientationMode, Trajectory};
use rim_channel::ChannelSimulator;
use rim_core::stream::{RimStream, StreamAggregate};
use rim_core::{ImuSample, RimConfig, StreamEvent};
use rim_csi::{synced_from_recording, CsiRecorder, DeviceConfig, RecorderConfig, SyncedSample};
use rim_dsp::geom::{Point2, Vec2};
use rim_integration_tests::{FS, SPACING};
use rim_sensors::{ImuConfig, ImuRecording, SimulatedImu};
use rim_tracking::Fuser;

/// Records a trajectory into synced per-sample CSI with the standard
/// 3-antenna linear array.
fn record(traj: &Trajectory, seed: u64) -> (ArrayGeometry, Vec<SyncedSample>) {
    let sim = ChannelSimulator::open_lab(seed);
    let geo = ArrayGeometry::linear(3, SPACING);
    let recording = CsiRecorder::new(
        &sim,
        DeviceConfig::single_nic(geo.offsets().to_vec()),
        RecorderConfig {
            sanitize: true,
            seed,
        },
    )
    .record(traj);
    (geo, synced_from_recording(&recording))
}

/// One IMU sample per CSI sample, on the shared clock.
fn imu_sample(imu: &ImuRecording, i: usize) -> ImuSample {
    ImuSample {
        t_us: (i as f64 / FS * 1e6) as u64,
        accel_body: imu.accel_body[i],
        gyro_z: imu.gyro_z[i],
        mag_orientation: Some(imu.mag_orientation[i]),
    }
}

/// A walked leg with per-step speed oscillation, so the accelerometer
/// sees a gait instead of the zero body acceleration of constant
/// velocity (which any accel-based stance detector reads as standstill).
fn gait_leg(from: Point2, heading: f64, length_m: f64) -> Trajectory {
    const STEP_M: f64 = 0.3;
    let steps = (length_m / STEP_M).round() as usize;
    let speed = |s: usize| if s.is_multiple_of(2) { 1.25 } else { 0.8 };
    let mut leg = line(
        from,
        heading,
        STEP_M,
        speed(0),
        FS,
        OrientationMode::FollowPath,
    );
    for s in 1..steps {
        let end = leg.pose(leg.len() - 1);
        leg.extend(&line(
            end.pos,
            heading,
            STEP_M,
            speed(s),
            FS,
            OrientationMode::FollowPath,
        ));
    }
    leg
}

/// A comparison key that is exact on every float bit. `StreamEvent`
/// carries `f64`s, so equality through `==` would conflate distinct
/// payloads under NaN; fingerprinting through `to_bits` cannot.
fn fingerprint(event: &StreamEvent) -> String {
    match event {
        StreamEvent::Fused {
            t_us,
            position,
            heading,
            velocity,
            covariance_trace,
            mode,
        } => format!(
            "Fused t={t_us} p=({:x},{:x}) th={:x} v={:x} tr={:x} {mode:?}",
            position.x.to_bits(),
            position.y.to_bits(),
            heading.to_bits(),
            velocity.to_bits(),
            covariance_trace.to_bits(),
        ),
        other => format!("{other:?}"),
    }
}

/// Runs the fused stream over interleaved IMU + CSI at a given inner
/// worker-pool size and returns every event's fingerprint.
fn fused_fingerprints(
    geo: &ArrayGeometry,
    samples: &[SyncedSample],
    imu: &ImuRecording,
    threads: usize,
) -> Vec<String> {
    let rim = RimStream::new(
        geo.clone(),
        RimConfig::for_sample_rate(FS).with_threads(threads),
    )
    .expect("valid config");
    let start = Point2::new(0.0, 2.0);
    let fuser = Fuser::builder()
        .initial_position(start)
        .build()
        .expect("default knobs are valid");
    let mut fused = fuser.stream(rim);
    let mut out = Vec::new();
    for (i, sample) in samples.iter().enumerate() {
        let batch = vec![imu_sample(imu, i)];
        out.extend(
            fused
                .ingest(batch)
                .expect("imu ingest")
                .iter()
                .map(fingerprint),
        );
        out.extend(
            fused
                .ingest(sample.clone())
                .expect("csi ingest")
                .iter()
                .map(fingerprint),
        );
    }
    out.extend(fused.finish().iter().map(fingerprint));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fusion layer inherits the stream's determinism contract: the
    /// ESKF is sequential scalar arithmetic and the inner `RimStream` is
    /// bit-identical at any pool size, so every fused event — position,
    /// heading, velocity, covariance trace, mode — must match to the
    /// last bit between 1 and 4 worker threads.
    #[test]
    fn fused_events_are_bit_identical_across_thread_counts(
        seed in 1u64..30,
        length_dm in 20u32..35,
    ) {
        let traj = gait_leg(Point2::new(0.0, 2.0), 0.0, length_dm as f64 / 10.0);
        let (geo, samples) = record(&traj, seed);
        let imu = SimulatedImu::new(ImuConfig::consumer(), seed).sample(&traj);
        let one = fused_fingerprints(&geo, &samples, &imu, 1);
        let four = fused_fingerprints(&geo, &samples, &imu, 4);
        prop_assert_eq!(one, four);
    }
}

/// With a noiseless IMU the fused track must agree with RIM-only to
/// floating-point accuracy: `rim_distance_noise = 0` turns every RIM
/// distance correction into an exact arc reset, so the fused total
/// distance is exactly the sum RIM measured, regardless of what the
/// strapdown propagation did in between.
#[test]
fn ideal_imu_fused_distance_matches_rim_only_within_1e9() {
    // Start from rest: the trajectory must contain the initial
    // acceleration, or the strapdown (which integrates up from v = 0)
    // carries a permanent velocity offset no noiseless sensor can see.
    // It ends mid-motion, so `finish()` closes the walk with the
    // authoritative full-confidence segment (a trailing dwell would
    // close it with a zero-confidence chunk instead, which the
    // confidence floor rightly drops — leaving the arc at the last
    // provisional rather than RIM's final figure).
    let start = Point2::new(0.0, 2.0);
    let mut traj = dwell(start, 0.0, 1.0, FS);
    traj.extend(&gait_leg(start, 0.0, 4.0));

    let (geo, samples) = record(&traj, 5);
    let imu = SimulatedImu::new(ImuConfig::ideal(), 5).sample(&traj);

    // Trust RIM unconditionally: a zero confidence floor admits every
    // segment figure (including the zero-confidence chunk that closes
    // the motion at end of input) and zero distance noise turns each one
    // into an exact arc reset. The stance corrections are neutralised
    // (an ideal accelerometer reads exactly zero between gait steps,
    // which would otherwise clamp mid-leg velocity) and the velocity
    // process noise is opened up so the innovation gate admits RIM's
    // provisional lag.
    let fuser = Fuser::builder()
        .initial_position(start)
        .rim_distance_noise(0.0)
        .confidence_floor(0.0)
        .zupt_velocity_noise(1e6)
        .accel_noise(1.0)
        .build()
        .expect("valid knobs");
    let mut fused = fuser
        .stream(RimStream::new(geo.clone(), RimConfig::for_sample_rate(FS)).expect("valid config"));
    let mut rim_only = RimStream::new(geo, RimConfig::for_sample_rate(FS)).expect("valid config");
    let mut aggregate = StreamAggregate::default();

    for (i, sample) in samples.iter().enumerate() {
        let batch = vec![imu_sample(&imu, i)];
        fused.ingest(batch).expect("imu ingest");
        fused.ingest(sample.clone()).expect("csi ingest");
        aggregate.absorb(&rim_only.ingest(sample.clone()).expect("csi ingest"));
    }
    fused.finish();
    aggregate.absorb(&rim_only.finish());

    let rim_total: f64 = aggregate.segments.iter().map(|s| s.distance_m).sum();
    assert!(rim_total > 3.0, "the walk must register: {rim_total}");
    assert!(
        (fused.total_distance() - rim_total).abs() < 1e-9,
        "fused {} vs rim-only {}",
        fused.total_distance(),
        rim_total
    );
}

/// A 2 s whole-device CSI blackout across the corner of an L-shaped
/// walk: the fused track coasts through on the IMU and keeps emitting
/// estimates, while event-level dead reckoning from the plain stream
/// loses the blacked-out motion for good. Fused final error must beat
/// RIM-only.
#[test]
fn fused_rides_through_a_blackout_that_rim_only_cannot() {
    let start = Point2::new(0.0, 2.0);
    let mut traj = gait_leg(start, 0.0, 4.0);
    let end = traj.pose(traj.len() - 1);
    traj.extend(&dwell(end.pos, end.orientation, 2.0, FS));
    let end = traj.pose(traj.len() - 1);
    traj.extend(&gait_leg(end.pos, std::f64::consts::FRAC_PI_2, 4.0));
    let end = traj.pose(traj.len() - 1);
    traj.extend(&dwell(end.pos, end.orientation, 1.0, FS));

    let (geo, samples) = record(&traj, 9);
    let imu = SimulatedImu::new(ImuConfig::consumer(), 9).sample(&traj);

    // Blackout covering the corner: the dwell's tail and the start of
    // the second leg, so RIM never sees the turn settle.
    let blackout = |i: usize| (5.0..7.0).contains(&(i as f64 / FS));

    let fuser = Fuser::builder()
        .initial_position(start)
        .zupt_window((0.4 * FS) as usize)
        .rim_heading_noise(f64::INFINITY)
        .accel_noise(0.3)
        .build()
        .expect("valid knobs");
    let mut fused = fuser
        .stream(RimStream::new(geo.clone(), RimConfig::for_sample_rate(FS)).expect("valid config"));
    let mut rim_only = RimStream::new(geo, RimConfig::for_sample_rate(FS)).expect("valid config");

    // Dead-reckoned position from the plain stream's segment events.
    let mut rim_position = start;
    let mut fused_during_blackout = 0usize;
    for (i, sample) in samples.iter().enumerate() {
        let batch = vec![imu_sample(&imu, i)];
        let events = fused.ingest(batch).expect("imu ingest");
        if blackout(i) {
            fused_during_blackout += events
                .iter()
                .filter(|e| matches!(e, StreamEvent::Fused { .. }))
                .count();
            continue;
        }
        fused.ingest(sample.clone()).expect("csi ingest");
        for event in rim_only.ingest(sample.clone()).expect("csi ingest") {
            if let StreamEvent::Segment(seg) = event {
                let dir = seg.heading_device.unwrap_or(0.0);
                rim_position += Vec2::new(dir.cos(), dir.sin()) * seg.distance_m;
            }
        }
    }
    fused.finish();
    for event in rim_only.finish() {
        if let StreamEvent::Segment(seg) = event {
            let dir = seg.heading_device.unwrap_or(0.0);
            rim_position += Vec2::new(dir.cos(), dir.sin()) * seg.distance_m;
        }
    }

    let truth = traj.pose(traj.len() - 1).pos;
    let fused_err = fused.position().distance(truth);
    let rim_err = rim_position.distance(truth);
    assert!(
        fused_during_blackout > 0,
        "fused estimates must keep flowing during the blackout"
    );
    assert!(
        fused.coast_time_us() > 0,
        "the blackout must register as coasting"
    );
    assert!(
        fused_err < rim_err,
        "fused {fused_err:.2} m must beat RIM-only {rim_err:.2} m through the blackout"
    );
}
