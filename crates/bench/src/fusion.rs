//! The fusion blackout gate: final position error of RIM-only, IMU-only,
//! and RIM×IMU fused tracking over a long walk with a mid-run CSI
//! blackout.
//!
//! The workload is a ~64 s stop-and-go square walk (two laps, corner
//! dwells) in the open lab, sampled by both the CSI recorder and a
//! consumer-grade simulated IMU. A 2 s whole-device CSI blackout is
//! injected mid-leg. The three estimators then consume the *same*
//! streams:
//!
//! * **RIM-only** — a plain [`RimStream`] over the gapped CSI, dead-
//!   reckoned from its segment events (distance + device heading +
//!   measured rotation). The blackout splits the open segment and the
//!   in-gap distance is simply never measured; with a linear array the
//!   corner turns are invisible too.
//! * **IMU-only** — the textbook strapdown mechanisation
//!   ([`rim_sensors::double_integrate_accel`] over
//!   [`rim_sensors::integrate_gyro`]); it diverges quadratically, which
//!   is the paper's §6.2.1 point.
//! * **Fused** — the [`rim_tracking::FusedStream`] error-state Kalman
//!   filter: IMU propagation, RIM distance/heading corrections,
//!   zero-velocity updates during the dwells, and IMU coasting through
//!   the blackout.
//!
//! The headline gate (the test below) is that the fused final position
//! error is strictly below both baselines, with the filter coasting
//! through all but 0.5 s of the blackout.

use crate::env;
use rim_channel::trajectory::{dwell, line, OrientationMode, Trajectory};
use rim_channel::ChannelSimulator;
use rim_core::{ImuSample, RimConfig, RimStream, StreamEvent};
use rim_csi::{synced_from_recording, CsiRecorder, RecorderConfig};
use rim_dsp::geom::{Point2, Vec2};
use rim_dsp::stats::wrap_angle;
use rim_sensors::{double_integrate_accel, integrate_gyro, ImuConfig, SimulatedImu};
use rim_tracking::Fuser;

/// Side length of the square walk, metres.
const SIDE_M: f64 = 6.0;

/// Mean walking speed, m/s.
const SPEED_MPS: f64 = 1.0;

/// Gait granularity: the walk alternates fast/slow every `STEP_M`
/// metres, so the accelerometer sees per-step speed oscillation the way
/// it does on a real walker. A constant-velocity leg reads as zero body
/// acceleration — indistinguishable from standstill to any
/// accelerometer-based stance detector.
const STEP_M: f64 = 0.3;

/// Stationary dwell at each corner, seconds — long enough for the
/// movement watchdog to close the segment and for the ZUPT detector to
/// declare stance.
const DWELL_S: f64 = 2.0;

/// Number of laps around the square (8 legs ≈ 64 s total).
const LAPS: usize = 2;

/// CSI blackout window, seconds — strictly inside the fourth leg's
/// moving phase, so the blackout hides real motion from RIM.
const BLACKOUT_S: (f64, f64) = (26.0, 28.0);

struct Outcome {
    duration_s: f64,
    rim_only_final: f64,
    imu_only_final: f64,
    fused_final: f64,
    fused_events: usize,
    zupt_count: u64,
    rim_updates: u64,
    coast_time_s: f64,
}

/// One walked leg with gait bounce: `SIDE_M` metres along `heading`,
/// alternating 1.25×/0.8× the mean speed every [`STEP_M`] so the body
/// acceleration oscillates per step instead of vanishing.
fn walk_leg(from: Point2, heading: f64, fs: f64) -> Trajectory {
    let steps = (SIDE_M / STEP_M).round() as usize;
    let speed = |s: usize| SPEED_MPS * if s.is_multiple_of(2) { 1.25 } else { 0.8 };
    let mut leg = line(
        from,
        heading,
        STEP_M,
        speed(0),
        fs,
        OrientationMode::FollowPath,
    );
    for s in 1..steps {
        let end = leg.pose(leg.len() - 1);
        leg.extend(&line(
            end.pos,
            heading,
            STEP_M,
            speed(s),
            fs,
            OrientationMode::FollowPath,
        ));
    }
    leg
}

/// The stop-and-go square walk: `LAPS` laps of four `SIDE_M` legs with a
/// `DWELL_S` stationary hold at every corner.
fn workload(fs: f64) -> Trajectory {
    let start = Point2::new(0.0, 2.0);
    let mut traj = walk_leg(start, 0.0, fs);
    for leg in 1..4 * LAPS {
        let end = traj.pose(traj.len() - 1);
        traj.extend(&dwell(end.pos, end.orientation, DWELL_S, fs));
        let heading = (leg % 4) as f64 * std::f64::consts::FRAC_PI_2;
        let end = traj.pose(traj.len() - 1);
        traj.extend(&walk_leg(end.pos, heading, fs));
    }
    let end = traj.pose(traj.len() - 1);
    traj.extend(&dwell(end.pos, end.orientation, DWELL_S, fs));
    traj
}

/// Event-level dead reckoning from a plain RIM stream: accumulate each
/// segment's measured rotation into the device orientation, then step
/// the position along the segment's device-relative heading. This is
/// what an application without inertial sensors can reconstruct.
#[derive(Debug)]
pub(crate) struct RimDeadReckoner {
    pub(crate) position: Point2,
    pub(crate) orientation: f64,
}

impl RimDeadReckoner {
    pub(crate) fn absorb(&mut self, events: &[StreamEvent]) {
        for event in events {
            if let StreamEvent::Segment(seg) = event {
                self.orientation = wrap_angle(self.orientation + seg.rotation_rad);
                let dir = self.orientation + seg.heading_device.unwrap_or(0.0);
                self.position += Vec2::new(dir.cos(), dir.sin()) * seg.distance_m;
            }
        }
    }
}

fn run(fs: f64) -> Outcome {
    let traj = workload(fs);
    let start = traj.pose(0).pos;
    let sim = ChannelSimulator::open_lab(7);
    let geo = env::linear_array();
    let recording = CsiRecorder::new(
        &sim,
        env::device_for(&geo),
        RecorderConfig {
            sanitize: true,
            seed: 7,
        },
    )
    .record(&traj);
    let samples = synced_from_recording(&recording);
    let imu = SimulatedImu::new(ImuConfig::consumer(), 11).sample(&traj);

    // IMU-only strapdown baseline over the full recording.
    let orientation = integrate_gyro(&imu.gyro_z, fs, 0.0);
    let imu_track = double_integrate_accel(&imu.accel_body, &orientation, fs, start);

    // Consumer-grade tuning. The stance window is sized past the gait
    // period so only the corner dwells — not the lull between two steps —
    // read as standstill. The RIM heading observation is disabled: with
    // the device carried along the path (`OrientationMode::FollowPath`)
    // every segment reports `heading_device ≈ 0`, so the observation only
    // re-pins the heading to its anchor-time value and fights the (far
    // more accurate) gyro integration. And the velocity process noise is
    // raised to absorb the consumer accelerometer's ~0.25 m/s² turn-on
    // bias, which the 2D error state does not model explicitly.
    let fuser = Fuser::builder()
        .initial_position(start)
        .zupt_window((0.4 * fs) as usize)
        .rim_heading_noise(f64::INFINITY)
        .accel_noise(0.3)
        .build()
        .expect("fusion knobs are valid");
    let mut fused =
        fuser.stream(RimStream::new(geo.clone(), RimConfig::for_sample_rate(fs)).unwrap());
    let mut rim_only = RimStream::new(geo, RimConfig::for_sample_rate(fs)).unwrap();
    let mut reckoner = RimDeadReckoner {
        position: start,
        orientation: 0.0,
    };

    let in_blackout = |i: usize| {
        let t = i as f64 / fs;
        (BLACKOUT_S.0..BLACKOUT_S.1).contains(&t)
    };
    let mut fused_events = 0usize;
    for (i, sample) in samples.iter().enumerate() {
        let batch = vec![ImuSample {
            t_us: (i as f64 / fs * 1e6) as u64,
            accel_body: imu.accel_body[i],
            gyro_z: imu.gyro_z[i],
            mag_orientation: Some(imu.mag_orientation[i]),
        }];
        fused_events += fused
            .ingest(batch)
            .expect("imu ingest never errors")
            .iter()
            .filter(|e| matches!(e, StreamEvent::Fused { .. }))
            .count();
        if !in_blackout(i) {
            fused.ingest(sample).expect("csi ingest never errors");
            reckoner.absorb(&rim_only.ingest(sample.clone()).expect("csi ingest"));
        }
    }
    fused.finish();
    reckoner.absorb(&rim_only.finish());

    let truth = traj.pose(traj.len() - 1).pos;
    Outcome {
        duration_s: traj.duration(),
        rim_only_final: reckoner.position.distance(truth),
        imu_only_final: imu_track.last().expect("non-empty track").distance(truth),
        fused_final: fused.position().distance(truth),
        fused_events,
        zupt_count: fused.zupt_count(),
        rim_updates: fused.rim_updates(),
        coast_time_s: fused.coast_time_us() as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_beats_both_baselines_through_the_blackout() {
        let o = run(100.0);
        assert!(o.duration_s >= 60.0, "walk is {:.1} s", o.duration_s);
        assert!(
            o.fused_final < o.rim_only_final,
            "fused {:.3} m vs rim-only {:.3} m",
            o.fused_final,
            o.rim_only_final
        );
        assert!(
            o.fused_final < o.imu_only_final,
            "fused {:.3} m vs imu-only {:.3} m",
            o.fused_final,
            o.imu_only_final
        );
        assert!(o.fused_events > 0, "fused events were emitted");
        assert!(o.zupt_count > 0, "dwells trigger zero-velocity updates");
        assert!(o.rim_updates > 0, "RIM segments correct the filter");
        let blackout_s = BLACKOUT_S.1 - BLACKOUT_S.0;
        assert!(
            o.coast_time_s > blackout_s - 0.5,
            "the {blackout_s} s blackout shows up as coasting, got {:.2} s",
            o.coast_time_s
        );
    }
}
