//! Dead-reckoning baselines built on the simulated IMU streams.
//!
//! These are the comparison systems of the paper's evaluation: gyroscope
//! integration for rotating angle (Fig. 13), accelerometer double
//! integration for distance (§6.2.1 explains why it is hopeless), simple
//! threshold movement detectors (Fig. 7), and a pedestrian step counter
//! (the state of practice for inertial distance, §8).

use crate::imu::ImuRecording;
use rim_dsp::geom::{Point2, Vec2};

/// Integrates the z gyroscope into an orientation track (radians),
/// starting from `initial`.
pub fn integrate_gyro(gyro_z: &[f64], sample_rate_hz: f64, initial: f64) -> Vec<f64> {
    let dt = 1.0 / sample_rate_hz;
    let mut out = Vec::with_capacity(gyro_z.len());
    let mut theta = initial;
    for &w in gyro_z {
        theta += w * dt;
        out.push(theta);
    }
    out
}

/// Gyroscope rotating-angle estimate over a whole recording: the net
/// integrated angle (radians).
pub fn gyro_rotation_angle(rec: &ImuRecording) -> f64 {
    rec.gyro_z.iter().sum::<f64>() / rec.sample_rate_hz
}

/// Double-integrates body-frame acceleration into positions, given an
/// orientation track (e.g. from [`integrate_gyro`] or a magnetometer).
///
/// This is the textbook strapdown mechanisation that the paper's
/// accelerometer comparison uses — and it diverges quadratically with any
/// bias, which is the point.
pub fn double_integrate_accel(
    accel_body: &[Vec2],
    orientation: &[f64],
    sample_rate_hz: f64,
    start: Point2,
) -> Vec<Point2> {
    assert_eq!(
        accel_body.len(),
        orientation.len(),
        "acceleration and orientation tracks must align"
    );
    let dt = 1.0 / sample_rate_hz;
    let mut pos = start;
    let mut vel = Vec2::ZERO;
    let mut out = Vec::with_capacity(accel_body.len());
    for (a_body, &theta) in accel_body.iter().zip(orientation) {
        let a_world = a_body.rotate(theta);
        vel = vel + a_world * dt;
        pos += vel * dt;
        out.push(pos);
    }
    out
}

/// Total path length of a position track.
pub fn track_length(track: &[Point2]) -> f64 {
    track.windows(2).map(|w| w[0].distance(w[1])).sum()
}

/// Movement indicator from the accelerometer: centred RMS of the
/// acceleration magnitude over a sliding window, normalised to `[0, 1]`
/// by its own maximum — the conventional threshold detector the paper
/// compares against in Fig. 7.
pub fn accel_movement_indicator(accel_body: &[Vec2], half_window: usize) -> Vec<f64> {
    let mags: Vec<f64> = accel_body.iter().map(|a| a.norm()).collect();
    windowed_deviation(&mags, half_window)
}

/// Movement indicator from the gyroscope (same construction).
pub fn gyro_movement_indicator(gyro_z: &[f64], half_window: usize) -> Vec<f64> {
    windowed_deviation(gyro_z, half_window)
}

/// Sliding-window standard deviation, normalised by the global maximum.
fn windowed_deviation(x: &[f64], half: usize) -> Vec<f64> {
    let n = x.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let w = &x[lo..hi];
        let m = w.iter().sum::<f64>() / w.len() as f64;
        let v = w.iter().map(|&u| (u - m) * (u - m)).sum::<f64>() / w.len() as f64;
        out.push(v.sqrt());
    }
    let peak = out.iter().cloned().fold(0.0f64, f64::max);
    if peak > 0.0 {
        for v in &mut out {
            *v /= peak;
        }
    }
    out
}

/// A pedestrian step counter: peaks of the low-passed acceleration
/// magnitude above a threshold, separated by a refractory period.
/// Distance = steps × stride length — the coarse state of practice for
/// inertial distance (paper §8, \[44\]).
#[derive(Debug, Clone)]
pub struct StepCounter {
    /// Detection threshold on the band-passed magnitude, m/s².
    pub threshold: f64,
    /// Minimum spacing between steps, seconds.
    pub refractory_s: f64,
    /// Assumed stride length, metres.
    pub stride_m: f64,
}

impl Default for StepCounter {
    fn default() -> Self {
        Self {
            threshold: 1.0,
            refractory_s: 0.35,
            stride_m: 0.7,
        }
    }
}

impl StepCounter {
    /// Counts steps in an accelerometer stream.
    pub fn count_steps(&self, accel_body: &[Vec2], sample_rate_hz: f64) -> usize {
        let mags: Vec<f64> = accel_body.iter().map(|a| a.norm()).collect();
        let smooth = rim_dsp::filter::low_pass(&mags, 4.0, sample_rate_hz);
        let refractory = (self.refractory_s * sample_rate_hz) as usize;
        let mut steps = 0usize;
        let mut last_step: Option<usize> = None;
        for i in 1..smooth.len().saturating_sub(1) {
            let is_peak = smooth[i] > smooth[i - 1]
                && smooth[i] >= smooth[i + 1]
                && smooth[i] > self.threshold;
            if is_peak {
                let ok = last_step.is_none_or(|l| i - l >= refractory);
                if ok {
                    steps += 1;
                    last_step = Some(i);
                }
            }
        }
        steps
    }

    /// Step-counted distance estimate.
    pub fn distance(&self, accel_body: &[Vec2], sample_rate_hz: f64) -> f64 {
        self.count_steps(accel_body, sample_rate_hz) as f64 * self.stride_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imu::{ImuConfig, SimulatedImu};
    use rim_channel::trajectory::{dwell, rotate_in_place, stop_and_go, OrientationMode};

    #[test]
    fn gyro_integration_recovers_rotation() {
        let traj = rotate_in_place(Point2::ORIGIN, 0.2, 2.0, 1.0, 200.0);
        let rec = SimulatedImu::new(ImuConfig::ideal(), 1).sample(&traj);
        let track = integrate_gyro(&rec.gyro_z, 200.0, 0.2);
        let end = *track.last().unwrap();
        assert!(
            (end - 2.2).abs() < 0.02,
            "2 rad rotation from 0.2, got {end}"
        );
        assert!((gyro_rotation_angle(&rec) - 2.0).abs() < 0.02);
    }

    #[test]
    fn consumer_gyro_rotation_is_accurate_to_degrees() {
        // The paper's Fig. 13 point: gyroscopes are genuinely good at
        // in-place rotation over short spans.
        let traj = rotate_in_place(
            Point2::ORIGIN,
            0.0,
            std::f64::consts::PI,
            std::f64::consts::FRAC_PI_2,
            200.0,
        );
        let rec = SimulatedImu::new(ImuConfig::consumer(), 5).sample(&traj);
        let est = gyro_rotation_angle(&rec);
        let err = (est - std::f64::consts::PI).abs().to_degrees();
        assert!(err < 5.0, "gyro within a few degrees, got {err}°");
    }

    #[test]
    fn ideal_double_integration_tracks_line() {
        let traj = rim_channel::trajectory::line_ramped(
            Point2::ORIGIN,
            0.0,
            2.0,
            1.0,
            2.0,
            200.0,
            OrientationMode::FollowPath,
        );
        let rec = SimulatedImu::new(ImuConfig::ideal(), 1).sample(&traj);
        let orient: Vec<f64> = traj.poses().iter().map(|p| p.orientation).collect();
        let track = double_integrate_accel(&rec.accel_body, &orient, 200.0, Point2::ORIGIN);
        let end = *track.last().unwrap();
        // Ideal sensors: lands within numerical-integration error.
        assert!(
            (end.x - 2.0).abs() < 0.05 && end.y.abs() < 0.01,
            "ideal dead-reckoning works: {end:?}"
        );
    }

    #[test]
    fn consumer_double_integration_diverges() {
        // §6.2.1: accelerometer dead reckoning produces errors of metres
        // within a 10-second trace.
        let traj = rim_channel::trajectory::line_ramped(
            Point2::ORIGIN,
            0.0,
            10.0,
            1.0,
            2.0,
            200.0,
            OrientationMode::FollowPath,
        );
        let rec = SimulatedImu::new(ImuConfig::consumer(), 7).sample(&traj);
        let orient: Vec<f64> = traj.poses().iter().map(|p| p.orientation).collect();
        let track = double_integrate_accel(&rec.accel_body, &orient, 200.0, Point2::ORIGIN);
        let end_err = track.last().unwrap().distance(Point2::new(10.0, 0.0));
        assert!(end_err > 2.0, "biased accel diverges, err = {end_err} m");
    }

    #[test]
    fn movement_indicators_separate_motion_from_rest() {
        let traj = stop_and_go(Point2::ORIGIN, 0.0, 1.0, 1.0, 2, 1.0, 200.0);
        let rec = SimulatedImu::new(ImuConfig::consumer(), 3).sample(&traj);
        let acc_ind = accel_movement_indicator(&rec.accel_body, 20);
        // During the dwell (middle of the trace) the indicator is lower
        // than at the motion transients.
        let mid = acc_ind.len() / 2;
        let dwell_level = acc_ind[mid];
        let peak = acc_ind.iter().cloned().fold(0.0f64, f64::max);
        assert!(peak == 1.0, "normalised");
        assert!(dwell_level < 0.5, "rest is quiet: {dwell_level}");
        let gyr_ind = gyro_movement_indicator(&rec.gyro_z, 20);
        assert_eq!(gyr_ind.len(), rec.len());
    }

    #[test]
    fn step_counter_counts_oscillations() {
        // Synthesise a walking-like bobbing acceleration at 2 steps/s.
        let fs = 100.0;
        let n = 1000;
        let accel: Vec<Vec2> = (0..n)
            .map(|k| {
                let t = k as f64 / fs;
                Vec2::new(2.5 * (std::f64::consts::TAU * 2.0 * t).sin(), 0.0)
            })
            .collect();
        let counter = StepCounter::default();
        let steps = counter.count_steps(&accel, fs);
        // 10 seconds at 2 Hz ≈ 20 steps (edge effects allow slack).
        assert!((15..=22).contains(&steps), "got {steps}");
        let d = counter.distance(&accel, fs);
        assert!((d - steps as f64 * 0.7).abs() < 1e-9);
    }

    #[test]
    fn step_counter_silent_at_rest() {
        let traj = dwell(Point2::ORIGIN, 0.0, 3.0, 100.0);
        let rec = SimulatedImu::new(ImuConfig::consumer(), 2).sample(&traj);
        assert_eq!(
            StepCounter::default().count_steps(&rec.accel_body, 100.0),
            0
        );
    }

    #[test]
    fn track_length_sums_segments() {
        let track = [
            Point2::new(0.0, 0.0),
            Point2::new(3.0, 4.0),
            Point2::new(3.0, 0.0),
        ];
        assert!((track_length(&track) - 9.0).abs() < 1e-12);
        assert_eq!(track_length(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_tracks_panic() {
        let _ = double_integrate_accel(&[Vec2::ZERO], &[0.0, 1.0], 100.0, Point2::ORIGIN);
    }
}
