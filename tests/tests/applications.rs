//! Integration tests of the application layer: handwriting, gestures,
//! sensor fusion and map-constrained tracking, end to end.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{polyline, OrientationMode};
use rim_channel::{office_floorplan, ChannelSimulator};
use rim_core::RimConfig;
use rim_dsp::geom::Point2;
use rim_integration_tests::{config, run_pipeline, FS, SPACING};
use rim_sensors::{ImuConfig, SimulatedImu};
use rim_tracking::gesture::{detect_gesture, gesture_trajectory, Gesture, GestureConfig};
use rim_tracking::handwriting::write_letter;
use rim_tracking::metrics::mean_projection_error;
use rim_tracking::{Fuser, MapFusionConfig};

#[test]
fn handwriting_letter_reconstructs() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::hexagonal(SPACING);
    let run = write_letter('L', Point2::new(0.5, 2.0), 0.25, 0.3, FS).unwrap();
    let est = run_pipeline(&sim, &geo, &run.trajectory, config(0.12), 1);
    let track = est.trajectory(run.truth[0], 0.0);
    let err = mean_projection_error(&track, &run.truth);
    let moved: f64 = track.windows(2).map(|w| w[0].distance(w[1])).sum();
    assert!(
        moved > 0.5 * run.trajectory.total_distance(),
        "track moved {moved:.2} m"
    );
    assert!(
        err < 0.06,
        "letter L error {:.1} cm (paper 2.4 cm)",
        err * 100.0
    );
}

#[test]
fn gestures_detected_and_classified() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::l_shape(SPACING);
    let det = GestureConfig::default();
    let mut hits = 0;
    for (k, gesture) in Gesture::ALL.into_iter().enumerate() {
        let traj = gesture_trajectory(gesture, Point2::new(0.4, 1.8), 0.2, 0.5, FS);
        let est = run_pipeline(&sim, &geo, &traj, config(0.25), 10 + k as u64);
        match detect_gesture(&est, &det) {
            Some(g) if g == gesture => hits += 1,
            Some(g) => panic!("{gesture:?} misclassified as {g:?}"),
            None => {}
        }
    }
    assert!(hits >= 3, "at least 3 of 4 gestures detected, got {hits}");
}

#[test]
fn idle_device_triggers_no_gesture() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::l_shape(SPACING);
    let traj = rim_channel::trajectory::dwell(Point2::new(0.4, 1.8), 0.0, 1.0, FS);
    let est = run_pipeline(&sim, &geo, &traj, config(0.25), 20);
    assert_eq!(detect_gesture(&est, &GestureConfig::default()), None);
}

#[test]
fn fusion_with_particle_filter_tracks_office_route() {
    let sim = ChannelSimulator::office(0, 11);
    let geo = ArrayGeometry::linear(3, SPACING);
    let wps = [
        Point2::new(5.0, 9.5),
        Point2::new(13.0, 9.5),
        Point2::new(13.0, 13.5),
    ];
    let traj = polyline(&wps, 1.0, FS, OrientationMode::FollowPath);
    let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 30);
    assert!((est.total_distance() - traj.total_distance()).abs() < 0.5);

    let imu = SimulatedImu::new(ImuConfig::consumer(), 3).sample(&traj);
    let (floorplan, _) = office_floorplan();
    let fused = Fuser::builder()
        .initial_position(wps[0])
        .build()
        .expect("default fusion knobs are valid")
        .fuse_with_map(&est, &imu.gyro_z, &floorplan, &MapFusionConfig::default())
        .expect("the IMU samples at the estimate's rate");
    let truth: Vec<Point2> = traj.poses().iter().map(|p| p.pos).collect();
    let err = mean_projection_error(&fused.filtered, &truth);
    assert!(
        err < 1.0,
        "filtered track error {err:.2} m over a 12 m route"
    );
}
