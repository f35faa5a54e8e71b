//! End-to-end integration tests: simulated channel → CSI acquisition →
//! RIM pipeline, asserting the paper's headline behaviours with margins.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{
    back_and_forth, line, polyline, rotate_in_place, stop_and_go, OrientationMode,
};
use rim_channel::ChannelSimulator;
use rim_core::{RimConfig, SegmentKind};
use rim_dsp::geom::Point2;
use rim_dsp::stats::angle_diff;
use rim_integration_tests::{config, run_pipeline, FS, SPACING};

#[test]
fn desktop_distance_within_centimetres() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::linear(3, SPACING);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        1.0,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
    let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 1);
    let err_cm = (est.total_distance() - 1.0).abs() * 100.0;
    assert!(
        err_cm < 8.0,
        "desktop 1 m error {err_cm:.1} cm (paper median 2.3 cm)"
    );
}

#[test]
fn nlos_office_distance_holds() {
    // AP at the far corner (#0): the device is many walls away.
    let sim = ChannelSimulator::office(0, 11);
    let geo = ArrayGeometry::linear(3, SPACING);
    let traj = line(
        Point2::new(8.0, 13.0),
        0.0,
        3.0,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
    let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 2);
    let err_cm = (est.total_distance() - 3.0).abs() * 100.0;
    assert!(
        err_cm < 20.0,
        "NLOS 3 m error {err_cm:.1} cm (paper median 8.6 cm)"
    );
}

#[test]
fn hexagonal_heading_resolves_30_degree_grid() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::hexagonal(SPACING);
    for dir_deg in [0.0f64, 60.0, -90.0] {
        let traj = line(
            Point2::new(0.0, 2.0),
            dir_deg.to_radians(),
            0.8,
            0.8,
            FS,
            OrientationMode::Fixed(0.0),
        );
        let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 3);
        let h = est.segments[0]
            .heading_device
            .unwrap_or_else(|| panic!("heading for {dir_deg}°"));
        assert!(
            angle_diff(h, dir_deg.to_radians()) < 16f64.to_radians(),
            "heading {dir_deg}°: got {:.1}°",
            h.to_degrees()
        );
    }
}

#[test]
fn back_and_forth_nets_to_zero() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::linear(3, SPACING);
    let traj = back_and_forth(
        Point2::new(0.0, 2.0),
        0.0,
        1.0,
        1.0,
        0.6,
        FS,
        OrientationMode::Fixed(0.0),
    );
    let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 4);
    // Total path length ≈ 2 m.
    assert!(
        (est.total_distance() - 2.0).abs() < 0.25,
        "distance {:.2}",
        est.total_distance()
    );
    // Trajectory returns near the start.
    let track = est.trajectory(Point2::new(0.0, 2.0), 0.0);
    let closure = track.last().unwrap().distance(Point2::new(0.0, 2.0));
    assert!(closure < 0.25, "loop closure {closure:.2} m");
}

#[test]
fn stop_and_go_segments_detected() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::linear(3, SPACING);
    let traj = stop_and_go(Point2::new(-1.0, 2.0), 0.0, 1.0, 1.0, 3, 1.0, FS);
    let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 5);
    assert_eq!(
        est.segments.len(),
        3,
        "three separate moves: {:?}",
        est.segments.len()
    );
    let total: f64 = est.segments.iter().map(|s| s.distance_m).sum();
    assert!((total - 3.0).abs() < 0.3, "total {total:.2} m");
}

#[test]
fn square_loop_closes() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::hexagonal(SPACING);
    let p0 = Point2::new(0.0, 1.5);
    let wps = [
        p0,
        Point2::new(1.0, 1.5),
        Point2::new(1.0, 2.5),
        Point2::new(0.0, 2.5),
        p0,
    ];
    let traj = polyline(&wps, 1.0, FS, OrientationMode::Fixed(0.0));
    let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 6);
    assert!((est.total_distance() - 4.0).abs() < 0.4);
    let track = est.trajectory(p0, 0.0);
    let closure = track.last().unwrap().distance(p0);
    assert!(closure < 0.4, "square closure {closure:.2} m");
}

#[test]
fn rotation_detected_and_signed() {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::hexagonal(SPACING);
    let mut cfg = config(0.07);
    cfg.movement.lag = (0.15 * FS) as usize;
    cfg.movement.threshold = 0.9;
    cfg.min_segment_s = 0.12;
    for sign in [1.0f64, -1.0] {
        let truth = sign * std::f64::consts::PI;
        let traj = rotate_in_place(Point2::new(0.5, 2.0), 0.0, truth, std::f64::consts::PI, FS);
        let est = run_pipeline(&sim, &geo, &traj, cfg.clone(), 7);
        assert!(
            est.segments.iter().any(|s| s.kind == SegmentKind::Rotation),
            "rotation segment (sign {sign})"
        );
        let err_deg = (est.total_rotation() - truth).abs().to_degrees();
        assert!(
            err_deg < 35.0,
            "rotation error {err_deg:.1}° (paper median 30.1°)"
        );
    }
}

#[test]
fn sideway_movement_heading_changes_without_turning() {
    // The Fig. 20 scenario the inertial sensors cannot see.
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::hexagonal(SPACING);
    let wps = [
        Point2::new(-0.5, 1.5),
        Point2::new(0.8, 1.5),
        Point2::new(0.8, 2.6),
    ];
    let traj = polyline(&wps, 1.0, FS, OrientationMode::Fixed(0.0));
    let est = run_pipeline(&sim, &geo, &traj, RimConfig::for_sample_rate(FS), 8);
    // Heading must take both 0° and 90° values within the single segment.
    let headings: Vec<f64> = est.heading_device.iter().flatten().copied().collect();
    let has_east = headings.iter().any(|&h| angle_diff(h, 0.0) < 0.1);
    let has_north = headings
        .iter()
        .any(|&h| angle_diff(h, std::f64::consts::FRAC_PI_2) < 0.1);
    assert!(has_east && has_north, "both legs resolved");
    // And the device orientation never changed (no rotation reported).
    assert!(est.total_rotation().abs() < 0.1);
}
