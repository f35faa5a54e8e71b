//! Indoor tracking across the paper's office floor (paper §6.3.3).
//!
//! Pushes a cart carrying the hexagonal array along a multi-leg route —
//! including a *sideway* leg where the heading changes without the device
//! turning — and reconstructs the trajectory three ways:
//!
//! 1. pure RIM (distance + heading, Fig. 20),
//! 2. RIM distance + gyroscope heading (Fig. 21, "w/o PF"),
//! 3. the same fused track corrected by the map-constrained particle
//!    filter (Fig. 21, "w/ PF").
//!
//! ```sh
//! cargo run --release -p rim-examples --bin indoor_tracking
//! ```

use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_channel::trajectory::{polyline, OrientationMode};
use rim_channel::{office_floorplan, ChannelSimulator};
use rim_core::RimConfig;
use rim_dsp::geom::Point2;
use rim_examples::{ascii_plot, simulate_and_analyze};
use rim_sensors::{ImuConfig, SimulatedImu};
use rim_tracking::metrics::mean_projection_error;
use rim_tracking::{Fuser, MapFusionConfig};

fn main() {
    let fs = 200.0;
    // AP at the far-corner location #0: heavy NLOS for most of the route.
    let sim = ChannelSimulator::office(0, 11);
    let geometry = ArrayGeometry::hexagonal(HALF_WAVELENGTH);

    // A route through the open area with a sideway leg in the middle: the
    // device keeps orientation 0 the whole way.
    let waypoints = [
        Point2::new(6.0, 10.0),
        Point2::new(14.0, 10.0),
        Point2::new(14.0, 14.0), // sideway: heading +90°, orientation unchanged
        Point2::new(24.0, 14.0),
        Point2::new(24.0, 10.0), // sideway back down
        Point2::new(32.0, 10.0),
    ];
    let trajectory = polyline(&waypoints, 1.0, fs, OrientationMode::Fixed(0.0));
    println!(
        "route: {:.1} m over {:.1} s with two sideway legs",
        trajectory.total_distance(),
        trajectory.duration()
    );

    let config = RimConfig::for_sample_rate(fs);
    let estimate = simulate_and_analyze(&sim, &geometry, &trajectory, config, 2);

    // 1. Pure RIM reconstruction.
    let rim_track = estimate.trajectory(waypoints[0], 0.0);
    let truth: Vec<Point2> = trajectory.poses().iter().map(|p| p.pos).collect();
    println!(
        "pure RIM        : distance {:.2} m (truth {:.2}), mean track error {:.2} m",
        estimate.total_distance(),
        trajectory.total_distance(),
        mean_projection_error(&rim_track, &truth)
    );

    // 2/3. Fuse with a consumer-grade gyroscope, with and without the map.
    let imu = SimulatedImu::new(ImuConfig::consumer(), 5).sample(&trajectory);
    let (floorplan, _) = office_floorplan();
    let fused = Fuser::builder()
        .initial_position(waypoints[0])
        .build()
        .expect("default fusion knobs are valid")
        .fuse_with_map(
            &estimate,
            &imu.gyro_z,
            &floorplan,
            &MapFusionConfig::default(),
        )
        .expect("the IMU samples at the estimate's rate");
    println!(
        "RIM + gyro      : mean track error {:.2} m",
        mean_projection_error(&fused.dead_reckoned, &truth)
    );
    println!(
        "RIM + gyro + PF : mean track error {:.2} m",
        mean_projection_error(&fused.filtered, &truth)
    );

    println!("\ntruth (*) vs pure RIM (o):");
    print!("{}", ascii_plot(&[&truth, &rim_track], 72, 18));
}
