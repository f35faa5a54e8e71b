//! Fig. 21 — tracking by RIM integrated with inertial sensors.
//!
//! Paper: with one 3-antenna NIC, RIM supplies precise distance while a
//! gyroscope supplies direction; raw fusion drifts with the gyro, and the
//! map-constrained particle filter "gracefully reconstructs the real
//! trajectory".

use crate::env::{self, linear_array};
use crate::report::Report;
use rim_channel::trajectory::{polyline, OrientationMode};
use rim_channel::{office_floorplan, ChannelSimulator};
use rim_core::{Rim, RimConfig};
use rim_csi::LossModel;
use rim_dsp::geom::Point2;
use rim_sensors::{ImuConfig, SimulatedImu};
use rim_tracking::metrics::mean_projection_error;
use rim_tracking::{Fuser, MapFusionConfig};

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 21",
        "Tracking by RIM + inertial sensors",
        "RIM distances accurate, gyro directions drift; the particle filter \
         with floorplan constraints recovers the true trajectory",
    );
    let fs = if fast { 100.0 } else { 200.0 };
    let geo = linear_array();
    let sim = ChannelSimulator::office(0, 11);

    // A ~45 m route with turns (the device turns here, so the gyroscope
    // sees them — unlike Fig. 20's sideway legs). The route threads the
    // south-corridor door gap (x ∈ [14, 16] at y = 8) and runs close to
    // walls, giving the particle filter's map constraint something to
    // bite on — as the paper's floor-wide route does.
    let wps = [
        Point2::new(5.0, 9.0),
        Point2::new(15.0, 9.0),
        Point2::new(15.0, 2.5), // through the door gap, into the office
        Point2::new(15.0, 9.0), // and back out
        Point2::new(15.0, 12.5),
        Point2::new(26.5, 12.5), // between the service core and the glass room
        Point2::new(26.5, 18.5),
        Point2::new(18.0, 18.5),
    ];
    let traj = polyline(&wps, 1.0, fs, OrientationMode::FollowPath);
    let truth: Vec<Point2> = traj.poses().iter().map(|p| p.pos).collect();

    let dense = env::record(&sim, &geo, &traj, 7, LossModel::None, None);
    let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
        .unwrap()
        .analyze(&dense)
        .unwrap();
    report.row(
        "RIM distance",
        format!(
            "{:.2} m (truth {:.2} m, err {:.1} cm)",
            est.total_distance(),
            traj.total_distance(),
            (est.total_distance() - traj.total_distance()).abs() * 100.0
        ),
    );

    // An uncalibrated gyroscope: a deterministic 0.4 °/s residual bias on
    // top of the consumer noise model (the paper's cart runs show clearly
    // drifting directions; a freshly-calibrated consumer gyro would make
    // the comparison trivial).
    let mut imu = SimulatedImu::new(ImuConfig::consumer(), 5).sample(&traj);
    let bias = 0.4f64.to_radians();
    for g in &mut imu.gyro_z {
        *g += bias;
    }
    let (floorplan, _) = office_floorplan();
    let fused = Fuser::builder()
        .initial_position(wps[0])
        .build()
        .expect("default fusion knobs are valid")
        .fuse_with_map(&est, &imu.gyro_z, &floorplan, &MapFusionConfig::default())
        .expect("the IMU samples at the estimate's rate");
    let dr_err = mean_projection_error(&fused.dead_reckoned, &truth);
    let pf_err = mean_projection_error(&fused.filtered, &truth);
    report.row("w/o PF mean track error", format!("{:.2} m", dr_err));
    report.row("w/ PF mean track error", format!("{:.2} m", pf_err));
    report.row(
        "w/o PF endpoint error",
        format!(
            "{:.2} m",
            fused
                .dead_reckoned
                .last()
                .unwrap()
                .distance(*truth.last().unwrap())
        ),
    );
    report.row(
        "w/ PF endpoint error",
        format!(
            "{:.2} m",
            fused
                .filtered
                .last()
                .unwrap()
                .distance(*truth.last().unwrap())
        ),
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn particle_filter_does_not_hurt() {
        let r = super::run(true);
        let val = |label: &str| -> f64 {
            r.rows
                .iter()
                .find(|(l, _)| l == label)
                .unwrap()
                .1
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let without = val("w/o PF mean track error");
        let with = val("w/ PF mean track error");
        assert!(
            with <= without + 0.3,
            "PF helps or is neutral: {with} vs {without}"
        );
        assert!(with < 3.0, "filtered track stays near truth: {with} m");
    }
}
