//! Fig. 20 — indoor tracking by sole RIM.
//!
//! Paper: two long floor-scale traces (~36 m and ~76 m) containing
//! *sideway* movements are tracked accurately with no significant
//! accumulation — motions that gyroscope+magnetometer cannot even
//! represent because the device never turns.

use crate::env::{self, hexagonal_array};
use crate::report::Report;
use rim_channel::trajectory::{polyline, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::LossModel;
use rim_dsp::geom::Point2;
use rim_tracking::metrics::mean_projection_error;

/// The two routes (waypoints in office coordinates, both with sideway
/// legs — heading changes while orientation stays fixed).
fn routes(fast: bool) -> Vec<(&'static str, Vec<Point2>)> {
    let trace1 = vec![
        Point2::new(5.0, 9.5),
        Point2::new(19.0, 9.5),
        Point2::new(19.0, 13.0), // sideway up
        Point2::new(9.0, 13.0),  // backwards
        Point2::new(9.0, 17.5),  // sideway up
        Point2::new(16.0, 17.5),
    ];
    let trace2 = vec![
        Point2::new(4.0, 9.0),
        Point2::new(26.0, 9.0),
        Point2::new(26.0, 13.5), // sideway
        Point2::new(6.0, 13.5),
        Point2::new(6.0, 18.0), // sideway
        Point2::new(30.0, 18.0),
        Point2::new(30.0, 13.8),
        Point2::new(21.0, 13.8),
    ];
    if fast {
        vec![("trace 1", trace1)]
    } else {
        vec![("trace 1 (~36 m)", trace1), ("trace 2 (~76 m)", trace2)]
    }
}

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 20",
        "Indoor tracking by sole RIM",
        "36 m and 76 m traces with sideway moves tracked without significant \
         accumulated error",
    );
    // Long traces: run at 100 Hz (sufficient for 1 m/s per Fig. 16) to
    // bound memory and time.
    let fs = 100.0;
    let geo = hexagonal_array();
    let sim = ChannelSimulator::office(0, 11);

    for (idx, (name, wps)) in routes(fast).into_iter().enumerate() {
        let traj = polyline(&wps, 1.0, fs, OrientationMode::Fixed(0.0));
        let truth: Vec<Point2> = traj.poses().iter().map(|p| p.pos).collect();
        let dense = env::record(&sim, &geo, &traj, 90 + idx as u64, LossModel::None, None);
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&dense)
            .unwrap();
        let track = est.trajectory(wps[0], 0.0);
        let end_err = track.last().unwrap().distance(*truth.last().unwrap());
        report.row(
            name.to_string(),
            format!(
                "length {:.1} m, distance err {:.2} m, mean track err {:.2} m, endpoint err {:.2} m",
                traj.total_distance(),
                (est.total_distance() - traj.total_distance()).abs(),
                mean_projection_error(&track, &truth),
                end_err
            ),
        );
    }
    report.note(
        "sideway legs are tracked because RIM measures heading directly; \
         orientation sensors cannot see these direction changes (no turning)"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn long_trace_tracks() {
        let r = super::run(true);
        let row = &r.rows[0].1;
        let track_err: f64 = row
            .split("mean track err ")
            .nth(1)
            .unwrap()
            .split(" m")
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(track_err < 2.0, "mean track error {track_err} m over ~36 m");
    }
}
