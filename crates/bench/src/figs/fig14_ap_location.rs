//! Fig. 14 — coverage and the impact of AP location.
//!
//! Paper: moving the single AP across six locations (LOS and through
//! multiple walls), RIM keeps a median distance error below 10 cm
//! everywhere — "truly multipath resilient … works wherever there are
//! WiFi signals".

use crate::env::{self, linear_array};
use crate::report::{ErrorStats, Report};
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::LossModel;
use rim_dsp::geom::Point2;

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 14",
        "Impact of AP location",
        "median distance error < 10 cm for every AP location #1–#6",
    );
    let fs = env::SAMPLE_RATE;
    let geo = linear_array();
    let traces = if fast { 2 } else { 4 };

    for ap in 1..=6usize {
        let sim = ChannelSimulator::office(ap, 11);
        let mut errors = Vec::new();
        for k in 0..traces {
            // Distance measurements in the middle open spaces (paper).
            let start = Point2::new(8.0 + 4.0 * k as f64, 9.5 + 2.5 * (k % 3) as f64);
            let heading = if k % 2 == 0 {
                0.0
            } else {
                std::f64::consts::PI
            };
            let traj = line(
                start,
                heading,
                5.0,
                1.0,
                fs,
                OrientationMode::Fixed(heading),
            );
            let dense = env::record(
                &sim,
                &geo,
                &traj,
                (ap * 10 + k) as u64,
                LossModel::None,
                None,
            );
            let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
                .unwrap()
                .analyze(&dense)
                .unwrap();
            errors.push((est.total_distance() - traj.total_distance()).abs());
        }
        let stats = ErrorStats::of(&errors);
        let los = sim
            .tracer()
            .floorplan()
            .is_los(sim.ap().pos, Point2::new(15.0, 11.0));
        report.row(
            format!("AP loc. #{ap} ({})", if los { "LOS-ish" } else { "NLOS" }),
            stats.fmt_cm(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_location_under_20cm_median() {
        let r = super::run(true);
        for (label, value) in &r.rows {
            let median: f64 = value
                .split("median ")
                .nth(1)
                .unwrap()
                .split(" cm")
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(median < 20.0, "{label}: median {median} cm");
        }
    }
}
