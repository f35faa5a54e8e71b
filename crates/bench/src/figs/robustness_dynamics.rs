//! §6.2.8 — robustness to environmental dynamics.
//!
//! Paper (text, no figure): walking humans near the receiver change part
//! of the multipath but RIM's accuracy holds, because many paths remain
//! and RIM never relies on absolute TRRS values.

use crate::env::{self, linear_array};
use crate::report::{ErrorStats, Report};
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::{
    uniform_field, walking_humans, ApConfig, ChannelSimulator, Floorplan, RayTracer,
    SubcarrierLayout, TracerConfig,
};
use rim_core::{Rim, RimConfig};
use rim_csi::LossModel;
use rim_dsp::geom::Point2;

fn sim_with_humans(n_humans: usize, seed: u64) -> ChannelSimulator {
    let lo = Point2::new(-15.0, -15.0);
    let hi = Point2::new(15.0, 15.0);
    let scat = uniform_field(lo, hi, 150, 0.35, seed);
    // Walking humans: strong moving scatterers at up to 1.5 m/s, gains on
    // par with the static field's median.
    let humans = walking_humans(
        Point2::new(-4.0, -2.0),
        Point2::new(4.0, 6.0),
        n_humans,
        1.5,
        0.35,
        seed + 1,
    );
    let tracer = RayTracer::new(Floorplan::empty(), scat, humans, TracerConfig::default());
    ChannelSimulator::new(
        tracer,
        SubcarrierLayout::ht40_5ghz(),
        ApConfig::standard(Point2::new(-8.0, 0.0)),
    )
}

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "§6.2.8",
        "Robustness to environmental dynamics",
        "walking humans near the device do not break tracking: only part of \
         the multipath changes and RIM uses relative, not absolute, TRRS",
    );
    let fs = env::SAMPLE_RATE;
    let geo = linear_array();
    let traces = if fast { 3 } else { 6 };

    for n_humans in [0usize, 2, 5] {
        let mut errors = Vec::new();
        for k in 0..traces {
            let sim = sim_with_humans(n_humans, 7 + k as u64);
            let traj = line(
                env::lab_start(k),
                0.0,
                2.0,
                1.0,
                fs,
                OrientationMode::FollowPath,
            );
            let dense = env::record(&sim, &geo, &traj, 200 + k as u64, LossModel::None, None);
            let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
                .unwrap()
                .analyze(&dense)
                .unwrap();
            errors.push((est.total_distance() - traj.total_distance()).abs());
        }
        report.row(
            format!("{n_humans} walking humans"),
            ErrorStats::of(&errors).fmt_cm(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn humans_do_not_break_tracking() {
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
            assert!(median < 25.0, "{label}: median {median} cm");
        }
    }
}
