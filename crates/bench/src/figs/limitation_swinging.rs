//! §7 — the *swinging turn* limitation, demonstrated.
//!
//! Paper: "The current prototype of RIM can only sense in-place rotation
//! … and is not able to monitor the rotating angle of swinging turns
//! (i.e., move while turn)." We drive the hexagonal array along circular
//! arcs (translation + simultaneous rotation) and measure what survives:
//! the travelled *distance* should stay accurate (retracing still works
//! along the curved path), while the rotating-angle estimate should
//! largely miss the orientation change.

use crate::env::{self, hexagonal_array};
use crate::report::{ErrorStats, Report};
use rim_channel::trajectory::arc;
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::LossModel;
use rim_dsp::geom::Point2;

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "§7 limitation",
        "Swinging turns (move while turning)",
        "distance along the curve remains measurable; the simultaneous \
         rotation is NOT sensed (an acknowledged open problem)",
    );
    let fs = env::SAMPLE_RATE;
    let geo = hexagonal_array();
    let traces = if fast { 2 } else { 4 };

    let mut dist_err = Vec::new();
    let mut rot_captured = Vec::new();
    for k in 0..traces {
        let sim = ChannelSimulator::open_lab(7 + k as u64);
        // Quarter-circle of radius 1.5 m at 1 m/s: 90° of turning over
        // 2.36 m of travel.
        let traj = arc(
            Point2::new(0.0, 2.0),
            1.5,
            0.4 * k as f64,
            std::f64::consts::FRAC_PI_2,
            1.0,
            fs,
        );
        let dense = env::record(&sim, &geo, &traj, 400 + k as u64, LossModel::None, None);
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&dense)
            .unwrap();
        dist_err.push((est.total_distance() - traj.total_distance()).abs());
        rot_captured.push(est.total_rotation().abs().to_degrees());
    }

    report.row(
        "distance error along the arc",
        ErrorStats::of(&dist_err).fmt_cm(),
    );
    let mean_rot = rot_captured.iter().sum::<f64>() / rot_captured.len() as f64;
    report.row(
        "rotation sensed (truth 90° of turning)",
        format!("{mean_rot:.1}° — the turn goes unseen"),
    );
    report.note(
        "the arc is tracked as a sequence of translation directions (the \
         heading steps around the circle), so the position trace bends \
         correctly even though the reported rotating angle stays ~0"
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn distance_survives_rotation_missed() {
        let r = super::run(true);
        let dist = &r.rows[0].1;
        let median: f64 = dist
            .split("median ")
            .nth(1)
            .unwrap()
            .split(" cm")
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(median < 30.0, "arc distance error {median} cm");
        let rot: f64 = r.rows[1].1.split('°').next().unwrap().parse().unwrap();
        assert!(rot < 45.0, "swinging turn largely unseen: {rot}°");
    }
}
