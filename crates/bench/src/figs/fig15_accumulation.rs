//! Fig. 15 — impact of accumulative distance.
//!
//! Paper: over 10 m traces the median error per travelled metre stays in
//! the 3–14 cm band and "do\[es\] not considerably accumulate over long
//! distances" — speed estimation does not drift.

use crate::env::{self, linear_array};
use crate::report::Report;
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::LossModel;
use rim_dsp::geom::Point2;
use rim_dsp::stats::median;

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 15",
        "Impact of movement distance",
        "median error 3–14 cm across 1–10 m of travel; no heavy accumulation",
    );
    let fs = env::SAMPLE_RATE;
    let geo = linear_array();
    let traces = if fast { 3 } else { 8 };

    // errors[metre] collects the distance error when the truth first
    // crosses each metre mark, across traces.
    let mut per_metre: Vec<Vec<f64>> = vec![Vec::new(); 10];
    for k in 0..traces {
        let sim = ChannelSimulator::office(0, 11 + k as u64);
        let start = Point2::new(4.0 + (k % 2) as f64, 9.5 + 2.7 * (k % 3) as f64);
        let traj = line(start, 0.0, 10.0, 1.0, fs, OrientationMode::FollowPath);
        let dense = env::record(&sim, &geo, &traj, 41 + k as u64, LossModel::None, None);
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&dense)
            .unwrap();

        // Estimated cumulative distance: integrate per-sample speed and
        // add the initial-motion compensation at the segment start.
        let dt = 1.0 / fs;
        let mut cum_est = vec![0.0; est.speed_mps.len()];
        let mut acc = 0.0;
        for (i, v) in est.speed_mps.iter().enumerate() {
            if let Some(seg) = est.segments.iter().find(|s| s.start == i) {
                if seg.kind == rim_core::SegmentKind::Translation {
                    acc += env::SPACING;
                    let _ = seg;
                }
            }
            if v.is_finite() {
                acc += v * dt;
            }
            cum_est[i] = acc;
        }
        let cum_truth = traj.cumulative_distance();
        for metre in 1..=10usize {
            if let Some(idx) = cum_truth.iter().position(|&d| d >= metre as f64) {
                let idx = idx.min(cum_est.len() - 1);
                per_metre[metre - 1].push((cum_est[idx] - cum_truth[idx]).abs());
            }
        }
    }

    let mut medians = Vec::new();
    for (metre, errs) in per_metre.iter().enumerate() {
        let med = median(errs);
        medians.push(med);
        report.row(
            format!("error @ {:>2} m travelled", metre + 1),
            format!("median {:.1} cm (n={})", med * 100.0, errs.len()),
        );
    }
    // Accumulation check: the paper's band is 3-14 cm; drift-free speed
    // estimation keeps the error bounded rather than growing with path
    // length the way a gyro/accelerometer bias would.
    let worst = medians.iter().cloned().fold(0.0f64, f64::max);
    report.row(
        "worst median over 1-10 m",
        format!("{:.1} cm", worst * 100.0),
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn error_does_not_explode() {
        let r = super::run(true);
        let worst_row = &r.rows.last().unwrap().1;
        let worst_cm: f64 = worst_row.split(' ').next().unwrap().parse().unwrap();
        assert!(
            worst_cm < 20.0,
            "worst median over 10 m: {worst_cm} cm (paper band 3-14)"
        );
    }
}
