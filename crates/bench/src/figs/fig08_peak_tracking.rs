//! Fig. 8 — TRRS peak tracking via dynamic programming.
//!
//! Paper: on a forward-then-backward movement the DP tracker recovers the
//! alignment-delay path robustly — positive lags while moving forward,
//! negative while moving backward — "regardless of measurement noises and
//! imperfect retracing".

use crate::env::{self, linear_array};
use crate::report::Report;
use rim_channel::trajectory::back_and_forth;
use rim_channel::ChannelSimulator;
use rim_core::alignment::{alignment_matrix, AlignmentConfig};
use rim_core::tracking_dp::{track_peaks, DpConfig};
use rim_core::trrs::NormSnapshot;
use rim_csi::{HardwareProfile, LossModel};

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 8",
        "DP peak tracking on a back-and-forth move",
        "tracked lags sit at +Δd/v·fs moving forward and the mirrored \
         negative lag moving backward, despite noise and packet loss",
    );
    let fs = env::SAMPLE_RATE;
    let speed = 1.0;
    let geo = linear_array();
    let sim = ChannelSimulator::open_lab(7);
    let dist = if fast { 0.8 } else { 1.5 };
    let traj = back_and_forth(
        env::lab_start(1),
        0.0,
        dist,
        speed,
        0.5,
        fs,
        rim_channel::trajectory::OrientationMode::Fixed(0.0),
    );
    // Stress: noisy front-end plus 10 % packet loss.
    let dense = env::record(
        &sim,
        &geo,
        &traj,
        5,
        LossModel::Iid { p: 0.1 },
        Some(HardwareProfile::noisy()),
    );
    let series: Vec<Vec<NormSnapshot>> = dense
        .antennas
        .iter()
        .map(|s| NormSnapshot::series(s))
        .collect();
    let m = alignment_matrix(
        &series[0],
        &series[1],
        AlignmentConfig {
            window: 26,
            virtual_antennas: 30,
        },
    );
    let path = track_peaks(&m, DpConfig::default());

    // Expected lag magnitude.
    let true_lag = (0.0258 / speed * fs).round() as isize;
    // Evaluate in the steady middle of each phase.
    let fwd_len = (dist / speed * fs) as usize;
    let pause = (0.5 * fs) as usize;
    let fwd_mid = fwd_len / 4..3 * fwd_len / 4;
    let back_start = fwd_len + pause;
    let back_mid = back_start + fwd_len / 4..back_start + 3 * fwd_len / 4;

    let close = |r: std::ops::Range<usize>, sign: isize| {
        let total = r.len();
        let good = r
            .filter(|&t| {
                let l = path.lags[t];
                l.signum() == sign && (l.abs() - true_lag).abs() <= 2
            })
            .count();
        good as f64 / total as f64
    };
    let fwd_frac = close(fwd_mid, 1);
    let back_frac = close(back_mid, -1);

    report.row("expected |lag|", format!("{true_lag} samples"));
    report.row(
        "forward phase: lag within ±2 of truth",
        format!("{:.0} %", fwd_frac * 100.0),
    );
    report.row(
        "backward phase: mirrored lag within ±2",
        format!("{:.0} %", back_frac * 100.0),
    );
    report.row("path jumpiness", format!("{:.3} lags/step", path.jumpiness));
    report.note("noisy hardware profile + 10 % i.i.d. packet loss".to_string());
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn tracks_both_phases() {
        let r = super::run(true);
        let frac = |i: usize| -> f64 {
            r.rows[i]
                .1
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(frac(1) > 80.0, "forward {}%", frac(1));
        assert!(frac(2) > 80.0, "backward {}%", frac(2));
    }
}
