//! Fig. 5 — alignment matrices of a square trajectory.
//!
//! Paper: driving the hexagonal array around a square, the aligned pair
//! switches as the heading does — "1 vs. 3 followed by 1 vs. 6, and then
//! again 3 vs. 1, 6 vs. 1 in turn"; parallel pairs behave identically.
//! We report, per leg of the square, which parallel group carries the
//! strongest tracked ridge and the heading it implies.

use crate::env::{self, hexagonal_array};
use crate::report::Report;
use rim_channel::trajectory::{polyline, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::alignment::{alignment_matrix, AlignmentConfig};
use rim_core::tracking_dp::{track_peaks, DpConfig};
use rim_core::trrs::NormSnapshot;
use rim_core::AlignmentMatrix;
use rim_csi::LossModel;
use rim_dsp::geom::Point2;
use rim_dsp::stats::wrap_angle;
use rim_par::Pool;

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 5",
        "Alignment matrices of a square trajectory",
        "the aligned pair (and its parallel twin) switches with each leg; \
         lag sign flips when direction reverses along the same pair line",
    );
    let fs = env::SAMPLE_RATE;
    let side = if fast { 0.6 } else { 1.0 };
    let geo = hexagonal_array();
    let sim = ChannelSimulator::open_lab(7);
    let p0 = Point2::new(0.0, 1.5);
    let wps = [
        p0,
        Point2::new(p0.x + side, p0.y),
        Point2::new(p0.x + side, p0.y + side),
        Point2::new(p0.x, p0.y + side),
        p0,
    ];
    let traj = polyline(&wps, 1.0, fs, OrientationMode::Fixed(0.0));
    let dense = env::record(&sim, &geo, &traj, 3, LossModel::None, None);
    let series: Vec<Vec<NormSnapshot>> = dense
        .antennas
        .iter()
        .map(|s| NormSnapshot::series(s))
        .collect();

    let groups = geo.parallel_groups();
    let config = AlignmentConfig {
        window: 26,
        virtual_antennas: 30,
    };
    // Build averaged matrices + tracked paths per group once.
    let tracked: Vec<(usize, AlignmentMatrix, Vec<isize>)> = groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let mats: Vec<AlignmentMatrix> = g
                .iter()
                .map(|pg| alignment_matrix(&series[pg.pair.i], &series[pg.pair.j], config))
                .collect();
            let refs: Vec<&AlignmentMatrix> = mats.iter().collect();
            let avg = AlignmentMatrix::average_with(&refs, &Pool::serial());
            let path = track_peaks(&avg, DpConfig::default());
            (gi, avg, path.lags)
        })
        .collect();

    // Evaluate the winning group per leg of the square.
    let leg_samples = (side * fs) as usize;
    let truth_heading = [0.0f64, 90.0, 180.0, -90.0];
    let mut correct_legs = 0;
    for (leg, &truth) in truth_heading.iter().enumerate() {
        let mid0 = leg * leg_samples + leg_samples / 4;
        let mid1 = leg * leg_samples + 3 * leg_samples / 4;
        let (best_gi, best_q, best_lag) = tracked
            .iter()
            .map(|(gi, avg, lags)| {
                let q: f64 = (mid0..mid1)
                    .map(|t| avg.at(t, lags[t]) - avg.column_floor(t))
                    .sum::<f64>()
                    / (mid1 - mid0) as f64;
                let mid_lag = lags[(mid0 + mid1) / 2];
                (*gi, q, mid_lag)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let g = &groups[best_gi];
        let implied = if best_lag >= 0 {
            g[0].direction
        } else {
            wrap_angle(g[0].direction + std::f64::consts::PI)
        };
        let pair_names: Vec<String> = g.iter().map(|p| p.pair.to_string()).collect();
        let ok = rim_dsp::stats::angle_diff(implied, truth.to_radians()) < 16f64.to_radians();
        if ok {
            correct_legs += 1;
        }
        report.row(
            format!("leg {} (truth {truth:>4}°)", leg + 1),
            format!(
                "aligned group {{{}}} lag {:+} → heading {:.0}° (prominence {:.2})",
                pair_names.join(", "),
                best_lag,
                implied.to_degrees(),
                best_q
            ),
        );
    }
    report.row(
        "legs with correct aligned pair",
        format!("{correct_legs}/4"),
    );
    report.note("pair labels are 1-based as in the paper's Fig. 2".to_string());
    report
}

/// Renders the averaged alignment matrix of the first parallel group as
/// an ASCII heatmap (used by the binary for the paper's Fig. 5 visual).
pub fn heatmap(fast: bool) -> Option<String> {
    let fs = env::SAMPLE_RATE;
    let side = if fast { 0.6 } else { 1.0 };
    let geo = hexagonal_array();
    let sim = ChannelSimulator::open_lab(7);
    let p0 = Point2::new(0.0, 1.5);
    let wps = [
        p0,
        Point2::new(p0.x + side, p0.y),
        Point2::new(p0.x + side, p0.y + side),
        Point2::new(p0.x, p0.y + side),
        p0,
    ];
    let traj = polyline(&wps, 1.0, fs, OrientationMode::Fixed(0.0));
    let dense = env::record(&sim, &geo, &traj, 3, LossModel::None, None);
    let series: Vec<Vec<NormSnapshot>> = dense
        .antennas
        .iter()
        .map(|s| NormSnapshot::series(s))
        .collect();
    let g = geo.parallel_groups().into_iter().next()?;
    let config = AlignmentConfig {
        window: 26,
        virtual_antennas: 30,
    };
    let mats: Vec<AlignmentMatrix> = g
        .iter()
        .map(|pg| alignment_matrix(&series[pg.pair.i], &series[pg.pair.j], config))
        .collect();
    let refs: Vec<&AlignmentMatrix> = mats.iter().collect();
    let avg = AlignmentMatrix::average_with(&refs, &Pool::serial());
    Some(rim_core::diagnostics::render_matrix(&avg, 78, 17))
}

#[cfg(test)]
mod tests {
    #[test]
    fn square_legs_resolve() {
        let r = super::run(true);
        let last = &r.rows.last().unwrap().1;
        let correct: u32 = last.split('/').next().unwrap().parse().unwrap();
        assert!(correct >= 3, "at least 3 of 4 legs: {last}");
    }
}
