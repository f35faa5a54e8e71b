//! Fig. 6 — antenna alignment under deviated retracing.
//!
//! Paper: moving at an angle α off the pair's aligned line still produces
//! an evident (though weaker) TRRS peak up to α ≈ 15°, and the Δd′ = Δd·cos α
//! approximation overestimates distance by 1/cos α (3.53 % at 15°).

use crate::env::{self, linear_array};
use crate::report::Report;
use rim_channel::trajectory::{back_and_forth, line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::alignment::{alignment_matrix, AlignmentConfig};
use rim_core::tracking_dp::{track_peaks, DpConfig};
use rim_core::trrs::NormSnapshot;
use rim_core::{AlignmentMatrix, Rim, RimConfig};
use rim_csi::LossModel;

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 6",
        "Deviated retracing",
        "TRRS peaks survive ≤15° deviation, weaker but evident; distance \
         overestimated by 1/cos α (worst 3.53 % at 15°, mean 1.20 %)",
    );
    let fs = env::SAMPLE_RATE;
    let geo = linear_array();
    let n_seeds = if fast { 2 } else { 4 };

    // (a) Ridge prominence vs deviation angle for the adjacent pair.
    for deviation_deg in [0.0f64, 5.0, 10.0, 15.0, 20.0, 25.0] {
        let mut prom = 0.0;
        for seed in 0..n_seeds {
            let sim = ChannelSimulator::open_lab(9 + seed);
            let traj = back_and_forth(
                env::lab_start(seed as usize),
                deviation_deg.to_radians(),
                0.5,
                1.0,
                0.3,
                fs,
                OrientationMode::Fixed(0.0),
            );
            let dense = env::record(&sim, &geo, &traj, seed, LossModel::None, None);
            let series: Vec<Vec<NormSnapshot>> = dense
                .antennas
                .iter()
                .map(|s| NormSnapshot::series(s))
                .collect();
            let n = dense.n_samples();
            let m = alignment_matrix(
                &series[0],
                &series[1],
                AlignmentConfig {
                    window: 26,
                    virtual_antennas: 30,
                },
            );
            let path = track_peaks(&m, DpConfig::default());
            // Prominence over the forward phase (skip transients).
            let lo = n / 8;
            let hi = 3 * n / 8;
            prom += (lo..hi)
                .map(|t| m.at(t, path.lags[t]) - m.column_floor(t))
                .sum::<f64>()
                / (hi - lo) as f64;
        }
        report.row(
            format!("ridge prominence @ {deviation_deg:>4.0}° deviation"),
            format!("{:.3}", prom / n_seeds as f64),
        );
    }

    // (b) Distance overestimation at 15° deviation (full pipeline).
    let mut ratios = Vec::new();
    for seed in 0..n_seeds {
        let sim = ChannelSimulator::open_lab(9 + seed);
        let truth = 1.0;
        let traj = line(
            env::lab_start(seed as usize + 2),
            15f64.to_radians(),
            truth,
            1.0,
            fs,
            OrientationMode::Fixed(0.0),
        );
        let dense = env::record(&sim, &geo, &traj, seed + 9, LossModel::None, None);
        let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
            .unwrap()
            .analyze(&dense)
            .unwrap();
        if est.total_distance() > 0.0 {
            ratios.push(est.total_distance() / truth);
        }
    }
    if !ratios.is_empty() {
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        report.row(
            "distance ratio @ 15° deviation",
            format!(
                "{:.3} (theory 1/cos 15° = {:.3})",
                mean_ratio,
                1.0 / 15f64.to_radians().cos()
            ),
        );
    }
    let _unused: Option<AlignmentMatrix> = None;
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn prominence_decays_with_deviation() {
        let r = super::run(true);
        let val = |i: usize| -> f64 { r.rows[i].1.parse().unwrap() };
        let p0 = val(0);
        let p15 = val(3);
        let p25 = val(5);
        assert!(p0 > p15, "aligned beats 15°: {p0} vs {p15}");
        assert!(p15 > 0.07, "15° deviation still evident: {p15}");
        assert!(p25 < p0 * 0.6, "25° clearly degraded: {p25} vs {p0}");
    }
}
