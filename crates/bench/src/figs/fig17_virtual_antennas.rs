//! Fig. 17 — impact of the virtual antenna number.
//!
//! Paper: raising V from 1 to 5 drops the median distance error from
//! ~30 cm to ~10 cm; V = 100 reaches 6.6 cm; "a number larger than 30
//! should suffice for a sampling rate of 200 Hz".

use crate::env::{self, linear_array};
use crate::report::{ErrorStats, Report};
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::{HardwareProfile, LossModel};

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Fig. 17",
        "Impact of virtual antenna number",
        "median error ~30 cm at V=1, ~10 cm at V=5, 6.6 cm at V=100",
    );
    let fs = env::SAMPLE_RATE;
    let geo = linear_array();
    let traces = if fast { 3 } else { 6 };

    // A noisier front-end makes the value of massive averaging visible
    // (with a pristine channel even V = 1 can align).
    let profile = HardwareProfile {
        snr_db: 8.0,
        sto_slope_std: 0.15,
        agc_std: 0.08,
        ..HardwareProfile::commodity()
    };
    let mut recordings = Vec::new();
    let mut truths = Vec::new();
    for k in 0..traces {
        let sim = ChannelSimulator::open_lab(7 + k as u64);
        let traj = line(
            env::lab_start(k),
            0.0,
            4.0,
            1.0,
            fs,
            OrientationMode::FollowPath,
        );
        truths.push(traj.total_distance());
        // 15 % packet loss on top: bridging interpolated samples is
        // precisely what the virtual-massive average buys (paper Fig. 4b
        // shows the missing-value case).
        recordings.push(env::record(
            &sim,
            &geo,
            &traj,
            71 + k as u64,
            LossModel::Iid { p: 0.15 },
            Some(profile),
        ));
    }

    for v in [1usize, 5, 10, 50, 100] {
        let mut errors = Vec::new();
        for (rec, &truth) in recordings.iter().zip(&truths) {
            let mut config = RimConfig::for_sample_rate(fs);
            config.alignment.virtual_antennas = v;
            let est = Rim::new(geo.clone(), config).unwrap().analyze(rec).unwrap();
            errors.push((est.total_distance() - truth).abs());
        }
        report.row(format!("V = {v:>3}"), ErrorStats::of(&errors).fmt_cm());
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn more_virtual_antennas_help() {
        let r = super::run(true);
        let median = |i: usize| -> f64 {
            r.rows[i]
                .1
                .split("median ")
                .nth(1)
                .unwrap()
                .split(" cm")
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let v1 = median(0);
        let v50 = median(3);
        assert!(v50 <= v1, "V=50 ({v50} cm) no worse than V=1 ({v1} cm)");
    }
}
