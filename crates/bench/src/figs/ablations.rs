//! Ablation studies of RIM's design choices (DESIGN.md inventory):
//!
//! * DP peak tracking vs naive per-column argmax (§4.2's motivation),
//! * phase sanitation on vs off (§3.2 footnote 3),
//! * TX-antenna averaging: 3 TX vs 1 TX (Eqn. 3),
//! * parallel-group matrix averaging on vs off (§4.2),
//! * RIM's virtual antenna alignment vs the WiBall-style single-antenna
//!   TRRS-decay estimator (§7),
//! * effective bandwidth: 114-subcarrier Atheros CSI vs the Intel 5300's
//!   30 grouped subcarriers.

use crate::env::{self, linear_array};
use crate::report::{ErrorStats, Report};
use rim_array::ArrayGeometry;
use rim_channel::trajectory::{line, OrientationMode, Trajectory};
use rim_channel::ChannelSimulator;
use rim_core::alignment::{alignment_matrix, AlignmentConfig};
use rim_core::tracking_dp::{track_peaks, DpConfig};
use rim_core::trrs::NormSnapshot;
use rim_core::{Rim, RimConfig};
use rim_csi::recorder::DenseCsi;
use rim_csi::{CsiRecorder, DeviceConfig, HardwareProfile, LossModel, RecorderConfig};

/// Runs the ablations.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "Ablations",
        "Design-choice ablations",
        "each RIM design choice should visibly improve accuracy/robustness",
    );
    let fs = env::SAMPLE_RATE;
    let geo = linear_array();
    let traces = if fast { 3 } else { 6 };
    let truth_m = 3.0;

    // Shared noisy workload (stress where the design choices matter).
    let make_traj = |k: usize| -> Trajectory {
        line(
            env::lab_start(k),
            0.0,
            truth_m,
            1.0,
            fs,
            OrientationMode::FollowPath,
        )
    };
    let noisy = HardwareProfile::noisy();

    // --- DP tracking vs per-column argmax on the same matrices.
    let mut dp_err = Vec::new();
    let mut argmax_err = Vec::new();
    for k in 0..traces {
        let sim = ChannelSimulator::open_lab(7 + k as u64);
        let traj = make_traj(k);
        // Harsh regime: this is where robust peak tracking matters.
        let stress = HardwareProfile {
            snr_db: 9.0,
            sto_slope_std: 0.15,
            ..HardwareProfile::noisy()
        };
        let dense = env::record(
            &sim,
            &geo,
            &traj,
            300 + k as u64,
            LossModel::Iid { p: 0.25 },
            Some(stress),
        );
        let series: Vec<Vec<NormSnapshot>> = dense
            .antennas
            .iter()
            .map(|s| NormSnapshot::series(s))
            .collect();
        // Lightly averaged matrix (V = 5): isolates the tracker's own
        // robustness from what Eqn. 4's massive averaging provides — with
        // V = 30 the matrix is clean enough that any peak picker works.
        let m = alignment_matrix(
            &series[0],
            &series[1],
            AlignmentConfig {
                window: 26,
                virtual_antennas: 5,
            },
        );
        let dp = track_peaks(&m, DpConfig::default());
        let am_lags: Vec<isize> = m.column_peaks().iter().map(|&(l, _)| l).collect();
        // Compare the tracked lag paths against the true alignment delay
        // (Δd/v·fs) over the steady interior — the quantity §4.2's tracker
        // exists to recover. (Distance integrates over the shared
        // quantisation bias and hides the difference.)
        let true_lag = env::SPACING / 1.0 * fs;
        let rms = |lags: &[isize]| -> f64 {
            let inner = &lags[lags.len() / 6..5 * lags.len() / 6];
            (inner
                .iter()
                .map(|&l| (l as f64 - true_lag).powi(2))
                .sum::<f64>()
                / inner.len() as f64)
                .sqrt()
        };
        dp_err.push(rms(&dp.lags));
        argmax_err.push(rms(&am_lags));
    }
    report.row(
        "DP tracking lag RMS (9 dB, 25% loss)",
        format!(
            "median {:.2} samples (n={})",
            rim_dsp::stats::median(&dp_err),
            dp_err.len()
        ),
    );
    report.row(
        "per-column argmax lag RMS (same data)",
        format!(
            "median {:.2} samples (n={})",
            rim_dsp::stats::median(&argmax_err),
            argmax_err.len()
        ),
    );

    // --- Sanitation on vs off (full pipeline distance).
    for sanitize in [true, false] {
        let mut errs = Vec::new();
        for k in 0..traces {
            let sim = ChannelSimulator::open_lab(7 + k as u64);
            let traj = make_traj(k);
            let device = DeviceConfig::single_nic(geo.offsets().to_vec());
            let dense: DenseCsi = CsiRecorder::new(
                &sim,
                device,
                RecorderConfig {
                    sanitize,
                    seed: 310 + k as u64,
                },
            )
            .record(&traj)
            .interpolated()
            .unwrap();
            let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
                .unwrap()
                .analyze(&dense)
                .unwrap();
            errs.push((est.total_distance() - truth_m).abs());
        }
        report.row(
            format!("sanitation {}", if sanitize { "on" } else { "off" }),
            ErrorStats::of(&errs).fmt_cm(),
        );
    }

    // --- TX diversity: 3 TX antennas vs 1 (drop the others after
    // recording). Spatial diversity pays off when each single link is
    // marginal, so this runs at low SNR.
    for n_tx in [3usize, 1] {
        let mut errs = Vec::new();
        for k in 0..traces {
            let sim = ChannelSimulator::open_lab(7 + k as u64);
            let traj = make_traj(k);
            let low_snr = HardwareProfile {
                snr_db: 7.0,
                ..HardwareProfile::noisy()
            };
            let mut dense = env::record(
                &sim,
                &geo,
                &traj,
                320 + k as u64,
                LossModel::None,
                Some(low_snr),
            );
            if n_tx == 1 {
                for ant in &mut dense.antennas {
                    for snap in ant {
                        snap.per_tx.truncate(1);
                    }
                }
            }
            let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
                .unwrap()
                .analyze(&dense)
                .unwrap();
            errs.push((est.total_distance() - truth_m).abs());
        }
        report.row(
            format!("{n_tx} TX antenna(s)"),
            ErrorStats::of(&errs).fmt_cm(),
        );
    }

    // --- Parallel-group averaging: hexagonal array vs a degraded variant
    // using only one pair per direction (simulated by a 2-antenna array
    // on the motion axis).
    let hex = ArrayGeometry::hexagonal(env::SPACING);
    let pair_only = ArrayGeometry::linear(2, env::SPACING);
    for (label, g) in [
        ("hexagonal (groups averaged)", &hex),
        ("single pair", &pair_only),
    ] {
        let mut errs = Vec::new();
        for k in 0..traces {
            let sim = ChannelSimulator::open_lab(7 + k as u64);
            let traj = make_traj(k);
            let dense = env::record(&sim, g, &traj, 330 + k as u64, LossModel::None, Some(noisy));
            let est = Rim::new((*g).clone(), RimConfig::for_sample_rate(fs))
                .unwrap()
                .analyze(&dense)
                .unwrap();
            errs.push((est.total_distance() - truth_m).abs());
        }
        report.row(label.to_string(), ErrorStats::of(&errs).fmt_cm());
    }

    // --- RIM vs WiBall-style single-antenna estimation (§7).
    {
        let mut rim_errs = Vec::new();
        let mut wiball_errs = Vec::new();
        for k in 0..traces {
            let sim = ChannelSimulator::open_lab(7 + k as u64);
            let traj = make_traj(k);
            let dense = env::record(&sim, &geo, &traj, 340 + k as u64, LossModel::None, None);
            let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
                .unwrap()
                .analyze(&dense)
                .unwrap();
            rim_errs.push((est.total_distance() - truth_m).abs());
            // WiBall: single antenna (the middle one), same recording.
            let series = rim_core::trrs::NormSnapshot::series(&dense.antennas[1]);
            let wcfg = rim_core::wiball::WiballConfig::for_sample_rate(fs);
            let speeds = rim_core::wiball::speed_series(&series, &wcfg, fs);
            // Gate to the moving span RIM detected (WiBall has no movement
            // detector of its own here).
            let gated: Vec<f64> = speeds
                .iter()
                .zip(&est.moving)
                .map(|(&v, &m)| if m { v } else { 0.0 })
                .collect();
            let d = rim_core::wiball::integrate_distance(&gated, fs);
            wiball_errs.push((d - truth_m).abs());
        }
        report.row(
            "RIM alignment (3 antennas)",
            ErrorStats::of(&rim_errs).fmt_cm(),
        );
        report.row(
            "WiBall-style decay (1 antenna, §7)",
            ErrorStats::of(&wiball_errs).fmt_cm(),
        );
    }

    // --- Effective bandwidth: keep every subcarrier vs the Intel 5300's
    // 30 grouped ones (every 4th index).
    {
        for (label, keep_every) in [
            ("114 subcarriers (Atheros)", 1usize),
            ("30 subcarriers (Intel 5300-like)", 4),
        ] {
            let mut errs = Vec::new();
            for k in 0..traces {
                let sim = ChannelSimulator::open_lab(7 + k as u64);
                let traj = make_traj(k);
                let mut dense = env::record(
                    &sim,
                    &geo,
                    &traj,
                    350 + k as u64,
                    LossModel::None,
                    Some(noisy),
                );
                if keep_every > 1 {
                    dense.subcarrier_indices = dense
                        .subcarrier_indices
                        .iter()
                        .step_by(keep_every)
                        .copied()
                        .collect();
                    for ant in &mut dense.antennas {
                        for snap in ant {
                            for cfr in &mut snap.per_tx {
                                *cfr = cfr.iter().step_by(keep_every).copied().collect();
                            }
                        }
                    }
                }
                let est = Rim::new(geo.clone(), RimConfig::for_sample_rate(fs))
                    .unwrap()
                    .analyze(&dense)
                    .unwrap();
                errs.push((est.total_distance() - truth_m).abs());
            }
            report.row(label.to_string(), ErrorStats::of(&errs).fmt_cm());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn dp_beats_argmax_under_stress() {
        let r = super::run(true);
        let median = |label: &str| -> f64 {
            r.rows
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .unwrap()
                .1
                .split("median ")
                .nth(1)
                .unwrap()
                .split(" samples")
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let dp = median("DP tracking");
        let am = median("per-column argmax");
        assert!(
            dp <= am + 0.05,
            "DP ({dp}) at least as good as argmax ({am}) in lag RMS"
        );
    }
}
