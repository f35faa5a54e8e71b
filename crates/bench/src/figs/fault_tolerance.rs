//! §7 — fault tolerance of the streaming pipeline under CSI loss.
//!
//! Paper (text, no figure): RIM "can tolerate packet loss to a certain
//! extent by interpolation"; §7 warns that contended channels cause
//! bursty loss. This experiment sweeps loss severity on the open-lab
//! line trajectory and measures how the gap-aware streaming front-end
//! degrades: distance error, time spent in degraded mode, and mean
//! segment confidence.

use crate::env::{self, linear_array};
use crate::report::{ErrorStats, Report};
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::stream::{RimStream, StreamAggregate};
use rim_core::RimConfig;
use rim_csi::{synced_from_recording, CsiRecorder, LossModel, RecorderConfig};

/// Runs the experiment.
pub fn run(fast: bool) -> Report {
    let mut report = Report::new(
        "§7",
        "Fault tolerance under CSI loss (streaming)",
        "loss is tolerated by interpolation up to a point; beyond it the \
         stream degrades gracefully — split segments and lowered \
         confidence, never a panic or runaway estimate",
    );
    let fs = env::SAMPLE_RATE;
    let geo = linear_array();
    let traces = if fast { 2 } else { 5 };
    let severities: &[(&str, LossModel)] = &[
        ("clean", LossModel::None),
        ("iid 10%", LossModel::Iid { p: 0.1 }),
        ("iid 25%", LossModel::Iid { p: 0.25 }),
        (
            "bursty 30%",
            LossModel::GilbertElliott {
                p_enter_bad: 0.05,
                p_exit_bad: 0.2,
                loss_good: 0.05,
                loss_bad: 1.0,
            },
        ),
    ];

    for &(label, model) in severities {
        let mut errors = Vec::new();
        let mut degraded_time = 0.0;
        let mut confidence = Vec::new();
        let mut total_time = 0.0;
        for k in 0..traces {
            let sim = ChannelSimulator::open_lab(7 + k as u64);
            let traj = line(
                env::lab_start(k),
                0.0,
                2.0,
                1.0,
                fs,
                OrientationMode::FollowPath,
            );
            let clean = CsiRecorder::new(
                &sim,
                env::device_for(&geo),
                RecorderConfig {
                    sanitize: true,
                    seed: 300 + k as u64,
                },
            )
            .record(&traj);
            let lossy = match model {
                LossModel::None => clean,
                m => clean.degrade(m, 900 + k as u64),
            };
            let mut stream =
                RimStream::new(geo.clone(), RimConfig::for_sample_rate(fs)).expect("valid config");
            let mut agg = StreamAggregate::default();
            for sample in synced_from_recording(&lossy) {
                agg.absorb(&stream.ingest(sample).expect("ingest never errors"));
            }
            agg.absorb(&stream.finish());
            errors.push((agg.total_distance() - traj.total_distance()).abs());
            degraded_time += stream.degraded_time_s();
            total_time += lossy.n_samples() as f64 / fs;
            confidence.push(agg.mean_confidence());
        }
        let mean_conf = confidence.iter().sum::<f64>() / confidence.len() as f64;
        report.row(
            label,
            format!(
                "{}, degraded {:.0}% of time, mean confidence {:.2}",
                ErrorStats::of(&errors).fmt_cm(),
                100.0 * degraded_time / total_time,
                mean_conf
            ),
        );
    }
    report.note(
        "loss is injected post hoc on the clean capture (whole-device \
         Gilbert–Elliott / i.i.d. drops), so every severity sees the same \
         channel realisations",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn degradation_is_graceful_not_catastrophic() {
        let r = super::run(true);
        let median = |value: &str| -> f64 {
            value
                .split("median ")
                .nth(1)
                .unwrap()
                .split(" cm")
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let clean = median(&r.rows[0].1);
        for (label, value) in &r.rows {
            let m = median(value);
            // Bounded degradation: even 30% bursty loss stays within
            // 60 cm median on a 2 m trajectory (clean is a few cm).
            assert!(m < 60.0, "{label}: median {m} cm (clean {clean} cm)");
        }
    }
}
