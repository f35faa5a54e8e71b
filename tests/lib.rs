//! Shared helpers for the cross-crate integration tests.

use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_channel::trajectory::Trajectory;
use rim_channel::ChannelSimulator;
use rim_core::{MotionEstimate, Rim, RimConfig};
use rim_csi::{CsiRecorder, DeviceConfig, RecorderConfig};
use std::time::Instant;

/// The standard test sample rate (100 Hz keeps integration tests fast
/// while staying above the paper's accuracy knee for ≤1 m/s motion).
pub const FS: f64 = 100.0;

/// λ/2 spacing.
pub const SPACING: f64 = HALF_WAVELENGTH;

/// Records and analyses a trajectory against a simulator.
pub fn run_pipeline(
    sim: &ChannelSimulator,
    geometry: &ArrayGeometry,
    traj: &Trajectory,
    config: RimConfig,
    seed: u64,
) -> MotionEstimate {
    let device = if geometry.nic_groups().len() == 2 {
        DeviceConfig::dual_nic(geometry.offsets().to_vec())
    } else {
        DeviceConfig::single_nic(geometry.offsets().to_vec())
    };
    let dense = CsiRecorder::new(
        sim,
        device,
        RecorderConfig {
            sanitize: true,
            seed,
        },
    )
    .record(traj)
    .interpolated()
    .expect("interpolable recording");
    Rim::new(geometry.clone(), config)
        .unwrap()
        .analyze(&dense)
        .unwrap()
}

/// Standard config bounded at a minimum speed.
pub fn config(min_speed: f64) -> RimConfig {
    RimConfig::for_sample_rate(FS).with_min_speed(min_speed, SPACING, FS)
}

/// Per-pair cost ratios `a / b` of an A/B wall-clock comparison, sorted.
///
/// The pairs interleave the two sides and alternate which one runs first,
/// so warm-up, frequency drift and a noisy neighbour land on both sides
/// alike. Gate on [`median`] of the result; the spread is printed under
/// `label` so a failing run shows whether it was noise.
pub fn ab_ratios(
    label: &str,
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> Vec<f64> {
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|i| {
            let (ca, cb) = if i % 2 == 0 {
                let ca = a();
                (ca, b())
            } else {
                let cb = b();
                (a(), cb)
            };
            ca / cb
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let q = |f: f64| ratios[((ratios.len() - 1) as f64 * f).round() as usize];
    eprintln!(
        "{label}: a/b over {pairs} interleaved pairs: min {:.3}, q1 {:.3}, median {:.3}, q3 {:.3}, max {:.3}",
        q(0.0),
        q(0.25),
        median(&ratios),
        q(0.75),
        q(1.0)
    );
    ratios
}

/// Median of sorted values (the mean of the middle two for even counts).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Runs `rep` until at least `min_secs` of it have been timed and returns
/// the number of reps and the timed seconds. A rep shorter than the timer
/// and scheduler noise is repeated instead of trusted alone.
pub fn timed_reps(min_secs: f64, mut rep: impl FnMut()) -> (usize, f64) {
    let t0 = Instant::now();
    let mut n = 0usize;
    loop {
        rep();
        n += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return (n, elapsed);
        }
    }
}
