//! Fault-matrix harness: a table-driven cross product of packet-loss
//! model × front-end quality (SNR / timing offsets) × worker-thread
//! count, every cell running the gap-aware streaming pipeline on its own
//! seeded loss realisation.
//!
//! Each cell asserts the graceful-degradation contract:
//!
//! * the stream never panics and keeps its absolute time axis intact
//!   (`samples_pushed` equals the capture length even across splits);
//! * the distance estimate stays bounded (no runaway integration);
//! * `Degraded` fires exactly when the injected faults exceed the
//!   configured gap tolerance — and never on clean or mild-loss input.
//!
//! This generalises the ad-hoc scenarios in `failure_injection.rs` into
//! one enumerable matrix with per-cell seeds, so a failure names its cell.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{dwell, line, OrientationMode, Trajectory};
use rim_channel::ChannelSimulator;
use rim_core::stream::{RimStream, StreamAggregate};
use rim_core::{ImuSample, RimConfig};
use rim_csi::{
    synced_from_recording, CsiRecorder, CsiRecording, DeviceConfig, HardwareProfile, LossModel,
    RecorderConfig,
};
use rim_dsp::geom::Point2;
use rim_integration_tests::{FS, SPACING};
use rim_sensors::{ImuConfig, SimulatedImu};
use rim_tracking::Fuser;

/// Burst model whose stationary loss rate is 30 % (π_bad = 0.2, so
/// 0.8·0.05 + 0.2·1.0 = 0.26 ≈ 0.3 with mean burst length 1/p_exit = 5
/// samples and a ~10 % chance any burst outlives `max_gap` = 10).
const BURST_30: LossModel = LossModel::GilbertElliott {
    p_enter_bad: 0.05,
    p_exit_bad: 0.2,
    loss_good: 0.05,
    loss_bad: 1.0,
};

/// Mild bursts: short bad state, gaps comfortably inside `max_gap`.
const BURST_MILD: LossModel = LossModel::GilbertElliott {
    p_enter_bad: 0.02,
    p_exit_bad: 0.5,
    loss_good: 0.0,
    loss_bad: 0.8,
};

/// Whether a cell's faults are allowed / required to trip the watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Degraded {
    /// Faults stay inside the gap tolerance: `Degraded` must not fire.
    Never,
    /// Faults exceed the tolerance: at least one `Degraded` (and a
    /// matching `Recovered` by end of stream) must fire.
    Required,
    /// Random heavy loss: whether a specific realisation exceeds
    /// `max_gap` is seed-dependent, so only the bounded-error and
    /// no-panic contract applies (the aggregate requirement lives in
    /// `burst_loss_median_error_within_twice_clean`).
    Allowed,
}

/// A cell's fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// Seeded stochastic loss.
    Model(LossModel),
    /// A deterministic whole-device blackout of `len` samples starting
    /// at `at` — guaranteed to exceed (or stay inside) `max_gap`
    /// regardless of seed.
    Blackout { at: usize, len: usize },
}

/// One row of the fault matrix.
struct Cell {
    name: String,
    fault: Fault,
    profile: HardwareProfile,
    threads: usize,
    degraded: Degraded,
    /// Absolute distance-error bound, metres (ground truth is 2 m).
    max_error_m: f64,
}

fn front_end(snr_db: f64, sto_slope_std: f64) -> HardwareProfile {
    HardwareProfile {
        snr_db,
        sto_slope_std,
        ..HardwareProfile::default()
    }
}

/// The matrix: loss ∈ {none, iid 10 %, mild bursts, 30 % bursts} crossed
/// with front-end quality and thread count. Bounds widen with fault
/// severity but never become unbounded.
fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &threads in &[1usize, 4] {
        for &(fe_name, profile) in &[
            ("clean-fe", HardwareProfile::default()),
            ("low-snr", front_end(12.0, 0.05)),
            ("heavy-sto", front_end(25.0, 0.15)),
        ] {
            for &(loss_name, fault, degraded, max_error_m) in &[
                (
                    "no-loss",
                    Fault::Model(LossModel::None),
                    Degraded::Never,
                    0.30,
                ),
                (
                    "iid-10",
                    Fault::Model(LossModel::Iid { p: 0.1 }),
                    Degraded::Never,
                    0.35,
                ),
                (
                    "burst-mild",
                    Fault::Model(BURST_MILD),
                    Degraded::Never,
                    0.40,
                ),
                ("burst-30", Fault::Model(BURST_30), Degraded::Allowed, 1.40),
                // Inside the gap tolerance (max_gap = 10 at 100 Hz):
                // bridged silently.
                (
                    "hole-8",
                    Fault::Blackout { at: 60, len: 8 },
                    Degraded::Never,
                    0.40,
                ),
                // Beyond it: must split, degrade, and recover mid-stream.
                (
                    "hole-25",
                    Fault::Blackout { at: 60, len: 25 },
                    Degraded::Required,
                    1.00,
                ),
            ] {
                cells.push(Cell {
                    name: format!("{loss_name}/{fe_name}/t{threads}"),
                    fault,
                    profile,
                    threads,
                    degraded,
                    max_error_m,
                });
            }
        }
    }
    cells
}

/// Per-cell seed: stable across runs, unique per cell index.
fn cell_seed(index: usize) -> u64 {
    0x5249_4d00 + index as u64 * 7919
}

fn trajectory() -> Trajectory {
    line(
        Point2::new(0.0, 2.0),
        0.0,
        2.0,
        1.0,
        FS,
        OrientationMode::FollowPath,
    )
}

/// One clean recording per front-end profile; loss is applied post hoc
/// per cell with `CsiRecording::degrade`, so every cell sees the same
/// channel and differs only in its seeded loss realisation.
fn record_clean(geometry: &ArrayGeometry, profile: HardwareProfile) -> CsiRecording {
    let sim = ChannelSimulator::open_lab(7);
    let device = DeviceConfig::single_nic(geometry.offsets().to_vec()).with_profile(profile);
    CsiRecorder::new(
        &sim,
        device,
        RecorderConfig {
            sanitize: true,
            seed: 7,
        },
    )
    .record(&trajectory())
}

/// Streams a (possibly lossy) recording through the gap-aware front-end
/// and returns the aggregate plus the total estimated distance.
fn stream_recording(
    geometry: &ArrayGeometry,
    recording: &CsiRecording,
    threads: usize,
) -> (StreamAggregate, f64) {
    let cfg = RimConfig::for_sample_rate(FS).with_threads(threads);
    let mut stream = RimStream::new(geometry.clone(), cfg).expect("valid config");
    let mut agg = StreamAggregate::default();
    for sample in synced_from_recording(recording) {
        let events = stream.ingest(sample).expect("ingest never errors");
        agg.absorb(&events);
    }
    agg.absorb(&stream.finish());
    // Time-axis integrity: the stream spans exactly the delivered range —
    // from the first fully-present sample (the gap filter's epoch) to the
    // last present one — even when interior splits skipped lost
    // stretches. Samples lost at the edges never arrive, so they cannot
    // be counted.
    let present = |i: usize| recording.antennas.iter().all(|a| a[i].is_some());
    let first_full = (0..recording.n_samples()).find(|&i| present(i));
    let last_any = (0..recording.n_samples())
        .rev()
        .find(|&i| recording.antennas.iter().any(|a| a[i].is_some()));
    let expected_span = match (first_full, last_any) {
        (Some(f), Some(l)) if l >= f => l - f + 1,
        _ => 0,
    };
    assert_eq!(
        stream.samples_pushed(),
        expected_span,
        "absolute time axis must survive splits"
    );
    let distance = agg.total_distance();
    (agg, distance)
}

#[test]
fn fault_matrix_holds_graceful_degradation_contract() {
    let geometry = ArrayGeometry::linear(3, SPACING);
    let truth = trajectory().total_distance();
    // Record once per distinct profile, reuse across loss cells.
    let profiles: Vec<HardwareProfile> = {
        let mut seen: Vec<HardwareProfile> = Vec::new();
        for cell in matrix() {
            if !seen.contains(&cell.profile) {
                seen.push(cell.profile);
            }
        }
        seen
    };
    let recordings: Vec<(HardwareProfile, CsiRecording)> = profiles
        .into_iter()
        .map(|p| (p, record_clean(&geometry, p)))
        .collect();

    let mut failures = Vec::new();
    for (index, cell) in matrix().iter().enumerate() {
        let clean = &recordings
            .iter()
            .find(|(p, _)| *p == cell.profile)
            .expect("profile recorded")
            .1;
        let lossy = match cell.fault {
            Fault::Model(LossModel::None) => clean.clone(),
            Fault::Model(model) => clean.degrade(model, cell_seed(index)),
            Fault::Blackout { at, len } => {
                let mut r = clean.clone();
                for antenna in &mut r.antennas {
                    for slot in antenna.iter_mut().skip(at).take(len) {
                        *slot = None;
                    }
                }
                r
            }
        };
        let (agg, distance) = stream_recording(&geometry, &lossy, cell.threads);
        let error = (distance - truth).abs();
        let mut check = |ok: bool, what: String| {
            if !ok {
                failures.push(format!("[{}] {what}", cell.name));
            }
        };
        check(
            error <= cell.max_error_m,
            format!(
                "distance error {error:.3} m exceeds bound {:.3} m (est {distance:.3}, truth {truth:.3})",
                cell.max_error_m
            ),
        );
        match cell.degraded {
            Degraded::Never => check(
                agg.degraded == 0,
                format!("unexpected Degraded ×{}", agg.degraded),
            ),
            Degraded::Required => {
                check(agg.degraded >= 1, "no Degraded event fired".into());
                check(
                    agg.recovered >= 1,
                    "Degraded never followed by Recovered".into(),
                );
            }
            Degraded::Allowed => {}
        }
    }
    assert!(
        failures.is_empty(),
        "{} fault-matrix cells failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The headline acceptance scenario: 30 % Gilbert–Elliott burst loss on
/// the open-lab line trajectory. Streaming must emit `Degraded` and
/// `Recovered`, never panic, and keep the median distance error within
/// 2× of the clean baseline (floored at 25 cm so a near-perfect clean
/// run does not make the bound vacuous).
#[test]
fn burst_loss_median_error_within_twice_clean() {
    let geometry = ArrayGeometry::linear(3, SPACING);
    let truth = trajectory().total_distance();
    let clean = record_clean(&geometry, HardwareProfile::default());
    let (clean_agg, clean_distance) = stream_recording(&geometry, &clean, 1);
    assert_eq!(clean_agg.degraded, 0, "clean stream must not degrade");
    let clean_error = (clean_distance - truth).abs();

    let mut errors = Vec::new();
    let mut total_degraded = 0;
    let mut total_recovered = 0;
    for seed in 0..5u64 {
        let lossy = clean.degrade(BURST_30, 1000 + seed);
        // The stationary rate is 26 %, but a ~200-sample capture sees
        // sizeable per-realisation variance; just require genuinely
        // heavy loss.
        assert!(
            lossy.loss_rate() > 0.1,
            "burst model realises heavy loss: {}",
            lossy.loss_rate()
        );
        let (agg, distance) = stream_recording(&geometry, &lossy, 1);
        errors.push((distance - truth).abs());
        total_degraded += agg.degraded;
        total_recovered += agg.recovered;
    }
    errors.sort_by(|a, b| a.total_cmp(b));
    let median = errors[errors.len() / 2];
    let bound = (2.0 * clean_error).max(0.25);
    assert!(
        median <= bound,
        "median error {median:.3} m exceeds {bound:.3} m (clean {clean_error:.3} m, all {errors:?})"
    );
    assert!(
        total_degraded >= 1 && total_recovered >= 1,
        "30% burst loss must trip the watchdog: degraded {total_degraded}, recovered {total_recovered}"
    );
}

/// A walked trajectory long enough to carry a 2 s blackout: 1 s at rest,
/// then 6 m of gait (speed oscillating per 0.3 m step so the
/// accelerometer sees the walk).
fn fused_cell_trajectory() -> Trajectory {
    let start = Point2::new(0.0, 2.0);
    let mut traj = dwell(start, 0.0, 1.0, FS);
    let steps = 20usize;
    for s in 0..steps {
        let end = traj.pose(traj.len() - 1);
        let speed = if s % 2 == 0 { 1.25 } else { 0.8 };
        traj.extend(&line(
            end.pos,
            0.0,
            0.3,
            speed,
            FS,
            OrientationMode::FollowPath,
        ));
    }
    traj
}

/// The fusion cell of the matrix: a 2 s whole-device blackout mid-walk.
/// RIM-only permanently loses the distance walked inside the gap; the
/// fused stream coasts through on the IMU. Across five consumer-IMU
/// noise realisations, the fused median total-distance error must beat
/// RIM-only's.
#[test]
fn fused_beats_rim_only_median_error_through_blackout() {
    let geometry = ArrayGeometry::linear(3, SPACING);
    let traj = fused_cell_trajectory();
    let truth = traj.total_distance();
    let sim = ChannelSimulator::open_lab(7);
    let device = DeviceConfig::single_nic(geometry.offsets().to_vec());
    let mut recording = CsiRecorder::new(
        &sim,
        device,
        RecorderConfig {
            sanitize: true,
            seed: 7,
        },
    )
    .record(&traj);
    // 2 s blackout squarely inside the walk.
    let blackout = ((3.0 * FS) as usize, (2.0 * FS) as usize);
    for antenna in &mut recording.antennas {
        for slot in antenna.iter_mut().skip(blackout.0).take(blackout.1) {
            *slot = None;
        }
    }
    let samples = synced_from_recording(&recording);

    // RIM-only: one deterministic stream (no IMU in the loop).
    let mut rim_only =
        RimStream::new(geometry.clone(), RimConfig::for_sample_rate(FS)).expect("valid config");
    let mut agg = StreamAggregate::default();
    for sample in samples.iter() {
        agg.absorb(&rim_only.ingest(sample.clone()).expect("ingest"));
    }
    agg.absorb(&rim_only.finish());
    let rim_error = (agg.total_distance() - truth).abs();
    assert!(
        agg.degraded >= 1,
        "the blackout must trip the watchdog (degraded {})",
        agg.degraded
    );

    // Fused: five IMU noise realisations over the same gapped CSI.
    let mut fused_errors: Vec<f64> = (0..5u64)
        .map(|seed| {
            let imu = SimulatedImu::new(ImuConfig::consumer(), 40 + seed).sample(&traj);
            let fuser = Fuser::builder()
                .initial_position(Point2::new(0.0, 2.0))
                .zupt_window((0.4 * FS) as usize)
                .rim_heading_noise(f64::INFINITY)
                .accel_noise(0.3)
                .build()
                .expect("valid knobs");
            let mut fused = fuser.stream(
                RimStream::new(geometry.clone(), RimConfig::for_sample_rate(FS))
                    .expect("valid config"),
            );
            for (i, sample) in samples.iter().enumerate() {
                let batch = vec![ImuSample {
                    t_us: (i as f64 / FS * 1e6) as u64,
                    accel_body: imu.accel_body[i],
                    gyro_z: imu.gyro_z[i],
                    mag_orientation: Some(imu.mag_orientation[i]),
                }];
                fused.ingest(batch).expect("imu ingest");
                fused.ingest(sample.clone()).expect("csi ingest");
            }
            fused.finish();
            (fused.total_distance() - truth).abs()
        })
        .collect();
    fused_errors.sort_by(|a, b| a.total_cmp(b));
    let fused_median = fused_errors[fused_errors.len() / 2];
    assert!(
        fused_median < rim_error,
        "fused median {fused_median:.3} m must beat RIM-only {rim_error:.3} m \
         (truth {truth:.3} m, fused errors {fused_errors:?})"
    );
}
