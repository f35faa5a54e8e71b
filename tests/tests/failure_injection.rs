//! Failure-injection integration tests: the pipeline must degrade
//! gracefully — not collapse — under packet loss, low SNR, heavy timing
//! offsets and cross-NIC loss asymmetry.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::{CsiRecorder, DeviceConfig, HardwareProfile, LossModel, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_integration_tests::{FS, SPACING};

fn run_with(
    device: DeviceConfig,
    geometry: &ArrayGeometry,
    cfg: RimConfig,
    seed: u64,
) -> (f64, f64) {
    let sim = ChannelSimulator::open_lab(7);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        2.0,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
    let rec = CsiRecorder::new(
        &sim,
        device,
        RecorderConfig {
            sanitize: true,
            seed,
        },
    );
    let recording = rec.record(&traj);
    let dense = recording.interpolated().expect("interpolable");
    let est = Rim::new(geometry.clone(), cfg)
        .unwrap()
        .analyze(&dense)
        .unwrap();
    (est.total_distance(), traj.total_distance())
}

#[test]
fn tolerates_ten_percent_iid_loss() {
    let geo = ArrayGeometry::linear(3, SPACING);
    let device =
        DeviceConfig::single_nic(geo.offsets().to_vec()).with_loss(LossModel::Iid { p: 0.1 });
    let (est, truth) = run_with(device, &geo, RimConfig::for_sample_rate(FS), 1);
    assert!(
        (est - truth).abs() < 0.2,
        "10% loss: {est:.2} vs {truth:.2}"
    );
}

#[test]
fn tolerates_bursty_loss() {
    let geo = ArrayGeometry::linear(3, SPACING);
    let device =
        DeviceConfig::single_nic(geo.offsets().to_vec()).with_loss(LossModel::GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.3,
            loss_good: 0.01,
            loss_bad: 0.7,
        });
    let (est, truth) = run_with(device, &geo, RimConfig::for_sample_rate(FS), 2);
    assert!(
        (est - truth).abs() < 0.35,
        "bursty loss: {est:.2} vs {truth:.2}"
    );
}

#[test]
fn tolerates_noisy_front_end() {
    let geo = ArrayGeometry::linear(3, SPACING);
    let device =
        DeviceConfig::single_nic(geo.offsets().to_vec()).with_profile(HardwareProfile::noisy());
    let (est, truth) = run_with(device, &geo, RimConfig::for_sample_rate(FS), 3);
    assert!(
        (est - truth).abs() < 0.25,
        "noisy NIC: {est:.2} vs {truth:.2}"
    );
}

#[test]
fn degrades_not_explodes_at_low_snr() {
    let geo = ArrayGeometry::linear(3, SPACING);
    let profile = HardwareProfile {
        snr_db: 6.0,
        ..HardwareProfile::noisy()
    };
    let device = DeviceConfig::single_nic(geo.offsets().to_vec()).with_profile(profile);
    let (est, truth) = run_with(device, &geo, RimConfig::for_sample_rate(FS), 4);
    // At 6 dB the estimate may be rough, but it must stay the right order
    // of magnitude (no runaway integration like an accelerometer's).
    assert!(
        est >= 0.0 && est < 2.0 * truth + 0.5,
        "bounded at 6 dB: {est:.2} vs {truth:.2}"
    );
}

#[test]
fn hexagonal_survives_asymmetric_nic_loss() {
    // NIC 1 clean, NIC 2 lossy: cross-NIC pairs degrade but same-NIC
    // pairs hold the estimate together.
    let geo = ArrayGeometry::hexagonal(SPACING);
    let mut device = DeviceConfig::dual_nic(geo.offsets().to_vec());
    device.nics[1].loss = LossModel::Iid { p: 0.25 };
    let (est, truth) = run_with(device, &geo, RimConfig::for_sample_rate(FS), 5);
    assert!(
        (est - truth).abs() < 0.3,
        "asymmetric loss: {est:.2} vs {truth:.2}"
    );
}

#[test]
fn interpolation_rejects_dead_antenna() {
    // An antenna that lost every packet cannot be interpolated: the
    // recording reports it instead of fabricating data.
    let geo = ArrayGeometry::linear(3, SPACING);
    let sim = ChannelSimulator::open_lab(7);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        0.3,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
    let device = DeviceConfig::single_nic(geo.offsets().to_vec());
    let rec = CsiRecorder::new(&sim, device, RecorderConfig::default());
    let mut recording = rec.record(&traj);
    for slot in &mut recording.antennas[1] {
        *slot = None;
    }
    assert!(recording.interpolated().is_none());
}

#[test]
fn capture_file_round_trip_preserves_analysis() {
    // Storage must be lossless end to end: analyzing a reloaded capture
    // gives bit-identical results.
    let geo = ArrayGeometry::linear(3, SPACING);
    let sim = ChannelSimulator::open_lab(7);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        1.0,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
    let device =
        DeviceConfig::single_nic(geo.offsets().to_vec()).with_loss(LossModel::Iid { p: 0.05 });
    let recording = CsiRecorder::new(&sim, device, RecorderConfig::default()).record(&traj);

    let mut buf = Vec::new();
    rim_csi::storage::save_recording(&recording, &mut buf).unwrap();
    let reloaded = rim_csi::storage::load_recording(&buf[..]).unwrap();

    let rim = Rim::new(geo.clone(), RimConfig::for_sample_rate(FS)).unwrap();
    let a = rim.analyze(&recording.interpolated().unwrap()).unwrap();
    let b = rim.analyze(&reloaded.interpolated().unwrap()).unwrap();
    assert_eq!(a.total_distance(), b.total_distance());
    assert_eq!(a.segments.len(), b.segments.len());
}
