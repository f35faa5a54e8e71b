//! Shared experiment environments and plumbing: simulators, devices, and
//! the record→analyze loop all figures use.

use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_channel::trajectory::Trajectory;
use rim_channel::ChannelSimulator;
use rim_core::RimConfig;
use rim_csi::recorder::DenseCsi;
use rim_csi::{CsiRecorder, DeviceConfig, HardwareProfile, LossModel, RecorderConfig};
use rim_dsp::geom::Point2;

/// The standard CSI sample rate of the paper's prototype.
pub const SAMPLE_RATE: f64 = 200.0;

/// The default NIC antenna spacing (λ/2 at 5.8 GHz, §5).
pub const SPACING: f64 = HALF_WAVELENGTH;

/// The 3-antenna COTS linear array.
pub fn linear_array() -> ArrayGeometry {
    ArrayGeometry::linear(3, SPACING)
}

/// The 6-element hexagonal array of the prototype (Fig. 2).
pub fn hexagonal_array() -> ArrayGeometry {
    ArrayGeometry::hexagonal(SPACING)
}

/// The L-shaped pointer array (§6.3.2).
pub fn l_array() -> ArrayGeometry {
    ArrayGeometry::l_shape(SPACING)
}

/// Device configuration matching a geometry's NIC grouping.
pub fn device_for(geometry: &ArrayGeometry) -> DeviceConfig {
    if geometry.nic_groups().len() == 2 {
        DeviceConfig::dual_nic(geometry.offsets().to_vec())
    } else {
        DeviceConfig::single_nic(geometry.offsets().to_vec())
    }
}

/// RIM configuration used across figures: lag window sized for speeds down
/// to `min_speed`.
pub fn rim_config(sample_rate_hz: f64, min_speed: f64) -> RimConfig {
    RimConfig::for_sample_rate(sample_rate_hz).with_min_speed(min_speed, SPACING, sample_rate_hz)
}

/// Records a trajectory (optionally with loss / a custom profile) and
/// returns the interpolated dense CSI.
pub fn record(
    sim: &ChannelSimulator,
    geometry: &ArrayGeometry,
    traj: &Trajectory,
    seed: u64,
    loss: LossModel,
    profile: Option<HardwareProfile>,
) -> DenseCsi {
    let mut device = device_for(geometry).with_loss(loss);
    if let Some(p) = profile {
        device = device.with_profile(p);
    }
    CsiRecorder::new(
        sim,
        device,
        RecorderConfig {
            sanitize: true,
            seed,
        },
    )
    .record(traj)
    .interpolated()
    .expect("recording interpolable")
}

/// Deterministic open-lab start points.
pub fn lab_start(k: usize) -> Point2 {
    let xs = [-2.0, -1.0, 0.0, 1.0, 2.0, -1.5, 0.5, 1.5];
    let ys = [1.0, 2.0, 3.0, 1.5, 2.5, 3.5, 0.5, 2.8];
    Point2::new(xs[k % xs.len()], ys[(k * 3 + 1) % ys.len()])
}
