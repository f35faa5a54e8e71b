//! The scenario-zoo gate: the [`rim_channel::scenarios`] motion corpus
//! crossed with a device heterogeneity matrix (bandwidth × antenna count
//! × sample rate), with the full RIM batch pipeline *and* the RIM×IMU
//! fusion engine run over every cell.
//!
//! Axes:
//!
//! * **Motion** — the seven zoo workloads (walking, running,
//!   stop-and-go, stairs-like pauses, cart push, random shaking,
//!   rotation-while-translating) plus a straight `line` reference per
//!   device, which is the "open_lab line" every earlier bench ran.
//! * **Device** — three shapes spanning the COTS space: a 2-antenna
//!   HT20 (56-subcarrier) NIC at 100 Hz, the paper's 3-antenna HT40
//!   (114) prototype at 200 Hz, and a 4-antenna VHT80 (242) front end
//!   at 160 Hz.
//!
//! Per cell the matrix measures accuracy (median and final tracking
//! error against ground truth) plus the fused-vs-RIM-only final errors
//! from the streaming fusion run. The regression gates (the test below):
//! the matrix covers ≥ 3 devices, the 56/114/242-subcarrier grids and
//! ≥ 7 motions, no cell panics, every non-shaking scenario the
//! device can physically resolve holds median error within 2× its
//! device's line baseline (with an absolute floor covering the
//! swinging-turn chord offset), and on the running gait the fused
//! error does not regress past RIM-only — the ZUPT-sustain arbitration
//! working end to end. A cell whose peak speed exceeds the device's
//! `spacing × fs / 2` ceiling reports ungated: that cell measures the
//! paper's Fig. 16 sampling-rate requirement, not a regression.

use crate::env;
use crate::fusion::RimDeadReckoner;
use rim_array::ArrayGeometry;
use rim_channel::scenarios as zoo;
use rim_channel::trajectory::{line, OrientationMode, Trajectory};
use rim_channel::{ChannelSimulator, SubcarrierLayout};
use rim_core::{ImuSample, Rim, RimConfig, RimStream};
use rim_csi::{synced_from_recording, CsiRecorder, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_dsp::stats::median;
use rim_par::Pool;
use rim_sensors::{ImuConfig, SimulatedImu};
use rim_tracking::Fuser;

/// Straight-line reference distance, metres — the "open_lab line" walk
/// the per-device baselines are measured on.
const BASELINE_DISTANCE_M: f64 = 6.0;

/// Non-shaking scenarios must hold median tracking error within this
/// factor of their device's line baseline.
const GATE_FACTOR: f64 = 2.0;

/// Absolute gate floor, metres. The line baseline can land in the
/// centimetres, where 2× baseline is below what the estimator can hold
/// on harder gaits; the floor covers the intrinsic chord-vs-arc offset
/// a swinging turn produces (RIM lays an arc out straight — the
/// paper's §7 open problem), which sits around 0.45 m on the zoo's
/// quarter-circle and is rate- and device-independent.
const GATE_FLOOR_M: f64 = 0.5;

/// Minimum antenna-crossing lag (in samples) a device must resolve at a
/// scenario's peak ground-truth speed for the accuracy gate to apply.
/// RIM measures speed as `spacing × fs / lag`; below 2 samples of lag
/// the quantisation error exceeds tens of percent and the cell measures
/// the sampling-rate limit of the paper's Fig. 16, not a regression.
const MIN_LAG_SAMPLES: f64 = 2.0;

/// One device shape of the heterogeneity matrix.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSpec {
    /// Stable name reported per cell.
    pub name: &'static str,
    /// Receive antennas in the linear array.
    pub n_antennas: usize,
    /// Channel bandwidth, MHz (selects the subcarrier grid).
    pub bandwidth_mhz: u32,
    /// CSI/IMU sample rate, Hz (capped at 100 Hz in fast mode).
    pub sample_rate_hz: f64,
}

impl DeviceSpec {
    fn geometry(&self) -> ArrayGeometry {
        ArrayGeometry::linear(self.n_antennas, env::SPACING)
    }

    fn layout(&self) -> SubcarrierLayout {
        match self.bandwidth_mhz {
            20 => SubcarrierLayout::ht20_5ghz(),
            40 => SubcarrierLayout::ht40_5ghz(),
            80 => SubcarrierLayout::vht80_5ghz(),
            other => unreachable!("no layout for {other} MHz"),
        }
    }

    fn n_subcarriers(&self) -> usize {
        self.layout().n_subcarriers()
    }

    fn fs(&self, fast: bool) -> f64 {
        // Fast mode caps the rate instead of scaling it: halving would
        // change which scenarios the device can physically resolve
        // (speed ceiling = spacing × fs), and the gates should test the
        // same physics in CI as in the full run.
        if fast {
            self.sample_rate_hz.min(100.0)
        } else {
            self.sample_rate_hz
        }
    }

    /// Fastest ground-truth speed this device can track with at least
    /// [`MIN_LAG_SAMPLES`] of antenna-crossing lag (the paper's Fig. 16
    /// sampling-rate requirement).
    fn max_trackable_mps(&self, fast: bool) -> f64 {
        env::SPACING * self.fs(fast) / MIN_LAG_SAMPLES
    }
}

/// The three device shapes: 2/3/4 antennas × 20/40/80 MHz
/// (56/114/242 subcarriers) × mixed per-session sample rates.
pub fn devices() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec {
            name: "compact2",
            n_antennas: 2,
            bandwidth_mhz: 20,
            sample_rate_hz: 100.0,
        },
        DeviceSpec {
            name: "cots3",
            n_antennas: 3,
            bandwidth_mhz: 40,
            sample_rate_hz: 200.0,
        },
        DeviceSpec {
            name: "wide4",
            n_antennas: 4,
            bandwidth_mhz: 80,
            sample_rate_hz: 160.0,
        },
    ]
}

/// Measured outcome of one scenario × device cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scenario name (`line` for the baseline reference).
    pub scenario: &'static str,
    /// Device name.
    pub device: &'static str,
    /// Median per-sample tracking error of the batch RIM estimate, m.
    pub median_m: f64,
    /// Final-position tracking error of the batch RIM estimate, m.
    pub final_m: f64,
    /// Final-position error of the fused (RIM×IMU) stream, m.
    pub fused_final_m: f64,
    /// Final-position error of event-level RIM-only dead reckoning, m.
    pub rim_only_final_m: f64,
    /// Peak ground-truth speed over the trajectory, m/s.
    pub peak_speed_mps: f64,
    /// Error gate this cell must hold (None for shaking, the baseline
    /// itself, and cells whose peak speed the device cannot resolve).
    pub gate_m: Option<f64>,
}

impl Cell {
    /// Whether the cell's median error holds its gate (vacuously true
    /// for ungated cells).
    pub fn within_gate(&self) -> bool {
        self.gate_m.is_none_or(|g| self.median_m <= g)
    }
}

/// Builds a cell's ground-truth trajectory. The baseline `line` is
/// built here; zoo names resolve through [`rim_channel::scenarios`].
fn trajectory_for(scenario: &zoo::ScenarioSpec, start: Point2, fs: f64) -> Trajectory {
    if scenario.name == "line" {
        line(
            start,
            0.0,
            BASELINE_DISTANCE_M,
            1.0,
            fs,
            OrientationMode::FollowPath,
        )
    } else {
        zoo::build(scenario.name, start, fs, scenario.default_seed)
            .expect("zoo scenario name is known")
    }
}

/// The per-device baseline pseudo-scenario.
const LINE: zoo::ScenarioSpec = zoo::ScenarioSpec {
    name: "line",
    summary: "6 m straight open_lab walk (the historical bench workload)",
    default_seed: 20,
};

/// Runs one scenario × device cell: batch RIM over the recorded CSI
/// (accuracy), then the streaming fusion engine over the same
/// trajectory's CSI + IMU.
fn run_cell(scenario: &zoo::ScenarioSpec, device: &DeviceSpec, fast: bool, k: usize) -> Cell {
    let fs = device.fs(fast);
    let start = env::lab_start(k);
    let traj = trajectory_for(scenario, start, fs);
    let geo = device.geometry();
    let sim = ChannelSimulator::open_lab(scenario.default_seed).with_layout(device.layout());

    // One lossless recording feeds both pipelines: interpolated for the
    // batch analysis, raw for the streaming fusion run (ray-tracing the
    // wide grids dominates the cell's cost, so record once).
    let recording = CsiRecorder::new(
        &sim,
        env::device_for(&geo),
        RecorderConfig {
            sanitize: true,
            seed: scenario.default_seed,
        },
    )
    .record(&traj);

    // Batch pipeline: analyze, integrate, compare.
    let dense = recording
        .interpolated()
        .expect("lossless recording interpolates");
    let rim =
        Rim::new(geo.clone(), RimConfig::for_sample_rate(fs)).expect("device geometry is valid");
    let est = rim.analyze(&dense).expect("zoo cell analyzes cleanly");
    let track = est.trajectory(start, traj.pose(0).orientation);
    let n = track.len().min(traj.len());
    let errors: Vec<f64> = (0..n)
        .map(|i| track[i].distance(traj.pose(i).pos))
        .collect();
    let median_m = median(&errors);
    let final_m = track[n - 1].distance(traj.pose(n - 1).pos);

    // Streaming fusion over the same run: CSI through a RimStream
    // feeding the error-state filter, IMU sampled off the same ground
    // truth. Consumer-grade tuning as in the fusion gate; the ZUPT
    // window/sustain stay at their (gait-arbitrated) defaults.
    let samples = synced_from_recording(&recording);
    let imu = SimulatedImu::new(ImuConfig::consumer(), scenario.default_seed ^ 0xA5).sample(&traj);
    let fuser = Fuser::builder()
        .initial_position(start)
        .initial_heading(traj.pose(0).orientation)
        .rim_heading_noise(f64::INFINITY)
        .accel_noise(0.3)
        .build()
        .expect("fusion knobs are valid");
    let mut fused =
        fuser.stream(RimStream::new(geo.clone(), RimConfig::for_sample_rate(fs)).unwrap());
    let mut rim_only = RimStream::new(geo, RimConfig::for_sample_rate(fs)).unwrap();
    let mut reckoner = RimDeadReckoner {
        position: start,
        orientation: 0.0,
    };
    for (i, sample) in samples.iter().enumerate() {
        let batch = vec![ImuSample {
            t_us: (i as f64 / fs * 1e6) as u64,
            accel_body: imu.accel_body[i],
            gyro_z: imu.gyro_z[i],
            mag_orientation: Some(imu.mag_orientation[i]),
        }];
        fused.ingest(batch).expect("imu ingest never errors");
        fused
            .ingest(sample.clone())
            .expect("csi ingest never errors");
        reckoner.absorb(&rim_only.ingest(sample.clone()).expect("csi ingest"));
    }
    fused.finish();
    reckoner.absorb(&rim_only.finish());
    let truth_end = traj.pose(traj.len() - 1).pos;
    let peak_speed_mps = (1..traj.len())
        .map(|i| traj.pose(i).pos.distance(traj.pose(i - 1).pos) * fs)
        .fold(0.0, f64::max);

    Cell {
        scenario: scenario.name,
        device: device.name,
        median_m,
        final_m,
        fused_final_m: fused.position().distance(truth_end),
        rim_only_final_m: reckoner.position.distance(truth_end),
        peak_speed_mps,
        gate_m: None,
    }
}

/// Runs the full matrix: per device, the line baseline first, then
/// every zoo motion gated against that baseline. Cells are independent,
/// so they fan out over the pool (the baselines first, since the gates
/// need them); results keep the serial order.
pub fn run_matrix(fast: bool) -> Vec<Cell> {
    let pool = Pool::default();
    let devices = devices();
    let baselines = pool.map(&devices, |device| run_cell(&LINE, device, fast, 0));
    let jobs: Vec<(&DeviceSpec, usize)> = devices
        .iter()
        .flat_map(|device| (0..zoo::ZOO.len()).map(move |k| (device, k)))
        .collect();
    let mut zoo_cells = pool
        .map(&jobs, |&(device, k)| {
            run_cell(&zoo::ZOO[k], device, fast, k + 1)
        })
        .into_iter();
    let mut cells = Vec::new();
    for (device, baseline) in devices.iter().zip(baselines) {
        let gate = (GATE_FACTOR * baseline.median_m).max(GATE_FLOOR_M);
        eprintln!(
            "[scenarios] {}: baseline median {:.3} m (gate {:.3} m)",
            device.name, baseline.median_m, gate
        );
        cells.push(baseline);
        for (scenario, mut cell) in zoo::ZOO.iter().zip(zoo_cells.by_ref()) {
            // Two exemptions, both physics rather than policy. Shaking
            // is in-place jitter: median error against a stationary
            // truth measures the simulator's noise floor, not tracking
            // accuracy. And a cell whose peak speed outruns the
            // device's `spacing × fs` ceiling measures Fig. 16's
            // sampling-rate requirement — the running gait does this by
            // design, on every COTS shape in the matrix.
            let resolvable = cell.peak_speed_mps <= device.max_trackable_mps(fast);
            if scenario.name != "shaking" && resolvable {
                cell.gate_m = Some(gate);
            }
            let note = if !cell.within_gate() {
                "  ** OVER GATE **".to_string()
            } else if scenario.name != "shaking" && !resolvable {
                format!(
                    "  (ungated: peak {:.2} m/s > trackable {:.2} m/s)",
                    cell.peak_speed_mps,
                    device.max_trackable_mps(fast),
                )
            } else {
                String::new()
            };
            eprintln!(
                "[scenarios] {} x {}: median {:.3} m, final {:.3} m, \
                 fused {:.3} m, rim-only {:.3} m{}",
                cell.scenario,
                cell.device,
                cell.median_m,
                cell.final_m,
                cell.fused_final_m,
                cell.rim_only_final_m,
                note,
            );
            cells.push(cell);
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn zoo_matrix_holds_the_accuracy_gates() {
        let cells = run_matrix(true);
        let n_devices = devices().len();
        assert_eq!(
            cells.len(),
            n_devices * (zoo::ZOO.len() + 1),
            "every scenario x device cell ran"
        );
        // Coverage: the matrix spans the device and motion axes it claims.
        let ran: Vec<DeviceSpec> = devices()
            .into_iter()
            .filter(|d| cells.iter().any(|c| c.device == d.name))
            .collect();
        assert!(ran.len() >= 3, "device shapes: {}", ran.len());
        let grids: BTreeSet<usize> = ran.iter().map(DeviceSpec::n_subcarriers).collect();
        assert!(
            [56, 114, 242].iter().all(|n| grids.contains(n)),
            "subcarrier grids: {grids:?}"
        );
        let motions: BTreeSet<&str> = cells
            .iter()
            .map(|c| c.scenario)
            .filter(|&s| s != "line")
            .collect();
        assert!(motions.len() >= 7, "motions covered: {motions:?}");
        for c in &cells {
            assert!(
                c.median_m.is_finite() && c.final_m.is_finite(),
                "{} x {} produced finite errors",
                c.scenario,
                c.device
            );
            assert!(
                c.within_gate(),
                "{} x {}: median {:.3} m over gate {:?}",
                c.scenario,
                c.device,
                c.median_m,
                c.gate_m
            );
        }
        // The ZUPT-sustain arbitration end to end: on the running gait
        // the fused estimate must not regress past RIM-only dead
        // reckoning (a misfiring stance detector clamps velocity
        // mid-stride and drags the fused track behind the runner).
        for c in cells.iter().filter(|c| c.scenario == "running") {
            assert!(
                c.fused_final_m <= c.rim_only_final_m + 0.15,
                "running x {}: fused {:.3} m regressed past rim-only {:.3} m",
                c.device,
                c.fused_final_m,
                c.rim_only_final_m
            );
        }
        // The resolvability exemption must stay an exemption, not a
        // loophole: most of each device's motions are slow enough to
        // be speed-gated.
        for device in devices() {
            let gated = cells
                .iter()
                .filter(|c| c.device == device.name && c.gate_m.is_some())
                .count();
            assert!(
                gated >= 4,
                "{}: only {gated} gated cells — exemption rule too broad",
                device.name
            );
        }
    }
}
