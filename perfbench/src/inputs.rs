//! Seeded workload inputs. The `channel` and `sensors` crates are the
//! input generator: they are never timed, and the measured code receives
//! only what they produce.
//!
//! Ray-tracing the channel is by far the costliest step (about a CPU
//! second per second of 200 Hz, 3-antenna CSI), and it does not depend on
//! the seed: each scenario's clean capture is recorded once per checkout
//! into `.perfbench/cache/` (by a child process, so its memory never
//! counts against the measured process) and reloaded afterwards. Everything
//! the seed drives — packet-loss patterns, IMU noise, the open-loop send
//! phases — is derived from that capture in memory, outside every timed
//! region, in well under a second.

use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_channel::scenarios as zoo;
use rim_channel::trajectory::{dwell, stop_and_go, Trajectory};
use rim_channel::{ChannelSimulator, Pose, SubcarrierLayout};
use rim_core::{ImuSample, RimConfig};
use rim_csi::sanitize::sanitize_snapshot;
use rim_csi::{CsiRecorder, CsiRecording, DeviceConfig, LossModel, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_sensors::{ImuConfig, ImuRecording, SimulatedImu};
use rim_tracking::Fuser;
use std::path::{Path, PathBuf};

/// Bumped whenever generation changes, so a stale cache is never read.
const CACHE_VERSION: u32 = 1;

/// A device shape of the scenario zoo.
#[derive(Debug, Clone, Copy)]
pub struct Device {
    /// Stable name.
    pub name: &'static str,
    /// Receive antennas in the linear array.
    pub n_antennas: usize,
    /// Subcarrier grid the NIC reports.
    pub layout: fn() -> SubcarrierLayout,
    /// CSI and IMU sample rate, Hz.
    pub fs: f64,
}

/// The paper's prototype: 3 antennas, HT40 (114 subcarriers), 200 Hz.
pub const COTS3: Device = Device {
    name: "cots3",
    n_antennas: 3,
    layout: SubcarrierLayout::ht40_5ghz,
    fs: 200.0,
};

/// A wide front end: 4 antennas, VHT80 (242 subcarriers), 160 Hz.
pub const WIDE4: Device = Device {
    name: "wide4",
    n_antennas: 4,
    layout: SubcarrierLayout::vht80_5ghz,
    fs: 160.0,
};

impl Device {
    /// The linear array at half-wavelength spacing.
    pub fn geometry(&self) -> ArrayGeometry {
        ArrayGeometry::linear(self.n_antennas, HALF_WAVELENGTH)
    }

    /// The engine configuration every workload uses for this device: lag
    /// window sized for speeds down to 0.3 m/s, and the pool sized to
    /// the machine's cores explicitly (the default resolves the same
    /// count, but by reading cgroup files on every engine build, which
    /// would make `setup_s` time the file system).
    pub fn rim_config(&self) -> RimConfig {
        RimConfig::for_sample_rate(self.fs)
            .with_min_speed(0.3, HALF_WAVELENGTH, self.fs)
            .with_threads(pool_threads())
    }

    /// Subcarrier indices of the device's grid.
    pub fn indices(&self) -> Vec<i32> {
        (self.layout)().indices
    }
}

/// Where every trajectory starts.
pub const START: Pose = Pose {
    pos: Point2 { x: 0.0, y: 2.0 },
    orientation: 0.0,
};

/// The fusion engine every fused stream uses: consumer-grade IMU noise,
/// RIM distance corrections only (a linear array's heading is not used),
/// started at the trajectory's first pose.
pub fn fuser(start: Pose) -> Result<Fuser, String> {
    Fuser::builder()
        .initial_position(start.pos)
        .initial_heading(start.orientation)
        .rim_heading_noise(f64::INFINITY)
        .accel_noise(0.3)
        .build()
        .map_err(|e| e.to_string())
}

/// Worker threads of every engine pool: the machine's available
/// parallelism, resolved once.
pub fn pool_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| rim_par::Pool::resolve_threads(0))
}

/// One recorded scenario: its ground truth and its clean capture.
pub struct Scenario {
    /// Ground-truth trajectory.
    pub traj: Trajectory,
    /// Clean (lossless) capture of the trajectory.
    pub recording: CsiRecording,
    /// For a raw capture, every snapshot passed through the sanitizer
    /// once by the generator: the reference the live path is checked
    /// against.
    pub sanitized: Option<CsiRecording>,
}

impl Scenario {
    /// Input duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.recording.n_samples() as f64 / self.recording.sample_rate_hz
    }

    /// Consumer-grade IMU samples along the trajectory, noise seeded.
    pub fn imu(&self, seed: u64) -> ImuRecording {
        SimulatedImu::new(ImuConfig::consumer(), seed).sample(&self.traj)
    }
}

/// One scenario to record: name, device, whether the recorder sanitizes,
/// and the stationary tail appended so the last segment closes mid-stream.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Zoo scenario name, or [`SHORT_STOPS`].
    pub name: &'static str,
    /// Device shape.
    pub device: Device,
    /// Phase-sanitize at record time (off for raw, live CSI).
    pub sanitize: bool,
    /// Stationary tail, seconds.
    pub tail_s: f64,
}

impl Spec {
    fn cache_file(&self, dir: &Path) -> PathBuf {
        let kind = if self.sanitize { "san" } else { "raw" };
        dir.join(format!(
            "v{CACHE_VERSION}-{}-{}-{kind}-{}.rimc",
            self.device.name, self.name, self.tail_s
        ))
    }

    /// The sanitized reference copy of a raw capture.
    fn reference_file(&self, dir: &Path) -> Option<PathBuf> {
        (!self.sanitize).then(|| self.cache_file(dir).with_extension("ref.rimc"))
    }

    fn cached(&self, dir: &Path) -> bool {
        self.cache_file(dir).exists() && self.reference_file(dir).is_none_or(|p| p.exists())
    }

    /// Channel and recorder seed.
    fn seed(&self) -> u64 {
        zoo::spec(self.name).map_or(SHORT_STOPS_SEED, |s| s.default_seed)
    }

    /// The ground-truth trajectory (cheap and deterministic).
    pub fn trajectory(&self) -> Trajectory {
        let fs = self.device.fs;
        let mut traj = if self.name == SHORT_STOPS {
            // Short moves with pauses just long enough for the stream to
            // close the segment and the IMU to declare stance: a live run
            // covering only the first seconds of input still flushes, and
            // served tenants flush often and cheaply instead of rarely and
            // expensively, so a run's tail averages over many flushes.
            stop_and_go(START.pos, 0.0, 0.3, 0.45, 8, 1.0, fs)
        } else {
            zoo::build(self.name, START.pos, fs, self.seed()).expect("zoo scenario builds")
        };
        if self.tail_s > 0.0 {
            let end = traj.pose(traj.len() - 1);
            traj.extend(&dwell(
                end.pos,
                end.orientation,
                self.tail_s,
                self.device.fs,
            ));
        }
        traj
    }

    /// Ray-traces the clean capture (the expensive step).
    fn record(&self) -> CsiRecording {
        let geo = self.device.geometry();
        let sim = ChannelSimulator::open_lab(self.seed()).with_layout((self.device.layout)());
        CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geo.offsets().to_vec()),
            RecorderConfig {
                sanitize: self.sanitize,
                seed: self.seed(),
            },
        )
        .record(&self.trajectory())
    }
}

/// The live and served workloads' trajectory: eight 0.3 m moves with
/// 0.45 s pauses.
pub const SHORT_STOPS: &str = "short_stops";

/// Channel seed of [`SHORT_STOPS`].
const SHORT_STOPS_SEED: u64 = 23;

/// The scenarios each workload records.
pub fn specs(workload: &str) -> Vec<Spec> {
    let cots3 = |name| Spec {
        name,
        device: COTS3,
        sanitize: true,
        tail_s: 0.0,
    };
    match workload {
        "capture_batch" => vec![
            cots3("walking"),
            cots3("cart_push"),
            cots3("rotation_while_translating"),
            cots3("stop_and_go"),
        ],
        "stream_live" => vec![Spec {
            name: SHORT_STOPS,
            device: WIDE4,
            sanitize: false,
            tail_s: 0.5,
        }],
        "serve_fleet" => vec![Spec {
            name: SHORT_STOPS,
            device: COTS3,
            sanitize: true,
            tail_s: 0.5,
        }],
        _ => Vec::new(),
    }
}

/// Directory of the benchmark's run artefacts, relative to the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Records every missing capture of `workload` into the cache, two
/// scenarios at a time. Runs in the generator child process.
pub fn generate(workload: &str) -> Result<(), String> {
    let dir = out_dir().join("cache");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let missing: Vec<Spec> = specs(workload)
        .into_iter()
        .filter(|s| !s.cached(&dir))
        .collect();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = missing
            .chunks(missing.len().div_ceil(2).max(1))
            .map(|chunk| {
                let dir = &dir;
                scope.spawn(move || -> Result<(), String> {
                    for spec in chunk {
                        write_capture(spec, dir)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect()
}

fn write_capture(spec: &Spec, dir: &Path) -> Result<(), String> {
    let path = spec.cache_file(dir);
    let recording = spec.record();
    if let Some(reference) = spec.reference_file(dir) {
        let indices = spec.device.indices();
        let mut clean = recording.clone();
        for series in &mut clean.antennas {
            for slot in series.iter_mut() {
                if let Some(snap) = slot {
                    if sanitize_snapshot(&mut snap.per_tx, &indices).is_err() {
                        *slot = None;
                    }
                }
            }
        }
        write_atomic(&clean, &reference)?;
    }
    write_atomic(&recording, &path)
}

fn write_atomic(recording: &CsiRecording, path: &Path) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    let mut bytes = Vec::new();
    rim_csi::save_recording(recording, &mut bytes).map_err(|e| e.to_string())?;
    std::fs::write(&tmp, &bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

fn read_capture(path: &Path) -> Result<CsiRecording, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    rim_csi::load_recording(&bytes[..]).map_err(|e| format!("decode {}: {e}", path.display()))
}

/// Loads a workload's scenarios from the cache, running the generator
/// child process first when any capture is missing.
pub fn load(workload: &str) -> Result<Vec<Scenario>, String> {
    let dir = out_dir().join("cache");
    let specs = specs(workload);
    if specs.iter().any(|s| !s.cached(&dir)) {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .args(["--generate", workload])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn input generator: {e}"))?;
        if !status.success() {
            return Err(format!("input generator failed: {status}"));
        }
    }
    specs
        .iter()
        .map(|spec| {
            Ok(Scenario {
                traj: spec.trajectory(),
                recording: read_capture(&spec.cache_file(&dir))?,
                sanitized: spec
                    .reference_file(&dir)
                    .map(|p| read_capture(&p))
                    .transpose()?,
            })
        })
        .collect()
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Light i.i.d. transport loss on stored captures (0.5 %).
pub const CAPTURE_LOSS: LossModel = LossModel::Iid { p: 0.005 };

/// Gilbert–Elliott burst loss on the live link (about 4 % mean loss in
/// bursts of a few packets).
pub const LIVE_LOSS: LossModel = LossModel::GilbertElliott {
    p_enter_bad: 0.01,
    p_exit_bad: 0.3,
    loss_good: 0.005,
    loss_bad: 0.9,
};

/// Distance from a fused estimate at IMU time `t_us` to the ground truth
/// at that time.
pub fn fused_error(traj: &Trajectory, fs: f64, t_us: u64, position: Point2) -> f64 {
    let i = ((t_us as f64 * fs / 1e6).round() as usize).min(traj.len() - 1);
    position.distance(traj.pose(i).pos)
}

/// IMU samples `[from, to)` of a recording as one batch.
pub fn imu_batch(imu: &ImuRecording, from: usize, to: usize) -> Vec<ImuSample> {
    (from..to)
        .map(|i| ImuSample {
            t_us: (i as f64 / imu.sample_rate_hz * 1e6) as u64,
            accel_body: imu.accel_body[i],
            gyro_z: imu.gyro_z[i],
            mag_orientation: Some(imu.mag_orientation[i]),
        })
        .collect()
}
