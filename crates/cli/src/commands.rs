//! The `rim` subcommands.

use crate::args::Args;
use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_channel::trajectory::{line, polyline, rotate_in_place, OrientationMode, Trajectory};
use rim_channel::{ChannelSimulator, SubcarrierLayout};
use rim_core::{ImuSample, Precision, Rim, RimConfig, RimStream};
use rim_csi::{CsiRecorder, DeviceConfig, LossModel, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_sensors::{ImuConfig, ImuRecording, SimulatedImu};
use rim_tracking::Fuser;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// Usage text.
pub const USAGE: &str = "\
rim — RF-based inertial measurement (RIM, SIGCOMM 2019) in Rust

USAGE:
  rim simulate <out.rimc> [--scenario NAME] [--env lab|office]
               [--array linear2|linear3|linear4|hexagonal|l] [--bandwidth 20|40|80]
               [--distance M] [--speed M/S]
               [--rate HZ] [--loss SPEC] [--seed N] [--obs json|report]
               [--imu consumer|uncalibrated|ideal]
  rim analyze  <in.rimc> [<in2.rimc>…] [--array linear2|linear3|linear4|hexagonal|l]
               [--min-speed M/S] [--start X,Y] [--threads N] [--verbose]
               [--precision f64|f32] [--loss SPEC] [--loss-seed N]
               [--obs json|report] [--imu consumer|uncalibrated|ideal]
  rim serve    <in.rimc> [--sessions K] [--array linear2|linear3|linear4|hexagonal|l]
               [--min-speed M/S] [--threads N] [--precision f64|f32]
               [--queue N] [--latency-budget-us US] [--io-threads N]
               [--loss SPEC] [--loss-seed N] [--obs json|report]
               [--trace-every N] [--metrics-every MS]
               [--imu consumer|uncalibrated|ideal]
  rim serve    --listen ADDR [--rate HZ] [--array linear2|linear3|linear4|hexagonal|l]
               [--min-speed M/S] [--threads N] [--precision f64|f32]
               [--queue N] [--latency-budget-us US] [--io-threads N]
               [--trace-every N]
  rim top      ADDR [--interval-ms MS] [--iterations N]
  rim floorplan
  rim demo     [--seed N] [--obs json|report]
  rim help

  --scenario NAME is one of the classic shapes (line | square | rotation,
  parameterised by --distance/--speed) or a scenario-zoo workload with
  canonical parameters: walking | running | stop_and_go | stairs_pause |
  cart_push | shaking | rotation_while_translating (--seed feeds the zoo's
  RNG). --bandwidth selects the subcarrier grid the simulated NIC reports
  (20 MHz = 56, 40 MHz = 114 [default], 80 MHz = 242 subcarriers).

  --loss SPEC is `none`, a bare probability, `iid:P`, or
  `ge:ENTER,EXIT,GOOD,BAD` (Gilbert–Elliott burst loss). On simulate it
  drops packets per NIC while recording; on analyze it degrades the loaded
  capture post hoc (whole-device drops, seeded by --loss-seed) so gap
  tolerance can be tested against a stored clean capture.

  --obs report prints a per-stage observability table (timings, counters,
  diagnostics); --obs json emits the same run report as machine-readable
  JSON on stdout (and nothing else, so it pipes cleanly).

  analyze accepts several captures at once and fans them across the worker
  pool; --threads N sizes the pool (default: RIM_THREADS, then all cores).
  --precision selects the TRRS kernel arithmetic: f64 (default, the
  bit-exact reference) or f32 (the reduced-precision fast path, within
  1 mm / 0.1° of the reference per segment).

  serve starts the multi-session TCP service. With a capture it
  self-drives: --sessions K loopback clients each stream the capture
  (independently degraded when --loss is set) into their own session and
  the per-session estimates are printed; with --listen ADDR it serves
  external clients until one sends a shutdown request. --queue N bounds
  each session's ingress queue (full queues throttle the client).
  --latency-budget-us US throttles admission when the deadline scheduler
  predicts ingest→estimate latency would exceed the budget (0 = depth
  only); --io-threads N sizes the readiness-driven reactor worker set.

  --trace-every N traces every Nth admitted sample end to end (admission,
  queue wait, batch schedule, analysis, flush, wire-out; 0 = off). In
  self-drive mode --metrics-every MS polls the server's live telemetry
  snapshot mid-run and prints one `metrics:` digest line per poll.

  top polls a running server's telemetry (the same snapshot `--metrics-every`
  digests) and prints the full text exposition each interval; --iterations N
  stops after N polls (0 = until interrupted).

  --imu GRADE threads inertial data through the run. On simulate it samples
  the same ground-truth trajectory with a simulated IMU of that grade
  (consumer: phone-class noise; uncalibrated: strong gyro bias, distorted
  magnetometer; ideal: noiseless) and writes a `<out.rimc>.imu` sidecar.
  On analyze and self-drive serve it loads the capture's `.imu` sidecar and
  runs the RIM×IMU fusion engine (error-state Kalman filter with
  zero-velocity updates), emitting fused pose estimates alongside the
  CSI-only output; the grade selects filter noise densities matched to the
  sensor.
";

/// Appends the `.imu` sidecar suffix to a capture path. Written by
/// `simulate --imu`, read back by `analyze`/`serve --imu`.
fn imu_sidecar_path(capture: &str) -> String {
    format!("{capture}.imu")
}

/// Rejects `--options` the subcommand does not know. The parser accepts
/// any `--key value`, so without this check a typo like `--sceanrio` was
/// silently swallowed and the default used instead.
fn check_options(args: &Args, allowed: &[&str]) -> Result<(), String> {
    for key in args.options.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown option --{key} (valid options: {})",
                if allowed.is_empty() {
                    String::from("none")
                } else {
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                }
            ));
        }
    }
    Ok(())
}

/// Observability output mode selected with `--obs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObsMode {
    /// Machine-readable `RunReport` JSON, alone on stdout.
    Json,
    /// Human text table appended to the normal output.
    Report,
}

fn obs_mode(args: &Args) -> Result<Option<ObsMode>, String> {
    match args.options.get("obs").map(String::as_str) {
        None => Ok(None),
        Some("json") => Ok(Some(ObsMode::Json)),
        Some("report") => Ok(Some(ObsMode::Report)),
        Some(other) => Err(format!("--obs expects json or report, got {other:?}")),
    }
}

/// Resolves an array geometry by name.
fn array_by_name(name: &str) -> Result<ArrayGeometry, String> {
    match name {
        "linear2" => Ok(ArrayGeometry::linear(2, HALF_WAVELENGTH)),
        "linear3" => Ok(ArrayGeometry::linear(3, HALF_WAVELENGTH)),
        "linear4" => Ok(ArrayGeometry::linear(4, HALF_WAVELENGTH)),
        "hexagonal" => Ok(ArrayGeometry::hexagonal(HALF_WAVELENGTH)),
        "l" => Ok(ArrayGeometry::l_shape(HALF_WAVELENGTH)),
        other => Err(format!(
            "unknown array {other:?} (expected linear2 | linear3 | linear4 | hexagonal | l)"
        )),
    }
}

/// Resolves a channel bandwidth (MHz) to its subcarrier grid.
fn layout_by_bandwidth(mhz: u64) -> Result<SubcarrierLayout, String> {
    match mhz {
        20 => Ok(SubcarrierLayout::ht20_5ghz()),
        40 => Ok(SubcarrierLayout::ht40_5ghz()),
        80 => Ok(SubcarrierLayout::vht80_5ghz()),
        other => Err(format!(
            "unknown bandwidth {other} MHz (expected 20 | 40 | 80)"
        )),
    }
}

/// Resolves a TRRS precision mode by name.
fn precision_by_name(name: &str) -> Result<Precision, String> {
    match name {
        "f64" => Ok(Precision::F64Reference),
        "f32" => Ok(Precision::F32Fast),
        other => Err(format!("unknown precision {other:?} (expected f64 | f32)")),
    }
}

/// Resolves a simulated-IMU grade by name.
fn imu_by_name(name: &str) -> Result<ImuConfig, String> {
    match name {
        "consumer" => Ok(ImuConfig::consumer()),
        "uncalibrated" => Ok(ImuConfig::uncalibrated()),
        "ideal" => Ok(ImuConfig::ideal()),
        other => Err(format!(
            "unknown imu grade {other:?} (expected consumer | uncalibrated | ideal)"
        )),
    }
}

/// Builds a fusion engine with filter noise densities matched to the
/// named sensor grade: the filter should trust an ideal IMU far more
/// (and an uncalibrated one less) than the consumer defaults.
fn fuser_for(name: &str) -> Result<Fuser, String> {
    // Consumer parts carry a ~0.25 m/s² accelerometer turn-on bias the 2D
    // error state does not model, so the velocity process noise is raised
    // to absorb it (uncalibrated parts even more so).
    let builder = match name {
        "consumer" => Fuser::builder().accel_noise(0.3),
        "uncalibrated" => Fuser::builder().accel_noise(0.5).gyro_bias_walk(3e-4),
        "ideal" => Fuser::builder()
            .accel_noise(1e-4)
            .gyro_noise(1e-5)
            .gyro_bias_walk(1e-9),
        other => {
            return Err(format!(
                "unknown imu grade {other:?} (expected consumer | uncalibrated | ideal)"
            ))
        }
    };
    builder
        .build()
        .map_err(|e| format!("invalid fusion configuration: {e}"))
}

/// Loads a `.imu` sidecar and timestamps it into wire-ready samples.
fn load_imu_sidecar(capture: &str) -> Result<Vec<ImuSample>, String> {
    let sidecar = imu_sidecar_path(capture);
    let bytes = std::fs::read(&sidecar).map_err(|e| {
        format!("cannot open {sidecar}: {e} (generate one with `rim simulate --imu GRADE`)")
    })?;
    let rec = ImuRecording::from_bytes(&bytes).map_err(|e| format!("{sidecar}: {e}"))?;
    let fs = rec.sample_rate_hz;
    Ok((0..rec.len())
        .map(|i| ImuSample {
            t_us: (i as f64 / fs * 1e6) as u64,
            accel_body: rec.accel_body[i],
            gyro_z: rec.gyro_z[i],
            mag_orientation: Some(rec.mag_orientation[i]),
        })
        .collect())
}

/// Counts the fused pose estimates in a drained event batch.
fn count_fused(events: &[rim_core::StreamEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, rim_core::StreamEvent::Fused { .. }))
        .count()
}

/// Splits the IMU samples due at or before `t_us` off the front of the
/// remaining slice: the batch to send before the CSI sample at `t_us`.
fn imu_due<'a>(remaining: &mut &'a [ImuSample], t_us: u64) -> &'a [ImuSample] {
    let n = remaining.iter().take_while(|s| s.t_us <= t_us).count();
    let (due, rest) = remaining.split_at(n);
    *remaining = rest;
    due
}

/// Resolves a simulation environment by name.
fn env_by_name(name: &str, seed: u64) -> Result<ChannelSimulator, String> {
    match name {
        "lab" => Ok(ChannelSimulator::open_lab(seed)),
        "office" => Ok(ChannelSimulator::office(0, seed)),
        other => Err(format!("unknown env {other:?} (expected lab | office)")),
    }
}

/// Builds the scenario trajectory: the three classic shapes
/// (parameterised by `--distance`/`--speed`) or any named scenario-zoo
/// workload (canonically parameterised; `--seed` feeds its RNG).
fn scenario(
    name: &str,
    env: &str,
    distance: f64,
    speed: f64,
    rate: f64,
    seed: u64,
) -> Result<Trajectory, String> {
    let start = if env == "office" {
        Point2::new(8.0, 13.0)
    } else {
        Point2::new(0.0, 2.0)
    };
    if let Some(traj) = rim_channel::scenarios::build(name, start, rate, seed) {
        return Ok(traj);
    }
    match name {
        "line" => Ok(line(
            start,
            0.0,
            distance,
            speed,
            rate,
            OrientationMode::Fixed(0.0),
        )),
        "square" => {
            let side = (distance / 4.0).max(0.3);
            let wps = [
                start,
                Point2::new(start.x + side, start.y),
                Point2::new(start.x + side, start.y + side),
                Point2::new(start.x, start.y + side),
                start,
            ];
            Ok(polyline(&wps, speed, rate, OrientationMode::Fixed(0.0)))
        }
        "rotation" => Ok(rotate_in_place(
            start,
            0.0,
            std::f64::consts::PI,
            std::f64::consts::PI,
            rate,
        )),
        other => Err(format!(
            "unknown scenario {other:?} (expected line | square | rotation | {})",
            rim_channel::scenarios::name_list()
        )),
    }
}

/// `rim simulate`.
pub fn simulate(args: &Args) -> Result<(), String> {
    check_options(
        args,
        &[
            "scenario",
            "env",
            "array",
            "bandwidth",
            "distance",
            "speed",
            "rate",
            "loss",
            "seed",
            "obs",
            "imu",
        ],
    )?;
    let obs = obs_mode(args)?;
    let out_path = args
        .positional
        .first()
        .ok_or("simulate needs an output path (e.g. out.rimc)")?;
    let seed = args.get_u64("seed", 7)?;
    let rate = args.get_f64("rate", 200.0)?;
    let speed = args.get_f64("speed", 1.0)?;
    let distance = args.get_f64("distance", 2.0)?;
    let loss =
        LossModel::parse(&args.get_str("loss", "none")).map_err(|e| format!("--loss: {e}"))?;
    let env_name = args.get_str("env", "lab");
    let array_name = args.get_str("array", "linear3");
    let scenario_name = args.get_str("scenario", "line");

    let mut sim = env_by_name(&env_name, seed)?;
    if let Some(mhz) = args.options.get("bandwidth") {
        let mhz: u64 = mhz
            .parse()
            .map_err(|_| format!("--bandwidth expects a number in MHz, got {mhz:?}"))?;
        sim = sim.with_layout(layout_by_bandwidth(mhz)?);
    }
    let geometry = array_by_name(&array_name)?;
    let traj = scenario(&scenario_name, &env_name, distance, speed, rate, seed)?;

    let mut device = if geometry.nic_groups().len() == 2 {
        DeviceConfig::dual_nic(geometry.offsets().to_vec())
    } else {
        DeviceConfig::single_nic(geometry.offsets().to_vec())
    };
    if loss != LossModel::None {
        device = device.with_loss(loss);
    }
    let recorder = rim_obs::Recorder::new();
    let csi_recorder = CsiRecorder::new(
        &sim,
        device,
        RecorderConfig {
            sanitize: true,
            seed,
        },
    );
    let recording = if obs.is_some() {
        csi_recorder.record_probed(&traj, &recorder)
    } else {
        csi_recorder.record(&traj)
    };

    let file = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    rim_csi::storage::save_recording(&recording, BufWriter::new(file))
        .map_err(|e| format!("write failed: {e}"))?;
    // The IMU sidecar samples the same ground-truth trajectory, so the
    // capture and the inertial streams describe one physical run.
    if let Some(grade) = args.options.get("imu") {
        let imu = SimulatedImu::new(imu_by_name(grade)?, seed).sample(&traj);
        let sidecar = imu_sidecar_path(out_path);
        std::fs::write(&sidecar, imu.to_bytes())
            .map_err(|e| format!("cannot write {sidecar}: {e}"))?;
        if obs != Some(ObsMode::Json) {
            println!(
                "wrote {sidecar}: {} IMU samples at {} Hz ({grade} grade)",
                imu.len(),
                imu.sample_rate_hz
            );
        }
    }
    if obs == Some(ObsMode::Json) {
        println!("{}", recorder.report().to_json());
        return Ok(());
    }
    println!(
        "wrote {out_path}: {} samples × {} antennas at {rate} Hz \
         ({scenario_name} in {env_name}, {:.2} m ground truth, loss {:.0}%)",
        recording.n_samples(),
        recording.n_antennas(),
        traj.total_distance(),
        recording.loss_rate() * 100.0,
    );
    if obs == Some(ObsMode::Report) {
        print!("{}", recorder.report().render());
    }
    Ok(())
}

/// `rim analyze`.
pub fn analyze(args: &Args) -> Result<(), String> {
    check_options(
        args,
        &[
            "array",
            "min-speed",
            "start",
            "verbose",
            "obs",
            "threads",
            "precision",
            "loss",
            "loss-seed",
            "imu",
        ],
    )?;
    let obs = obs_mode(args)?;
    if args.positional.is_empty() {
        return Err("analyze needs an input path (a .rimc capture)".into());
    }
    let array_name = args.get_str("array", "linear3");
    let min_speed = args.get_f64("min-speed", 0.3)?;
    let threads = args.get_u64("threads", 0)? as usize;
    let precision = precision_by_name(&args.get_str("precision", "f64"))?;
    let loss =
        LossModel::parse(&args.get_str("loss", "none")).map_err(|e| format!("--loss: {e}"))?;
    let loss_seed = args.get_u64("loss-seed", 1)?;
    let geometry = array_by_name(&array_name)?;

    let mut loaded = Vec::new();
    for (k, in_path) in args.positional.iter().enumerate() {
        let file = File::open(in_path).map_err(|e| format!("cannot open {in_path}: {e}"))?;
        let mut recording = rim_csi::storage::load_recording(BufReader::new(file))
            .map_err(|e| format!("load failed: {e}"))?;
        if loss != LossModel::None {
            // Post-hoc transport loss: each capture gets its own derived
            // seed so multi-capture runs do not share one realisation.
            recording = recording.degrade(loss, loss_seed.wrapping_add(k as u64));
        }
        if recording.n_antennas() != geometry.n_antennas() {
            return Err(format!(
                "capture {in_path} has {} antennas but array {array_name:?} has {} — \
                 pass --array",
                recording.n_antennas(),
                geometry.n_antennas()
            ));
        }
        let dense = recording.interpolated().ok_or_else(|| {
            format!("capture {in_path} is not interpolable (an antenna lost every packet)")
        })?;
        loaded.push((in_path.as_str(), recording, dense));
    }
    let imu_grade = args.options.get("imu").cloned();
    if imu_grade.is_some() && loaded.len() > 1 {
        return Err("--imu fuses one capture with its sidecar; pass a single capture".into());
    }
    let fs = loaded[0].2.sample_rate_hz;
    let config = RimConfig::for_sample_rate(fs)
        .with_min_speed(min_speed, HALF_WAVELENGTH, fs)
        .with_threads(threads)
        .precision(precision);
    // The fused pass streams through its own engine instance, so it needs
    // the geometry/config pair before `Rim::new` takes ownership.
    let fusion_setup = imu_grade
        .as_deref()
        .map(|grade| -> Result<_, String> {
            Ok((
                fuser_for(grade)?,
                load_imu_sidecar(args.positional[0].as_str())?,
                geometry.clone(),
                config.clone(),
            ))
        })
        .transpose()?;
    // Config/geometry errors surface as one-line messages, not backtraces.
    let rim = Rim::new(geometry, config).map_err(|e| e.to_string())?;

    // Several captures: fan the independent sessions across the worker
    // pool and print one summary line per capture.
    if loaded.len() > 1 {
        let recorder = rim_obs::Recorder::new();
        let denses: Vec<&rim_csi::recorder::DenseCsi> = loaded.iter().map(|l| &l.2).collect();
        let estimates = if obs.is_some() {
            rim.session().probe(&recorder).analyze_batch(&denses)
        } else {
            rim.session().analyze_batch(&denses)
        }
        .map_err(|e| e.to_string())?;
        if obs == Some(ObsMode::Json) {
            println!("{}", recorder.report().to_json());
            return Ok(());
        }
        for ((path, recording, dense), est) in loaded.iter().zip(&estimates) {
            println!(
                "{path}: {} samples at {} Hz, loss {:.1}%, total distance {:.3} m",
                dense.n_samples(),
                dense.sample_rate_hz,
                recording.loss_rate() * 100.0,
                est.total_distance()
            );
        }
        if obs == Some(ObsMode::Report) {
            print!("{}", recorder.report().render());
        }
        return Ok(());
    }

    let (in_path, recording, dense) = &loaded[0];
    let recorder = rim_obs::Recorder::new();
    let estimate = if obs.is_some() {
        rim.session().probe(&recorder).analyze(dense)
    } else {
        rim.analyze(dense)
    }
    .map_err(|e| e.to_string())?;

    if obs == Some(ObsMode::Json) {
        println!("{}", recorder.report().to_json());
        return Ok(());
    }
    println!(
        "{in_path}: {} samples at {fs} Hz, loss {:.1}%",
        dense.n_samples(),
        recording.loss_rate() * 100.0
    );
    println!("total distance : {:.3} m", estimate.total_distance());
    if estimate.total_rotation().abs() > 1e-9 {
        println!(
            "net rotation   : {:.1}°",
            estimate.total_rotation().to_degrees()
        );
    }
    for seg in &estimate.segments {
        println!(
            "segment [{:.2}s..{:.2}s] {:?}: {:.3} m{}{}, confidence {:.2}{}",
            seg.start as f64 / fs,
            seg.end as f64 / fs,
            seg.kind,
            seg.distance_m,
            seg.heading_device
                .map(|h| format!(", heading {:.0}°", h.to_degrees()))
                .unwrap_or_default(),
            if seg.rotation_rad.abs() > 1e-9 {
                format!(", rotation {:.1}°", seg.rotation_rad.to_degrees())
            } else {
                String::new()
            },
            seg.confidence.score(),
            if seg.confidence.interpolated_fraction > 0.0 {
                format!(
                    " ({:.0}% interpolated)",
                    seg.confidence.interpolated_fraction * 100.0
                )
            } else {
                String::new()
            },
        );
    }
    if let Some((fuser, imu, geometry, config)) = fusion_setup {
        let grade = imu_grade.as_deref().unwrap_or("consumer");
        let mut stream = fuser.stream(RimStream::new(geometry, config).map_err(|e| e.to_string())?);
        let mut remaining = imu.as_slice();
        let mut fused_events = 0usize;
        for i in 0..dense.n_samples() {
            let t_us = (i as f64 / fs * 1e6) as u64;
            let due = imu_due(&mut remaining, t_us);
            if !due.is_empty() {
                fused_events += count_fused(&stream.ingest(due).map_err(|e| e.to_string())?);
            }
            let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
            stream.ingest(snaps).map_err(|e| e.to_string())?;
        }
        if !remaining.is_empty() {
            fused_events += count_fused(&stream.ingest(remaining).map_err(|e| e.to_string())?);
        }
        stream.finish();
        println!(
            "fusion ({grade}): position ({:.3}, {:.3}), heading {:.1}°, \
             total distance {:.3} m, {fused_events} fused estimates, \
             {} RIM updates, {} ZUPT events, {:.2} s coasted",
            stream.position().x,
            stream.position().y,
            stream.heading().to_degrees(),
            stream.total_distance(),
            stream.rim_updates(),
            stream.zupt_count(),
            stream.coast_time_us() as f64 / 1e6,
        );
    }
    if args.flag("verbose") {
        let start_opt = args.get_str("start", "0,0");
        let mut it = start_opt.split(',');
        let (sx, sy) = (
            it.next().and_then(|v| v.parse().ok()).unwrap_or(0.0),
            it.next().and_then(|v| v.parse().ok()).unwrap_or(0.0),
        );
        let track = estimate.trajectory(Point2::new(sx, sy), 0.0);
        println!("trajectory (every 0.5 s):");
        let step = (fs / 2.0) as usize;
        for (i, p) in track.iter().enumerate().step_by(step.max(1)) {
            println!("  t={:6.2}s  ({:7.3}, {:7.3})", i as f64 / fs, p.x, p.y);
        }
    }
    if obs == Some(ObsMode::Report) {
        print!(
            "{}",
            render_obs_report(&recorder, rim.config(), dense, &estimate)
        );
    }
    Ok(())
}

/// Full observability report: the per-stage table plus the paper-figure
/// diagnostics (movement-indicator sparkline, alignment-matrix heatmap of
/// the first moving segment) promoted from `rim_core::diagnostics`.
fn render_obs_report(
    recorder: &rim_obs::Recorder,
    config: &RimConfig,
    dense: &rim_csi::recorder::DenseCsi,
    estimate: &rim_core::MotionEstimate,
) -> String {
    let mut out = recorder.report().render();
    out.push_str("\nmovement indicator (self-TRRS, lower = moving):\n");
    out.push_str(&rim_core::diagnostics::render_trace(
        &estimate.movement_indicator,
        72,
        6,
    ));
    if let Some(seg) = estimate.segments.first() {
        // Heatmap of the first segment's alignment matrix (first antenna
        // pair), bounded so long captures stay readable and cheap.
        let end = seg.end.min(seg.start + 600).min(dense.n_samples());
        if end > seg.start + 4 && dense.n_antennas() >= 2 {
            let a = rim_core::NormSnapshot::series(&dense.antennas[0][seg.start..end]);
            let b = rim_core::NormSnapshot::series(&dense.antennas[1][seg.start..end]);
            let m = rim_core::alignment_matrix(&a, &b, config.alignment);
            out.push_str(&format!(
                "\nalignment matrix, segment [{}..{}) antennas (0,1):\n",
                seg.start, end
            ));
            out.push_str(&rim_core::diagnostics::render_matrix(&m, 72, 16));
        }
    }
    out
}

/// `rim serve` — the multi-session CSI service over the TCP wire
/// protocol. Without `--listen` it self-drives: K loopback clients
/// stream a capture into their own sessions concurrently, exercising
/// admission, cross-session batching, and the wire round trip in one
/// process.
pub fn serve(args: &Args) -> Result<(), String> {
    check_options(
        args,
        &[
            "listen",
            "rate",
            "sessions",
            "array",
            "min-speed",
            "threads",
            "precision",
            "queue",
            "latency-budget-us",
            "io-threads",
            "loss",
            "loss-seed",
            "obs",
            "trace-every",
            "metrics-every",
            "imu",
        ],
    )?;
    let obs = obs_mode(args)?;
    let array_name = args.get_str("array", "linear3");
    let geometry = array_by_name(&array_name)?;
    let min_speed = args.get_f64("min-speed", 0.3)?;
    let threads = args.get_u64("threads", 0)? as usize;
    let precision = precision_by_name(&args.get_str("precision", "f64"))?;
    let trace_every = args.get_u64("trace-every", 0)? as usize;
    let metrics_every = args.get_u64("metrics-every", 0)?;
    let defaults = rim_serve::ServeConfig::default();
    // One validated constructor path for every mode (listen, self-drive):
    // invalid combinations die here with the builder's diagnostic instead
    // of surfacing as runtime misbehaviour.
    let serve_cfg = rim_serve::ServeConfig::builder()
        .queue_depth(args.get_u64("queue", 256)? as usize)
        .latency_budget_us(args.get_u64("latency-budget-us", defaults.latency_budget_us())?)
        .io_threads(args.get_u64("io-threads", defaults.io_threads() as u64)? as usize)
        .trace_every(trace_every)
        .metrics_every_ms(metrics_every)
        .build()
        .map_err(|e| format!("invalid serve configuration: {e}"))?;

    // Listen mode: front external clients until one sends shutdown.
    if args.flag("listen") {
        if args.options.contains_key("imu") {
            return Err(
                "--imu applies to self-drive serve (external clients send their own IMU batches)"
                    .into(),
            );
        }
        let addr = args.get_str("listen", "127.0.0.1:0");
        let rate = args.get_f64("rate", 200.0)?;
        let config = RimConfig::for_sample_rate(rate)
            .with_min_speed(min_speed, HALF_WAVELENGTH, rate)
            .with_threads(threads)
            .precision(precision);
        let manager = std::sync::Arc::new(
            rim_serve::SessionManager::new(geometry, config, serve_cfg)
                .map_err(|e| e.to_string())?,
        );
        let mut server =
            rim_serve::Server::bind(addr.as_str(), manager).map_err(|e| e.to_string())?;
        println!(
            "serving on {} ({rate} Hz, array {array_name})",
            server.local_addr()
        );
        server.wait();
        println!("shutdown requested; served cleanly");
        return Ok(());
    }

    // Self-drive mode.
    let in_path = args
        .positional
        .first()
        .ok_or("serve needs a capture to self-drive, or --listen ADDR")?;
    let sessions = args.get_u64("sessions", 4)?.max(1);
    let loss =
        LossModel::parse(&args.get_str("loss", "none")).map_err(|e| format!("--loss: {e}"))?;
    let loss_seed = args.get_u64("loss-seed", 1)?;

    let file = File::open(in_path).map_err(|e| format!("cannot open {in_path}: {e}"))?;
    let recording = rim_csi::storage::load_recording(BufReader::new(file))
        .map_err(|e| format!("load failed: {e}"))?;
    if recording.n_antennas() != geometry.n_antennas() {
        return Err(format!(
            "capture {in_path} has {} antennas but array {array_name:?} has {} — pass --array",
            recording.n_antennas(),
            geometry.n_antennas()
        ));
    }
    // With --imu every session interleaves the capture's sidecar batches
    // with its CSI stream, and the server fuses with grade-matched noise.
    let imu_grade = args.options.get("imu").cloned();
    let imu_shared = imu_grade
        .as_deref()
        .map(|grade| -> Result<_, String> {
            Ok((fuser_for(grade)?, load_imu_sidecar(in_path.as_str())?))
        })
        .transpose()?;
    let fs = recording.sample_rate_hz;
    let config = RimConfig::for_sample_rate(fs)
        .with_min_speed(min_speed, HALF_WAVELENGTH, fs)
        .with_threads(threads)
        .precision(precision);
    let (fuser, imu_samples) = match imu_shared {
        Some((fuser, samples)) => (fuser, std::sync::Arc::new(samples)),
        None => (
            Fuser::builder()
                .build()
                .map_err(|e| format!("invalid fusion configuration: {e}"))?,
            std::sync::Arc::new(Vec::new()),
        ),
    };
    let manager = std::sync::Arc::new(
        rim_serve::SessionManager::with_fuser(geometry, config, serve_cfg, fuser)
            .map_err(|e| e.to_string())?,
    );
    let mut server = rim_serve::Server::bind("127.0.0.1:0", std::sync::Arc::clone(&manager))
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();

    // Mid-run telemetry polling over its own connection, so the digest
    // reflects what an external `rim top` would see.
    let stop_metrics = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let metrics_handle = (metrics_every > 0).then(|| {
        let stop = std::sync::Arc::clone(&stop_metrics);
        std::thread::spawn(move || {
            let Ok(mut client) = rim_serve::Client::connect(addr) else {
                return;
            };
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(metrics_every.max(1)));
                match client.metrics() {
                    Ok(text) => println!("{}", metrics_digest(&text)),
                    Err(_) => return,
                }
            }
        })
    });

    let mut handles = Vec::new();
    for k in 0..sessions {
        let recording = if loss != LossModel::None {
            recording.degrade(loss, loss_seed.wrapping_add(k))
        } else {
            recording.clone()
        };
        let imu = std::sync::Arc::clone(&imu_samples);
        handles.push(std::thread::spawn(move || -> Result<_, String> {
            let samples = rim_csi::sync::synced_from_recording(&recording);
            let sent = samples.len();
            let mut client =
                rim_serve::Client::connect(addr).map_err(|e| format!("session {k}: {e}"))?;
            let mut events = Vec::new();
            let mut remaining = imu.as_slice();
            for (i, sample) in samples.into_iter().enumerate() {
                let due = imu_due(&mut remaining, (i as f64 / fs * 1e6) as u64);
                if !due.is_empty() {
                    let (admit, drained) = client
                        .ingest_imu_blocking(k, due.to_vec())
                        .map_err(|e| format!("session {k}: {e}"))?;
                    if let rim_serve::Admit::Rejected { reason } = admit {
                        return Err(format!("session {k} imu rejected: {reason:?}"));
                    }
                    events.extend(drained);
                }
                let (admit, drained) = client
                    .ingest_blocking(k, sample)
                    .map_err(|e| format!("session {k}: {e}"))?;
                if let rim_serve::Admit::Rejected { reason } = admit {
                    return Err(format!("session {k} rejected: {reason:?}"));
                }
                events.extend(drained);
            }
            if !remaining.is_empty() {
                let (admit, drained) = client
                    .ingest_imu_blocking(k, remaining.to_vec())
                    .map_err(|e| format!("session {k}: {e}"))?;
                if let rim_serve::Admit::Rejected { reason } = admit {
                    return Err(format!("session {k} imu rejected: {reason:?}"));
                }
                events.extend(drained);
            }
            events.extend(client.finish(k).map_err(|e| format!("session {k}: {e}"))?);
            Ok((k, sent, events))
        }));
    }
    let mut results = Vec::new();
    for h in handles {
        results.push(h.join().map_err(|_| "session thread panicked")??);
    }
    if metrics_every > 0 {
        stop_metrics.store(true, std::sync::atomic::Ordering::Release);
        if let Some(h) = metrics_handle {
            let _ = h.join();
        }
        // A final snapshot after every session finished, so even a run
        // shorter than one poll interval emits at least one digest.
        let text = rim_serve::Client::connect(addr)
            .and_then(|mut c| c.metrics())
            .map_err(|e| e.to_string())?;
        println!("{}", metrics_digest(&text));
    }
    // Shut the server down over the wire, then join its threads.
    rim_serve::Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| e.to_string())?;
    server.shutdown();

    if obs == Some(ObsMode::Json) {
        println!("{}", manager.report().to_json());
        return Ok(());
    }
    println!(
        "served {sessions} sessions × {} samples over {addr} ({fs} Hz, array {array_name})",
        results.first().map_or(0, |(_, sent, _)| *sent),
    );
    for (k, sent, events) in &results {
        let segments: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                rim_core::StreamEvent::Segment(s) => Some(s),
                _ => None,
            })
            .collect();
        let distance: f64 = segments.iter().map(|s| s.distance_m).sum();
        let provisionals = events
            .iter()
            .filter(|e| matches!(e, rim_core::StreamEvent::Provisional { .. }))
            .count();
        let early = events
            .iter()
            .take_while(|e| !matches!(e, rim_core::StreamEvent::Segment(_)))
            .filter(|e| matches!(e, rim_core::StreamEvent::Provisional { .. }))
            .count();
        let fused = count_fused(events);
        println!(
            "session {k}: {sent} samples, {} events, {} segments, {provisionals} provisionals \
             ({early} before first close), {distance:.3} m{}",
            events.len(),
            segments.len(),
            if imu_grade.is_some() {
                format!(", {fused} fused estimates")
            } else {
                String::new()
            },
        );
    }
    if obs == Some(ObsMode::Report) {
        print!("{}", manager.report().render());
    }
    Ok(())
}

/// One-line summary of a telemetry snapshot for `--metrics-every`,
/// checking well-formedness so a garbled exposition is visible in the
/// output rather than silently digested.
fn metrics_digest(text: &str) -> String {
    if !text.starts_with("# rim-serve metrics v1") {
        return String::from("metrics: malformed snapshot");
    }
    let lines = text.lines().count();
    let traces = text.lines().filter(|l| l.starts_with("trace ")).count();
    let with_queue_wait = text
        .lines()
        .filter(|l| l.starts_with("trace ") && l.contains("queue_wait="))
        .count();
    format!(
        "metrics: snapshot {lines} lines, {traces} traces, {with_queue_wait} with queue_wait spans"
    )
}

/// `rim top` — poll a running server's live telemetry and print the
/// full text exposition each interval.
pub fn top(args: &Args) -> Result<(), String> {
    check_options(args, &["interval-ms", "iterations"])?;
    let addr = args
        .positional
        .first()
        .ok_or("top needs a server address (HOST:PORT)")?;
    let interval = args.get_u64("interval-ms", 1000)?;
    let iterations = args.get_u64("iterations", 0)?;
    let mut client = rim_serve::Client::connect(addr.as_str())
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut polled = 0u64;
    loop {
        let text = client.metrics().map_err(|e| e.to_string())?;
        println!("--- {addr} ---");
        print!("{text}");
        polled += 1;
        if iterations > 0 && polled >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(1)));
    }
}

/// `rim floorplan`.
pub fn floorplan(args: &Args) -> Result<(), String> {
    check_options(args, &[])?;
    let (fp, aps) = rim_channel::office_floorplan();
    let (lo, hi) = fp.bounds().expect("walls");
    println!(
        "office testbed: {:.1} m × {:.1} m, {} walls, {} AP locations",
        hi.x - lo.x,
        hi.y - lo.y,
        fp.len(),
        aps.len()
    );
    for (k, ap) in aps.iter().enumerate() {
        println!("  AP #{k}: ({:.1}, {:.1})", ap.x, ap.y);
    }
    Ok(())
}

/// `rim demo` — a self-contained end-to-end run.
pub fn demo(args: &Args) -> Result<(), String> {
    check_options(args, &["seed", "obs"])?;
    let obs = obs_mode(args)?;
    let seed = args.get_u64("seed", 7)?;
    let sim = ChannelSimulator::open_lab(seed);
    let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        1.0,
        1.0,
        200.0,
        OrientationMode::FollowPath,
    );
    let recorder = rim_obs::Recorder::new();
    let csi_recorder = CsiRecorder::new(
        &sim,
        DeviceConfig::single_nic(geometry.offsets().to_vec()),
        RecorderConfig {
            sanitize: true,
            seed,
        },
    );
    let recording = if obs.is_some() {
        csi_recorder.record_probed(&traj, &recorder)
    } else {
        csi_recorder.record(&traj)
    };
    let dense = recording
        .interpolated()
        .ok_or("recording not interpolable")?;
    let config = RimConfig::for_sample_rate(200.0);
    let rim = Rim::new(geometry, config).map_err(|e| e.to_string())?;
    let est = if obs.is_some() {
        rim.session().probe(&recorder).analyze(&dense)
    } else {
        rim.analyze(&dense)
    }
    .map_err(|e| e.to_string())?;
    if obs == Some(ObsMode::Json) {
        println!("{}", recorder.report().to_json());
        return Ok(());
    }
    println!(
        "demo: pushed the array 1.000 m; RIM measured {:.3} m ({:+.1} cm)",
        est.total_distance(),
        (est.total_distance() - 1.0) * 100.0
    );
    if obs == Some(ObsMode::Report) {
        print!(
            "{}",
            render_obs_report(&recorder, rim.config(), &dense, &est)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn args(list: &[&str]) -> Args {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn array_names_resolve() {
        assert_eq!(array_by_name("linear2").unwrap().n_antennas(), 2);
        assert_eq!(array_by_name("linear3").unwrap().n_antennas(), 3);
        assert_eq!(array_by_name("linear4").unwrap().n_antennas(), 4);
        assert_eq!(array_by_name("hexagonal").unwrap().n_antennas(), 6);
        assert_eq!(array_by_name("l").unwrap().n_antennas(), 3);
        assert!(array_by_name("bogus").is_err());
    }

    #[test]
    fn bandwidths_resolve_to_grids() {
        assert_eq!(layout_by_bandwidth(20).unwrap().n_subcarriers(), 56);
        assert_eq!(layout_by_bandwidth(40).unwrap().n_subcarriers(), 114);
        assert_eq!(layout_by_bandwidth(80).unwrap().n_subcarriers(), 242);
        assert!(layout_by_bandwidth(160).is_err());
    }

    #[test]
    fn scenario_names_resolve() {
        assert!(scenario("line", "lab", 1.0, 1.0, 100.0, 7).is_ok());
        assert!(scenario("square", "lab", 2.0, 1.0, 100.0, 7).is_ok());
        assert!(scenario("rotation", "lab", 0.0, 1.0, 100.0, 7).is_ok());
        // Every zoo workload is parseable straight from the CLI.
        for spec in rim_channel::scenarios::ZOO {
            assert!(
                scenario(spec.name, "lab", 1.0, 1.0, 100.0, spec.default_seed).is_ok(),
                "{} resolves",
                spec.name
            );
        }
        let err = scenario("bogus", "lab", 1.0, 1.0, 100.0, 7).unwrap_err();
        assert!(err.contains("walking"), "error lists zoo names: {err}");
    }

    #[test]
    fn simulate_then_analyze_round_trip() {
        let dir = std::env::temp_dir().join("rim_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rimc");
        let path_str = path.to_str().unwrap();

        let sim_args = args(&[
            "simulate",
            path_str,
            "--distance",
            "0.6",
            "--rate",
            "100",
            "--seed",
            "3",
        ]);
        simulate(&sim_args).expect("simulate");
        assert!(path.exists());

        let an_args = args(&["analyze", path_str]);
        analyze(&an_args).expect("analyze");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zoo_scenario_round_trips_on_a_heterogeneous_device() {
        // A zoo workload on a non-default shape: 2-antenna array on a
        // 20 MHz (56-subcarrier) grid, analyzed back with the same array.
        let dir = std::env::temp_dir().join("rim_cli_test_zoo");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rimc");
        let path_str = path.to_str().unwrap();
        simulate(&args(&[
            "simulate",
            path_str,
            "--scenario",
            "stop_and_go",
            "--array",
            "linear2",
            "--bandwidth",
            "20",
            "--rate",
            "50",
        ]))
        .expect("simulate");
        analyze(&args(&["analyze", path_str, "--array", "linear2"])).expect("analyze");
        let err = simulate(&args(&[
            "simulate",
            path_str,
            "--bandwidth",
            "160",
            "--rate",
            "50",
        ]))
        .unwrap_err();
        assert!(err.contains("bandwidth"), "rejects unknown widths: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_rejects_wrong_array() {
        let dir = std::env::temp_dir().join("rim_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rimc");
        let path_str = path.to_str().unwrap();
        simulate(&args(&[
            "simulate",
            path_str,
            "--distance",
            "0.4",
            "--rate",
            "100",
        ]))
        .unwrap();
        let err = analyze(&args(&["analyze", path_str, "--array", "hexagonal"]))
            .expect_err("antenna mismatch");
        assert!(err.contains("antennas"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_paths_error() {
        assert!(simulate(&args(&["simulate"])).is_err());
        assert!(analyze(&args(&["analyze"])).is_err());
    }

    #[test]
    fn loss_specs_parse_and_degrade_on_analyze() {
        let dir = std::env::temp_dir().join("rim_cli_test_loss");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rimc");
        let path_str = path.to_str().unwrap();
        simulate(&args(&[
            "simulate",
            path_str,
            "--distance",
            "0.6",
            "--rate",
            "100",
            "--seed",
            "3",
        ]))
        .unwrap();
        // Post-hoc burst loss on a clean capture must analyze cleanly.
        analyze(&args(&[
            "analyze",
            path_str,
            "--loss",
            "ge:0.05,0.2,0.01,0.8",
            "--loss-seed",
            "11",
        ]))
        .expect("burst-degraded capture analyzes");
        // Bad specs fail with an actionable message on both subcommands.
        let err = simulate(&args(&["simulate", path_str, "--loss", "burst"]))
            .expect_err("bad spec rejected");
        assert!(err.contains("ge:"), "{err}");
        let err = analyze(&args(&["analyze", path_str, "--loss", "iid:2"]))
            .expect_err("out-of-range rejected");
        assert!(err.contains("iid"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_options_are_rejected_with_valid_list() {
        // A typo'd option must error instead of silently using defaults.
        let err = simulate(&args(&["simulate", "out.rimc", "--sceanrio", "line"]))
            .expect_err("typo rejected");
        assert!(err.contains("--sceanrio"), "{err}");
        assert!(err.contains("--scenario"), "lists valid options: {err}");
        let err = analyze(&args(&["analyze", "in.rimc", "--distance", "2"]))
            .expect_err("simulate-only option rejected on analyze");
        assert!(err.contains("--distance"), "{err}");
        let err = floorplan(&args(&["floorplan", "--seed", "1"])).expect_err("no options");
        assert!(err.contains("none"), "{err}");
        let err = demo(&args(&["demo", "--obs", "xml"])).expect_err("bad obs mode");
        assert!(err.contains("json or report"), "{err}");
    }

    #[test]
    fn demo_obs_json_is_parseable_and_covers_pipeline() {
        // `demo --obs json` must produce a valid RunReport that includes
        // the CSI ingest stage and the translation pipeline stages.
        let seed = args(&["demo", "--seed", "7", "--obs", "json"]);
        let obs = obs_mode(&seed).unwrap();
        assert_eq!(obs, Some(ObsMode::Json));
        // Run the same path demo() takes, capturing the report object
        // rather than stdout.
        let sim = ChannelSimulator::open_lab(7);
        let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let traj = line(
            Point2::new(0.0, 2.0),
            0.0,
            1.0,
            1.0,
            200.0,
            OrientationMode::FollowPath,
        );
        let recorder = rim_obs::Recorder::new();
        let dense = CsiRecorder::new(
            &sim,
            DeviceConfig::single_nic(geometry.offsets().to_vec()),
            RecorderConfig {
                sanitize: true,
                seed: 7,
            },
        )
        .record_probed(&traj, &recorder)
        .interpolated()
        .unwrap();
        let config = RimConfig::for_sample_rate(200.0);
        Rim::new(geometry, config)
            .unwrap()
            .session()
            .probe(&recorder)
            .analyze(&dense)
            .unwrap();
        let report = recorder.report();
        let round_trip = rim_obs::RunReport::from_json(&report.to_json()).expect("valid JSON");
        for stage in rim_obs::stage::PIPELINE {
            assert!(
                round_trip.stage(stage).is_some(),
                "stage {stage} missing from report"
            );
        }
        assert!(round_trip.stage(rim_obs::stage::CSI_INGEST).is_some());
    }

    #[test]
    fn imu_grades_resolve_and_gate_fusion() {
        assert!(imu_by_name("consumer").is_ok());
        assert!(imu_by_name("uncalibrated").is_ok());
        assert!(imu_by_name("ideal").is_ok());
        let err = imu_by_name("military").expect_err("unknown grade");
        assert!(err.contains("consumer | uncalibrated | ideal"), "{err}");
        assert!(fuser_for("ideal").is_ok());
        assert!(fuser_for("bogus").is_err());
    }

    #[test]
    fn simulate_with_imu_writes_sidecar_and_analyze_fuses_it() {
        let dir = std::env::temp_dir().join("rim_cli_test_imu");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rimc");
        let path_str = path.to_str().unwrap();
        simulate(&args(&[
            "simulate",
            path_str,
            "--distance",
            "0.6",
            "--rate",
            "100",
            "--seed",
            "3",
            "--imu",
            "consumer",
        ]))
        .expect("simulate with sidecar");
        let sidecar = imu_sidecar_path(path_str);
        let rec = ImuRecording::from_bytes(&std::fs::read(&sidecar).unwrap()).expect("sidecar");
        assert!(!rec.is_empty());
        assert_eq!(rec.sample_rate_hz, 100.0);
        analyze(&args(&["analyze", path_str, "--imu", "consumer"])).expect("fused analyze");
        // Unknown grades and a missing sidecar fail with actionable errors.
        let err =
            analyze(&args(&["analyze", path_str, "--imu", "tactical"])).expect_err("unknown grade");
        assert!(err.contains("tactical"), "{err}");
        std::fs::remove_file(&sidecar).unwrap();
        let err =
            analyze(&args(&["analyze", path_str, "--imu", "consumer"])).expect_err("no sidecar");
        assert!(err.contains("simulate --imu"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_self_drives_with_imu_sidecar() {
        let dir = std::env::temp_dir().join("rim_cli_test_serve_imu");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rimc");
        let path_str = path.to_str().unwrap();
        simulate(&args(&[
            "simulate",
            path_str,
            "--distance",
            "0.5",
            "--rate",
            "100",
            "--seed",
            "5",
            "--imu",
            "ideal",
        ]))
        .unwrap();
        serve(&args(&[
            "serve",
            path_str,
            "--sessions",
            "2",
            "--imu",
            "ideal",
        ]))
        .expect("fused self-drive serves cleanly");
        // Listen mode has no capture to pull a sidecar from.
        let err = serve(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--imu",
            "consumer",
        ]))
        .expect_err("imu rejected in listen mode");
        assert!(err.contains("self-drive"), "{err}");
        std::fs::remove_file(imu_sidecar_path(path_str)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_digest_summarises_and_flags_garbage() {
        let text = "# rim-serve metrics v1\n\
                    serve.samples_admitted 5\n\
                    trace 1 session=3 seq=0 total_us=120 admission=2 queue_wait=80\n\
                    trace 2 session=3 seq=1 total_us=90 admission=1\n";
        assert_eq!(
            metrics_digest(text),
            "metrics: snapshot 4 lines, 2 traces, 1 with queue_wait spans"
        );
        assert_eq!(metrics_digest("nonsense"), "metrics: malformed snapshot");
    }

    #[test]
    fn top_polls_a_live_server() {
        let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let config = RimConfig::for_sample_rate(100.0);
        let manager = std::sync::Arc::new(
            rim_serve::SessionManager::new(geometry, config, rim_serve::ServeConfig::default())
                .unwrap(),
        );
        let mut server = rim_serve::Server::bind("127.0.0.1:0", manager).unwrap();
        let addr = server.local_addr().to_string();
        top(&args(&[
            "top",
            &addr,
            "--iterations",
            "2",
            "--interval-ms",
            "1",
        ]))
        .expect("top polls");
        assert!(top(&args(&["top"])).is_err(), "address is required");
        server.shutdown();
    }

    #[test]
    fn floorplan_prints() {
        floorplan(&args(&["floorplan"])).unwrap();
    }

    #[test]
    fn serve_self_drives_concurrent_sessions() {
        let dir = std::env::temp_dir().join("rim_cli_test_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.rimc");
        let path_str = path.to_str().unwrap();
        simulate(&args(&[
            "simulate",
            path_str,
            "--distance",
            "0.5",
            "--rate",
            "100",
            "--seed",
            "5",
        ]))
        .unwrap();
        serve(&args(&[
            "serve",
            path_str,
            "--sessions",
            "3",
            "--loss",
            "iid:0.05",
            "--trace-every",
            "1",
            "--metrics-every",
            "10",
        ]))
        .expect("self-drive serves cleanly");
        // Missing capture and bad loss specs surface as errors.
        assert!(serve(&args(&["serve"])).is_err());
        let err = serve(&args(&["serve", path_str, "--loss", "burst"])).expect_err("bad loss spec");
        assert!(err.contains("loss"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
