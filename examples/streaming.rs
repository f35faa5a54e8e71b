//! Real-time streaming RIM: CSI samples are pushed one at a time into a
//! bounded-memory engine that emits movement events as they resolve —
//! the architecture of the paper's online C++ system (§5).
//!
//! ```sh
//! cargo run --release -p rim-examples --bin streaming
//! ```

use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_channel::trajectory::{dwell, line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::stream::{RimStream, StreamAggregate, StreamEvent};
use rim_core::RimConfig;
use rim_csi::{CsiRecorder, DeviceConfig, RecorderConfig};
use rim_dsp::geom::Point2;

fn main() {
    let fs = 200.0;
    let sim = ChannelSimulator::open_lab(7);
    let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);

    // A stop-and-go session: idle, 2 m push, idle, 1 m pull back, idle.
    let mut traj = dwell(Point2::new(0.0, 2.0), 0.0, 0.8, fs);
    traj.extend(&line(
        Point2::new(0.0, 2.0),
        0.0,
        2.0,
        1.0,
        fs,
        OrientationMode::Fixed(0.0),
    ));
    traj.extend(&dwell(Point2::new(2.0, 2.0), 0.0, 0.8, fs));
    traj.extend(&line(
        Point2::new(2.0, 2.0),
        std::f64::consts::PI,
        1.0,
        1.0,
        fs,
        OrientationMode::Fixed(0.0),
    ));
    traj.extend(&dwell(Point2::new(1.0, 2.0), 0.0, 0.8, fs));

    let dense = CsiRecorder::new(
        &sim,
        DeviceConfig::single_nic(geometry.offsets().to_vec()),
        RecorderConfig::default(),
    )
    .record(&traj)
    .interpolated()
    .unwrap();

    let config = RimConfig::for_sample_rate(fs);
    let mut stream = RimStream::new(geometry, config).expect("valid config");
    let mut agg = StreamAggregate::default();

    println!("pushing {} CSI samples one at a time…\n", dense.n_samples());
    for i in 0..dense.n_samples() {
        let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
        let events = stream.ingest(snaps).expect("matching antenna count");
        for e in &events {
            let t = i as f64 / fs;
            match e {
                StreamEvent::MovementStarted { at } => {
                    println!(
                        "[{t:6.2}s] movement started (backdated to {:.2}s)",
                        *at as f64 / fs
                    )
                }
                StreamEvent::Segment(s) => println!(
                    "[{t:6.2}s] segment resolved: {:?}, {:.2} m, heading {}",
                    s.kind,
                    s.distance_m,
                    s.heading_device
                        .map(|h| format!("{:.0}°", h.to_degrees()))
                        .unwrap_or_else(|| "n/a".into())
                ),
                StreamEvent::Provisional {
                    distance_so_far, ..
                } => println!("[{t:6.2}s] provisional: {distance_so_far:.2} m so far"),
                StreamEvent::MovementStopped { .. } => println!("[{t:6.2}s] movement stopped"),
                StreamEvent::Degraded { reason, .. } => {
                    println!("[{t:6.2}s] DEGRADED: {reason:?}")
                }
                StreamEvent::Recovered { .. } => println!("[{t:6.2}s] recovered"),
                other => println!("[{t:6.2}s] {}", other.kind().name()),
            }
        }
        agg.absorb(&events);
    }
    agg.absorb(&stream.finish());

    println!(
        "\ntotal travelled distance : {:.2} m (truth {:.2} m)",
        agg.total_distance(),
        traj.total_distance()
    );
    println!(
        "peak ring occupancy      : {} samples (bounded, trace was {})",
        stream.ring_len().max(1),
        dense.n_samples()
    );
}
