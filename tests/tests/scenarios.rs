//! Property tests over the heterogeneity matrix: any scenario-zoo
//! workload recorded on any device shape (56/114/242-subcarrier grid ×
//! 2/3/4-antenna array × mixed sample rates) must analyze without
//! panicking, and the pooled pipeline must stay bit-identical to the
//! serial one on every such shape — the invariants the scenario-zoo
//! bench assumes cell by cell.

use proptest::prelude::*;
use rim_array::ArrayGeometry;
use rim_channel::{scenarios, ChannelSimulator, SubcarrierLayout};
use rim_core::{MotionEstimate, Rim, RimConfig};
use rim_csi::{CsiRecorder, DeviceConfig, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_integration_tests::{FS, SPACING};

/// One device shape of the matrix, drawn by the strategy.
#[derive(Debug, Clone, Copy)]
struct Shape {
    bandwidth_mhz: u32,
    n_antennas: usize,
    sample_rate_hz: f64,
}

fn layout(mhz: u32) -> SubcarrierLayout {
    match mhz {
        20 => SubcarrierLayout::ht20_5ghz(),
        40 => SubcarrierLayout::ht40_5ghz(),
        _ => SubcarrierLayout::vht80_5ghz(),
    }
}

/// Every combination of the matrix axes, plus a scenario and a seed.
/// Sample rates stay low so each case's ray-traced recording is cheap;
/// the pipeline's lag windows scale with the rate, so the shape of the
/// computation is the same as at 200 Hz.
fn cases() -> impl Strategy<Value = (Shape, &'static str, u64)> {
    (
        prop::sample::select(vec![20u32, 40, 80]),
        2..5usize,
        prop::sample::select(vec![32.0f64, 40.0, 50.0]),
        0..scenarios::ZOO.len(),
        0..64u64,
    )
        .prop_map(
            |(bandwidth_mhz, n_antennas, sample_rate_hz, scenario, seed)| {
                (
                    Shape {
                        bandwidth_mhz,
                        n_antennas,
                        sample_rate_hz,
                    },
                    scenarios::ZOO[scenario].name,
                    seed,
                )
            },
        )
}

fn analyze(
    shape: Shape,
    scenario: &str,
    seed: u64,
    threads: usize,
) -> Result<MotionEstimate, rim_core::Error> {
    let geo = ArrayGeometry::linear(shape.n_antennas, SPACING);
    let traj = scenarios::build(scenario, Point2::new(0.0, 2.0), shape.sample_rate_hz, seed)
        .expect("zoo scenario name");
    let sim = ChannelSimulator::open_lab(seed).with_layout(layout(shape.bandwidth_mhz));
    let dense = CsiRecorder::new(
        &sim,
        DeviceConfig::single_nic(geo.offsets().to_vec()),
        RecorderConfig {
            sanitize: true,
            seed,
        },
    )
    .record(&traj)
    .interpolated()
    .expect("lossless recording interpolates");
    Rim::new(geo, RimConfig::for_sample_rate(FS).with_threads(threads))
        .expect("matrix geometry is a valid config")
        .analyze(&dense)
}

/// f64 slice comparison by bit pattern (`speed_mps` legitimately
/// carries NaN, which `==` would reject even on identical runs).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full pipeline is panic-free on every cell of the matrix, and
    /// returns an estimate whose per-sample series cover the recording.
    #[test]
    fn analysis_is_panic_free_across_the_matrix((shape, scenario, seed) in cases()) {
        let est = analyze(shape, scenario, seed, 1);
        prop_assert!(
            est.is_ok(),
            "{scenario} on {shape:?} failed: {:?}",
            est.err()
        );
        let est = est.unwrap();
        prop_assert!(!est.movement_indicator.is_empty());
        prop_assert_eq!(est.movement_indicator.len(), est.speed_mps.len());
        prop_assert_eq!(est.moving.len(), est.speed_mps.len());
    }

    /// Thread count never changes a bit, whatever the device shape.
    #[test]
    fn serial_and_parallel_agree_bit_for_bit((shape, scenario, seed) in cases()) {
        let serial = analyze(shape, scenario, seed, 1).expect("serial analyzes");
        let pooled = analyze(shape, scenario, seed, 4).expect("pooled analyzes");
        prop_assert!(
            bits_eq(&serial.movement_indicator, &pooled.movement_indicator),
            "movement indicator diverged on {scenario} x {shape:?}"
        );
        prop_assert!(bits_eq(&serial.speed_mps, &pooled.speed_mps));
        prop_assert!(bits_eq(&serial.angular_rate, &pooled.angular_rate));
        prop_assert_eq!(serial.moving, pooled.moving);
        prop_assert_eq!(serial.heading_device, pooled.heading_device);
        prop_assert_eq!(serial.segments.len(), pooled.segments.len());
        for (a, b) in serial.segments.iter().zip(&pooled.segments) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
            prop_assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
        }
    }
}
