//! Parallel execution invariants: the pooled pipeline must be
//! bit-identical to the serial one, and `analyze_batch` must equal the
//! same analyses run independently.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{MotionEstimate, Rim, RimConfig};
use rim_csi::recorder::DenseCsi;
use rim_csi::{CsiRecorder, DeviceConfig, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_integration_tests::{FS, SPACING};

fn trace(seed: u64) -> (ArrayGeometry, DenseCsi) {
    let sim = ChannelSimulator::open_lab(seed);
    let geo = ArrayGeometry::linear(3, SPACING);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        1.0,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
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
    .expect("interpolable");
    (geo, dense)
}

/// f64 comparison by bit pattern: `speed_mps` legitimately carries NaN,
/// which `==` would reject even when the runs agree exactly.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

fn assert_estimates_identical(a: &MotionEstimate, b: &MotionEstimate) {
    assert_bits_eq(&a.movement_indicator, &b.movement_indicator, "indicator");
    assert_eq!(a.moving, b.moving, "moving flags");
    assert_bits_eq(&a.speed_mps, &b.speed_mps, "speed");
    assert_eq!(a.heading_device, b.heading_device, "heading");
    assert_bits_eq(&a.angular_rate, &b.angular_rate, "angular rate");
    assert_eq!(a.segments.len(), b.segments.len(), "segment count");
    for (sa, sb) in a.segments.iter().zip(&b.segments) {
        assert_eq!(sa.kind, sb.kind);
        assert_eq!(sa.start, sb.start);
        assert_eq!(sa.end, sb.end);
        assert_eq!(sa.distance_m.to_bits(), sb.distance_m.to_bits());
    }
}

#[test]
fn thread_count_never_changes_a_bit() {
    let (geo, dense) = trace(7);
    let serial = Rim::new(geo.clone(), RimConfig::for_sample_rate(FS).with_threads(1))
        .expect("valid config")
        .analyze(&dense)
        .expect("analyzable");
    for threads in [2usize, 4, 8] {
        let est = Rim::new(
            geo.clone(),
            RimConfig::for_sample_rate(FS).with_threads(threads),
        )
        .expect("valid config")
        .analyze(&dense)
        .expect("analyzable");
        assert_estimates_identical(&est, &serial);
    }
}

#[test]
fn analyze_batch_equals_independent_analyzes() {
    let (geo, a) = trace(7);
    let (_, b) = trace(21);
    let rim = Rim::new(geo, RimConfig::for_sample_rate(FS).with_threads(4)).expect("valid config");

    let independent: Vec<MotionEstimate> = [&a, &b, &a]
        .iter()
        .map(|d| rim.analyze(d).expect("analyzable"))
        .collect();
    let batch = rim
        .session()
        .analyze_batch(&[&a, &b, &a])
        .expect("analyzable batch");

    assert_eq!(batch.len(), independent.len());
    for (x, y) in batch.iter().zip(&independent) {
        assert_estimates_identical(x, y);
    }
}

#[test]
fn batch_rejects_any_bad_input_up_front() {
    let (geo, good) = trace(7);
    let bad = DenseCsi {
        antennas: good.antennas[..2].to_vec(),
        ..good.clone()
    };
    let rim = Rim::new(geo, RimConfig::for_sample_rate(FS)).expect("valid config");
    let err = rim
        .session()
        .analyze_batch(&[&good, &bad])
        .expect_err("mismatched capture must be rejected");
    assert!(
        err.to_string().contains("antenna count mismatch"),
        "unexpected error: {err}"
    );
}
