//! Property tests of the precision modes: tier bit-equality for the f64
//! reference path, the f32 fast path's error budget, and the invariance
//! of event ordering and confidence plumbing under `RimConfig::precision`.
//!
//! The f32 throughput gate is a wall-clock test, so it is `#[ignore]`d;
//! run it in release, alone:
//! `cargo test --release -p rim-integration-tests --test precision -- --ignored --test-threads=1`.

use proptest::prelude::*;
use rim_array::ArrayGeometry;
use rim_channel::trajectory::{line, stop_and_go, OrientationMode, Trajectory};
use rim_channel::ChannelSimulator;
use rim_core::alignment::base_cross_trrs_range_prec;
use rim_core::{trrs_norm, NormSnapshot, Precision, RimConfig, RimStream, StreamEvent};
use rim_csi::frame::CsiSnapshot;
use rim_csi::{CsiRecorder, DeviceConfig, RecorderConfig};
use rim_dsp::complex::Complex64;
use rim_dsp::geom::Point2;
use rim_dsp::stats::angle_diff;
use rim_integration_tests::{ab_ratios, config, median, run_pipeline, timed_reps, FS, SPACING};
use rim_par::Pool;
use rim_simd::{active_tier, force_tier, Tier};
use std::sync::Mutex;

/// Serialises the tests that pin the process-wide SIMD dispatch tier.
static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Restores automatic tier detection even when an assertion unwinds.
struct TierGuard;
impl Drop for TierGuard {
    fn drop(&mut self) {
        force_tier(None);
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic unit-norm snapshot series with pseudo-random phases.
fn series(seed: u64, t_len: usize, n_tx: usize, n_sub: usize) -> Vec<NormSnapshot> {
    (0..t_len)
        .map(|t| {
            NormSnapshot::from_snapshot(&CsiSnapshot {
                per_tx: (0..n_tx)
                    .map(|tx| {
                        (0..n_sub)
                            .map(|k| {
                                let h = mix(seed
                                    .wrapping_add((t as u64) << 40)
                                    .wrapping_add((tx as u64) << 20)
                                    .wrapping_add(k as u64));
                                let x = (h >> 12) as f64 / (1u64 << 52) as f64;
                                Complex64::from_polar(0.5 + x, x * std::f64::consts::TAU)
                            })
                            .collect()
                    })
                    .collect(),
            })
        })
        .collect()
}

/// The masked per-entry scalar reference: exactly the pre-SoA
/// `cross_trrs_row` loop, one `trrs_norm` per in-range entry.
fn aos_reference(a: &[NormSnapshot], b: &[NormSnapshot], window: usize) -> Vec<Vec<f64>> {
    let w = window as isize;
    a.iter()
        .enumerate()
        .map(|(t, snap)| {
            (0..2 * window + 1)
                .map(|k| {
                    let src = t as isize - (k as isize - w);
                    if src < 0 || src as usize >= b.len() {
                        0.0
                    } else {
                        trrs_norm(snap, &b[src as usize])
                    }
                })
                .collect()
        })
        .collect()
}

/// The SIMD f64 path is bit-identical to the scalar tier — and to the
/// pre-SoA AoS reference — at 1 and 4 threads. The f32 path must likewise
/// be tier- and thread-invariant (its reference is the scalar f32 lane).
fn assert_tier_and_thread_invariant(a: &[NormSnapshot], b: &[NormSnapshot], window: usize) {
    let _serial = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _restore = TierGuard;
    let t_len = a.len();
    let matrix = |tier, pool: &Pool, precision| {
        force_tier(Some(tier));
        let m = base_cross_trrs_range_prec(a, b, window, (0, t_len), pool, precision);
        m.rows().map(<[f64]>::to_vec).collect::<Vec<_>>()
    };
    let assert_same = |x: &[Vec<f64>], y: &[Vec<f64>], what: &str| {
        for (t, (rx, ry)) in x.iter().zip(y).enumerate() {
            for (k, (u, v)) in rx.iter().zip(ry).enumerate() {
                assert_eq!(u.to_bits(), v.to_bits(), "{what} mismatch at t={t} k={k}");
            }
        }
    };
    let reference = aos_reference(a, b, window);
    let mut f32_baseline: Option<Vec<Vec<f64>>> = None;
    for threads in [1usize, 4] {
        let pool = Pool::new(threads, 0);
        let scalar = matrix(Tier::Scalar, &pool, Precision::F64Reference);
        let simd = matrix(Tier::Avx2, &pool, Precision::F64Reference);
        assert_same(&scalar, &simd, &format!("f64 tier (threads={threads})"));
        assert_same(
            &reference,
            &scalar,
            &format!("f64 AoS/SoA (threads={threads})"),
        );
        let scalar32 = matrix(Tier::Scalar, &pool, Precision::F32Fast);
        let simd32 = matrix(Tier::Avx2, &pool, Precision::F32Fast);
        assert_same(&scalar32, &simd32, &format!("f32 tier (threads={threads})"));
        // Thread count must not change f32 results either.
        match &f32_baseline {
            None => f32_baseline = Some(simd32),
            Some(base) => assert_same(base, &simd32, "f32 thread"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite (a): tier and thread invariance on every generated
    /// series shape.
    #[test]
    fn f64_reference_is_bit_identical_across_tiers_and_threads(
        seed in any::<u64>(),
        t_len in 8usize..36,
        window in 1usize..12,
        n_tx in 1usize..3,
        n_sub in 4usize..48,
    ) {
        let a = series(seed, t_len, n_tx, n_sub);
        let b = series(seed ^ 0xA5A5_5A5A, t_len, n_tx, n_sub);
        assert_tier_and_thread_invariant(&a, &b, window);
    }
}

/// A kernel shape the proptest above cannot reach, and the f32 gate's
/// workload: a 100-lag window (0.5 s at the paper's 200 Hz) over a
/// 240-sample series of 56 subcarriers.
#[test]
fn f64_reference_is_bit_identical_at_the_production_window() {
    let window = 100;
    assert_tier_and_thread_invariant(&series(1, 240, 1, 56), &series(7, 240, 1, 56), window);
}

/// The f32 fast path lands within the documented error budget of the f64
/// reference on `traj`: the same segments, each segment's distance and
/// the total within 1 mm, and heading within 0.1°.
fn assert_f32_inside_budget(
    sim: &ChannelSimulator,
    traj: &Trajectory,
    config: RimConfig,
    seed: u64,
) {
    let geo = ArrayGeometry::linear(3, SPACING);
    let est64 = run_pipeline(
        sim,
        &geo,
        traj,
        config.clone().precision(Precision::F64Reference),
        seed,
    );
    let est32 = run_pipeline(sim, &geo, traj, config.precision(Precision::F32Fast), seed);
    assert_eq!(
        est64.segments.len(),
        est32.segments.len(),
        "precision changed the segment count"
    );
    let total_mm = (est64.total_distance() - est32.total_distance()).abs() * 1e3;
    assert!(
        total_mm <= 1.0,
        "total distance delta {total_mm:.3} mm exceeds the 1 mm budget"
    );
    for (s64, s32) in est64.segments.iter().zip(&est32.segments) {
        assert_eq!(
            (s64.start, s64.end, s64.kind),
            (s32.start, s32.end, s32.kind)
        );
        let d_mm = (s64.distance_m - s32.distance_m).abs() * 1e3;
        assert!(
            d_mm <= 1.0,
            "distance delta {d_mm:.3} mm exceeds the 1 mm budget"
        );
        match (s64.heading_device, s32.heading_device) {
            (Some(h64), Some(h32)) => {
                let dh_deg = angle_diff(h64, h32).abs().to_degrees();
                assert!(
                    dh_deg <= 0.1,
                    "heading delta {dh_deg:.4}° exceeds the 0.1° budget"
                );
            }
            (h64, h32) => assert_eq!(
                h64.is_some(),
                h32.is_some(),
                "precision changed heading availability"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite (b): the f32 error budget on every generated walk.
    #[test]
    fn f32_fast_stays_inside_its_error_budget(
        seed in 1u64..40,
        length_dm in 15u32..40,
        speed_cmps in 60u32..120,
        start_x in -2.0f64..0.0,
    ) {
        let traj = line(
            Point2::new(start_x, 2.0),
            0.0,
            length_dm as f64 / 10.0,
            speed_cmps as f64 / 100.0,
            FS,
            OrientationMode::Fixed(0.0),
        );
        assert_f32_inside_budget(&ChannelSimulator::open_lab(seed), &traj, config(0.3), seed);
    }
}

/// The f32 error budget on one fixed 200 Hz lab walk (3 m at 1 m/s).
#[test]
fn f32_fast_stays_inside_its_error_budget_on_a_200_hz_walk() {
    let fs = 200.0;
    let walk = line(
        Point2::new(-2.0, 2.0),
        0.0,
        3.0,
        1.0,
        fs,
        OrientationMode::Fixed(0.0),
    );
    let cfg = RimConfig::for_sample_rate(fs);
    assert_f32_inside_budget(&ChannelSimulator::open_lab(11), &walk, cfg, 11);
}

/// On AVX2 the f32 fast path computes the W = 100 matrix above at
/// least 5× faster than the per-entry scalar f64 reference (serial pool).
/// Each side of a pair times at least 0.2 s of repeated builds, and the
/// gate reads the median speedup of 9 interleaved pairs. Other tiers are
/// not held to the target.
#[test]
#[ignore = "wall-clock gate: run in release with --ignored --test-threads=1"]
fn f32_fast_path_is_at_least_5x_the_scalar_reference_on_avx2() {
    let _serial = TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let tier = active_tier();
    let (t_len, n_sub) = (240, 56);
    let window = 100;
    let a = series(1, t_len, 1, n_sub);
    let b = series(7, t_len, 1, n_sub);
    let pool = Pool::serial();
    let per_build = |f: &mut dyn FnMut()| {
        let (n, secs) = timed_reps(0.2, f);
        secs / n as f64
    };
    let ratios = ab_ratios(
        "scalar f64 / simd f32 build time",
        9,
        || {
            per_build(&mut || {
                std::hint::black_box(aos_reference(&a, &b, window));
            })
        },
        || {
            per_build(&mut || {
                std::hint::black_box(base_cross_trrs_range_prec(
                    &a,
                    &b,
                    window,
                    (0, t_len),
                    &pool,
                    Precision::F32Fast,
                ));
            })
        },
    );
    let speedup = median(&ratios);
    eprintln!("tier {tier:?}: simd-f32 {speedup:.2}x the scalar f64 reference (median)");
    if tier == Tier::Avx2 {
        assert!(
            speedup >= 5.0,
            "simd-f32 median speedup {speedup:.2}x below the 5x target"
        );
    }
}

/// Satellite (c): precision selects TRRS arithmetic only — movement
/// detection stays f64, so segmentation, event ordering, and the
/// confidence plumbing are identical between the two modes.
#[test]
fn precision_does_not_change_event_ordering_or_confidence_plumbing() {
    let sim = ChannelSimulator::open_lab(23);
    let geo = ArrayGeometry::linear(3, SPACING);
    let traj = stop_and_go(Point2::new(-1.5, 2.0), 0.0, 1.0, 0.7, 2, 0.8, FS);
    let device = DeviceConfig::single_nic(geo.offsets().to_vec());
    let dense = CsiRecorder::new(
        &sim,
        device,
        RecorderConfig {
            sanitize: true,
            seed: 23,
        },
    )
    .record(&traj)
    .interpolated()
    .expect("dense recording");

    // Batch path: the movement layer never sees f32, so the indicator and
    // flags must be bit-identical, and the segment boundaries with them.
    let est64 = run_pipeline(
        &sim,
        &geo,
        &traj,
        config(0.3).precision(Precision::F64Reference),
        23,
    );
    let est32 = run_pipeline(
        &sim,
        &geo,
        &traj,
        config(0.3).precision(Precision::F32Fast),
        23,
    );
    assert_eq!(
        est64.movement_indicator.len(),
        est32.movement_indicator.len()
    );
    for (x, y) in est64
        .movement_indicator
        .iter()
        .zip(&est32.movement_indicator)
    {
        assert_eq!(x.to_bits(), y.to_bits(), "movement indicator diverged");
    }
    assert_eq!(est64.moving, est32.moving, "movement flags diverged");
    assert_eq!(est64.segments.len(), est32.segments.len());
    for (s64, s32) in est64.segments.iter().zip(&est32.segments) {
        assert_eq!(
            (s64.start, s64.end, s64.kind),
            (s32.start, s32.end, s32.kind)
        );
        for c in [&s64.confidence, &s32.confidence] {
            assert!(c.peak_margin.is_finite() && c.peak_margin >= 0.0);
            assert!((0.0..=1.0).contains(&c.interpolated_fraction));
            assert!((0.0..=1.0).contains(&c.alignment_coverage));
        }
    }

    // Streaming path: the event kinds, their order, and their sample
    // indices must match one for one across precisions.
    let shape = |events: &[StreamEvent]| -> Vec<(String, usize)> {
        events
            .iter()
            .map(|e| match e {
                StreamEvent::MovementStarted { at } => ("start".into(), *at),
                StreamEvent::Segment(s) => ("segment".into(), s.start),
                StreamEvent::Provisional { at, .. } => ("provisional".into(), *at),
                other => (format!("{other:?}"), 0),
            })
            .collect()
    };
    let mut shapes = Vec::new();
    for precision in [Precision::F64Reference, Precision::F32Fast] {
        let cfg = config(0.3).precision(precision);
        let mut stream = RimStream::new(geo.clone(), cfg).expect("valid config");
        let mut events = Vec::new();
        for i in 0..dense.n_samples() {
            let snaps: Vec<_> = dense.antennas.iter().map(|a| a[i].clone()).collect();
            events.extend(stream.ingest(snaps).expect("matching antenna count"));
        }
        events.extend(stream.finish());
        shapes.push(shape(&events));
    }
    assert_eq!(shapes[0], shapes[1], "precision changed the event sequence");
}
