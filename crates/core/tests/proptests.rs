//! Property-based tests of the RIM core invariants.

use proptest::prelude::*;
use rim_array::{ArrayGeometry, HALF_WAVELENGTH};
use rim_core::alignment::{base_cross_trrs_range_prec, virtual_average_with, AlignmentMatrix};
use rim_core::stream::{GapFilter, GapOutcome, RimStream, StreamEvent};
use rim_core::tracking_dp::{track_peaks, DpConfig};
use rim_core::trrs::{trrs_cfr, trrs_massive, trrs_norm, NormSnapshot};
use rim_core::{movement_indicator, MovementConfig, Precision, RimConfig};
use rim_csi::frame::CsiSnapshot;
use rim_dsp::complex::Complex64;
use rim_dsp::interp::fill_gaps_complex;
use rim_par::Pool;
use std::sync::OnceLock;

/// The whole-series base matrix at f64 over `pool`.
fn base_matrix(
    a: &[NormSnapshot],
    b: &[NormSnapshot],
    window: usize,
    pool: &Pool,
) -> AlignmentMatrix {
    let range = (0, a.len().min(b.len()));
    base_cross_trrs_range_prec(a, b, window, range, pool, Precision::F64Reference)
}

fn cfr_strategy(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex64::new(re, im)),
        n..=n,
    )
}

fn snapshot_series(len: usize, n_sc: usize) -> impl Strategy<Value = Vec<NormSnapshot>> {
    prop::collection::vec(cfr_strategy(n_sc), len..=len).prop_map(|cfrs| {
        cfrs.into_iter()
            .map(|cfr| NormSnapshot::from_snapshot(&CsiSnapshot { per_tx: vec![cfr] }))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trrs_in_unit_interval_and_symmetric(h1 in cfr_strategy(24), h2 in cfr_strategy(24)) {
        let k12 = trrs_cfr(&h1, &h2);
        let k21 = trrs_cfr(&h2, &h1);
        prop_assert!((0.0..=1.0).contains(&k12));
        prop_assert!((k12 - k21).abs() < 1e-9);
    }

    #[test]
    fn trrs_scale_invariant(
        h in cfr_strategy(24),
        re in -5.0f64..5.0,
        im in -5.0f64..5.0,
    ) {
        let c = Complex64::new(re, im);
        prop_assume!(c.abs() > 1e-3);
        let scaled: Vec<Complex64> = h.iter().map(|&z| z * c).collect();
        let k = trrs_cfr(&h, &scaled);
        prop_assert!((k - 1.0).abs() < 1e-9, "κ(H, cH) = 1, got {k}");
    }

    #[test]
    fn trrs_identity_is_one(h in cfr_strategy(16)) {
        prop_assume!(h.iter().map(|z| z.norm_sqr()).sum::<f64>() > 1e-9);
        prop_assert!((trrs_cfr(&h, &h) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn massive_trrs_is_mean_of_singles(
        a in snapshot_series(12, 8),
        b in snapshot_series(12, 8),
    ) {
        // Interior block: Eqn. 4 is exactly the mean of the per-offset
        // single TRRS values.
        let v = 5usize;
        let k = trrs_massive(&a, &b, 6, 6, v);
        let mut acc = 0.0;
        for off in -2i64..=2 {
            acc += trrs_norm(&a[(6 + off) as usize], &b[(6 + off) as usize]);
        }
        prop_assert!((k - acc / 5.0).abs() < 1e-9);
    }

    #[test]
    fn alignment_matrix_values_in_unit_interval(
        a in snapshot_series(16, 8),
        b in snapshot_series(16, 8),
    ) {
        let m = base_matrix(&a, &b, 4, &Pool::serial());
        for row in m.rows() {
            for &v in row {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            }
        }
        let g = virtual_average_with(&m, 5, &Pool::serial());
        for row in g.rows() {
            for &v in row {
                prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
            }
        }
    }

    #[test]
    fn parallel_alignment_is_bit_identical_to_serial(
        a in snapshot_series(24, 8),
        b in snapshot_series(24, 8),
        window in 2usize..6,
        v in 1usize..7,
    ) {
        // Tiling the hot path must never change a single bit, for any
        // thread count or tile size.
        let base = base_matrix(&a, &b, window, &Pool::serial());
        let avg = virtual_average_with(&base, v, &Pool::serial());
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads, 3);
            let base_p = base_matrix(&a, &b, window, &pool);
            let avg_p = virtual_average_with(&base_p, v, &pool);
            for (x, y) in [(&base_p, &base), (&avg_p, &avg)] {
                prop_assert_eq!(x.window, y.window);
                prop_assert_eq!(x.n_times(), y.n_times());
                for (rx, ry) in x.rows().zip(y.rows()) {
                    for (vx, vy) in rx.iter().zip(ry) {
                        prop_assert_eq!(vx.to_bits(), vy.to_bits(),
                            "threads={} differs from serial", threads);
                    }
                }
            }
        }
    }

    #[test]
    fn averaging_matrices_is_bit_identical_to_serial(
        a in snapshot_series(16, 6),
        b in snapshot_series(16, 6),
    ) {
        let m1 = base_matrix(&a, &b, 3, &Pool::serial());
        let m2 = base_matrix(&b, &a, 3, &Pool::serial());
        let serial = AlignmentMatrix::average_with(&[&m1, &m2], &Pool::serial());
        for threads in [2usize, 4, 8] {
            let pool = Pool::new(threads, 2);
            let par = AlignmentMatrix::average_with(&[&m1, &m2], &pool);
            for (rx, ry) in par.rows().zip(serial.rows()) {
                for (vx, vy) in rx.iter().zip(ry) {
                    prop_assert_eq!(vx.to_bits(), vy.to_bits());
                }
            }
        }
    }

    #[test]
    fn dp_score_at_least_best_constant_path(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 7..=7),
            3..10,
        ),
    ) {
        let m = AlignmentMatrix::from_rows(3, &rows);
        let path = track_peaks(&m, DpConfig::default());
        // The optimal path must score at least any fixed-lag path (which
        // incurs zero transition cost).
        for l in 0..7usize {
            let fixed: f64 = rows.iter().map(|r| r[l]).sum();
            prop_assert!(path.score >= fixed - 1e-9,
                "DP {} < fixed-lag {} at {l}", path.score, fixed);
        }
        // And the path stays within the lag range.
        for &lag in &path.lags {
            prop_assert!(lag.unsigned_abs() <= 3);
        }
    }

    #[test]
    fn dp_path_trrs_consistency(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 5..=5),
            2..8,
        ),
    ) {
        let m = AlignmentMatrix::from_rows(2, &rows);
        let p = track_peaks(&m, DpConfig::default());
        prop_assert_eq!(p.lags.len(), m.n_times());
        prop_assert!((0.0..=1.0).contains(&p.mean_trrs));
        prop_assert!(p.jumpiness >= 0.0);
    }
}

/// Snapshots carrying 1–3 TX chains each, so TX counts are ragged
/// across the series (the TRRS truncates to the common prefix).
fn ragged_tx_series(max_len: usize, n_sc: usize) -> impl Strategy<Value = Vec<NormSnapshot>> {
    prop::collection::vec(
        prop::collection::vec(cfr_strategy(n_sc), 1..=3),
        0..=max_len,
    )
    .prop_map(|snaps| {
        snaps
            .into_iter()
            .map(|per_tx| NormSnapshot::from_snapshot(&CsiSnapshot { per_tx }))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass movement indicator is the `trrs_massive` definition,
    /// bit for bit: series shorter than the lag, blocks clipped at both
    /// ends, even and odd V, lag 0, and ragged TX counts.
    #[test]
    fn movement_indicator_matches_trrs_massive_bitwise(
        series in ragged_tx_series(40, 6),
        lag in 0usize..12,
        v in 1usize..12,
    ) {
        let config = MovementConfig { lag, virtual_antennas: v, threshold: 0.9 };
        let got = movement_indicator(&series, config);
        prop_assert_eq!(got.len(), series.len());
        for (t, g) in got.iter().enumerate() {
            let want = if t < lag {
                1.0
            } else {
                trrs_massive(&series, &series, t, t - lag, v)
            };
            prop_assert_eq!(g.to_bits(), want.to_bits(), "t={} lag={} v={}", t, lag, v);
        }
    }
}

// --- gap-tolerant streaming --------------------------------------------

const GAP_MAX: usize = 4;

/// Whole-sample loss mask: first sample always present, loss runs capped
/// at `GAP_MAX` so every gap is bridgeable.
fn bridgeable_mask(n: usize, p_lost: f64) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(0.0f64..1.0, n..=n).prop_map(move |draws| {
        let mut mask: Vec<bool> = draws.iter().map(|&x| x < p_lost).collect();
        mask[0] = false;
        let mut run = 0usize;
        for lost in mask.iter_mut() {
            if *lost {
                run += 1;
                if run > GAP_MAX {
                    *lost = false;
                    run = 0;
                }
            } else {
                run = 0;
            }
        }
        mask
    })
}

/// A deterministic two-antenna snapshot derived from a base value.
fn gap_snap(antenna: usize, v: f64) -> CsiSnapshot {
    CsiSnapshot {
        per_tx: vec![(0..4)
            .map(|s| Complex64::new(v + (antenna * 10 + s) as f64, v * 0.5 - s as f64))
            .collect()],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gap_filter_matches_batch_interpolation(
        values in prop::collection::vec(-8.0f64..8.0, 24..=40),
        mask_draws in prop::collection::vec(0.0f64..1.0, 40..=40),
    ) {
        let n = values.len();
        let mut mask: Vec<bool> = mask_draws[..n].iter().map(|&x| x < 0.35).collect();
        mask[0] = false;
        let mut run = 0usize;
        for lost in mask.iter_mut() {
            if *lost {
                run += 1;
                if run > GAP_MAX { *lost = false; run = 0; }
            } else { run = 0; }
        }

        // Stream the surviving samples through the gap filter.
        let mut filter = GapFilter::new(2, GAP_MAX);
        let mut delivered = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if mask[i] { continue; }
            match filter.offer(
                i as u64,
                &[Some(gap_snap(0, v)), Some(gap_snap(1, v))],
            ) {
                GapOutcome::Deliver(samples) => delivered.extend(samples),
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
        }

        // Batch reference: interpolate each antenna/subcarrier series with
        // `fill_gaps_complex` over the same holes.
        let last = (0..n).rev().find(|&i| !mask[i]).unwrap();
        prop_assert_eq!(delivered.len(), last + 1, "every bridgeable sample delivered");
        for antenna in 0..2usize {
            for sc in 0..4usize {
                let series: Vec<Option<Complex64>> = (0..n)
                    .map(|i| (!mask[i]).then(|| gap_snap(antenna, values[i]).per_tx[0][sc]))
                    .collect();
                let batch = fill_gaps_complex(&series).expect("interpolable");
                for (i, sample) in delivered.iter().enumerate() {
                    let streamed = sample.snapshots[antenna].per_tx[0][sc];
                    prop_assert_eq!(
                        streamed.re.to_bits(), batch[i].re.to_bits(),
                        "antenna {} sc {} sample {} re", antenna, sc, i
                    );
                    prop_assert_eq!(
                        streamed.im.to_bits(), batch[i].im.to_bits(),
                        "antenna {} sc {} sample {} im", antenna, sc, i
                    );
                    prop_assert_eq!(sample.interpolated, mask[i]);
                }
            }
        }
    }

    #[test]
    fn gap_filter_duplicates_and_reorders_are_idempotent(
        values in prop::collection::vec(-8.0f64..8.0, 16..=24),
        inject in prop::collection::vec(0u8..4, 24..=24),
    ) {
        let feed = |with_noise: bool| -> Vec<(u64, bool)> {
            let mut filter = GapFilter::new(1, GAP_MAX);
            let mut out = Vec::new();
            for (i, &v) in values.iter().enumerate() {
                match filter.offer(i as u64, &[Some(gap_snap(0, v))]) {
                    GapOutcome::Deliver(samples) => {
                        out.extend(samples.iter().map(|s| (s.seq, s.interpolated)));
                    }
                    other => panic!("unexpected outcome {other:?}"),
                }
                if !with_noise {
                    continue;
                }
                // Duplicates of the current seq and stale re-sends of
                // older seqs must be dropped without disturbing state.
                match inject[i] {
                    1 => {
                        let o = filter.offer(i as u64, &[Some(gap_snap(0, v + 1.0))]);
                        assert!(matches!(o, GapOutcome::Dropped(_)), "{o:?}");
                    }
                    2 if i >= 3 => {
                        let o = filter.offer(i as u64 - 3, &[Some(gap_snap(0, v - 1.0))]);
                        assert!(matches!(o, GapOutcome::Dropped(_)), "{o:?}");
                    }
                    _ => {}
                }
            }
            out
        };
        prop_assert_eq!(feed(false), feed(true));
    }
}

/// A shared CSI recording for the serial/parallel streaming comparison:
/// simulating the channel once keeps the property affordable.
fn shared_walk() -> &'static Vec<Vec<CsiSnapshot>> {
    static WALK: OnceLock<Vec<Vec<CsiSnapshot>>> = OnceLock::new();
    WALK.get_or_init(|| {
        use rim_channel::trajectory::{line, OrientationMode};
        use rim_channel::ChannelSimulator;
        let fs = 100.0;
        let sim = ChannelSimulator::open_lab(7);
        let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let dense = rim_csi::CsiRecorder::new(
            &sim,
            rim_csi::DeviceConfig::single_nic(geometry.offsets().to_vec()),
            rim_csi::RecorderConfig::default(),
        )
        .record(&line(
            rim_dsp::geom::Point2::new(0.0, 2.0),
            0.0,
            1.2,
            1.0,
            fs,
            OrientationMode::Fixed(0.0),
        ))
        .interpolated()
        .expect("interpolable");
        (0..dense.n_samples())
            .map(|i| dense.antennas.iter().map(|a| a[i].clone()).collect())
            .collect()
    })
}

/// A bursty Gilbert–Elliott-style loss mask: a two-state chain with a
/// sticky bad state, burst lengths still capped at `GAP_MAX` so every
/// gap is bridgeable.
fn ge_mask(n: usize) -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(0.0f64..1.0, n..=n).prop_map(move |draws| {
        let mut mask = vec![false; n];
        let mut bad = false;
        let mut run = 0usize;
        for (i, &x) in draws.iter().enumerate() {
            bad = if bad { x < 0.7 } else { x < 0.05 };
            let mut lost = bad && i > 0;
            if lost {
                run += 1;
                if run > GAP_MAX {
                    lost = false;
                    run = 0;
                    bad = false;
                }
            } else {
                run = 0;
            }
            mask[i] = lost;
        }
        mask
    })
}

/// One of the three loss models the incremental engine must be
/// bit-identical under: lossless, iid 10%, and bursty (Gilbert–Elliott).
fn loss_mask(n: usize) -> impl Strategy<Value = Vec<bool>> {
    (0usize..3, bridgeable_mask(n, 0.1), ge_mask(n)).prop_map(move |(model, iid, ge)| match model {
        0 => vec![false; n],
        1 => iid,
        _ => ge,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn streaming_with_gaps_is_bit_identical_across_thread_counts(
        mask in bridgeable_mask(120, 0.2),
    ) {
        let walk = shared_walk();
        let fs = 100.0;
        let run = |threads: usize| {
            let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
            let config = RimConfig::for_sample_rate(fs)
                .with_threads(threads);
            let mut stream = RimStream::new(geometry, config).expect("valid config");
            let mut segments = Vec::new();
            let mut degraded = 0usize;
            let mut absorb = |events: Vec<StreamEvent>| {
                for e in events {
                    match e {
                        StreamEvent::Segment(s) => segments.push(s),
                        StreamEvent::Degraded { .. } => degraded += 1,
                        _ => {}
                    }
                }
            };
            for (i, snaps) in walk.iter().enumerate() {
                if *mask.get(i).unwrap_or(&false) {
                    continue;
                }
                let antennas: Vec<_> = snaps.iter().cloned().map(Some).collect();
                absorb(stream.ingest((i as u64, antennas)).expect("ingest"));
            }
            absorb(stream.finish());
            (segments, degraded)
        };
        let (serial, serial_degraded) = run(1);
        let (parallel, parallel_degraded) = run(4);
        prop_assert_eq!(serial.len(), parallel.len());
        prop_assert_eq!(serial_degraded, parallel_degraded);
        for (a, b) in serial.iter().zip(&parallel) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
            prop_assert_eq!(a.distance_m.to_bits(), b.distance_m.to_bits());
            prop_assert_eq!(
                a.confidence.peak_margin.to_bits(),
                b.confidence.peak_margin.to_bits()
            );
            prop_assert_eq!(
                a.confidence.interpolated_fraction.to_bits(),
                b.confidence.interpolated_fraction.to_bits()
            );
            prop_assert_eq!(
                a.confidence.alignment_coverage.to_bits(),
                b.confidence.alignment_coverage.to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The tentpole invariant: reusing the incrementally built columns at
    /// segment flush must leave the final estimates bit-identical to the
    /// batch path, for every loss model and thread count.
    #[test]
    fn incremental_final_estimates_match_batch_bitwise(
        mask in loss_mask(120),
    ) {
        let walk = shared_walk();
        let fs = 100.0;
        let run = |threads: usize, incremental: bool| {
            let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
            let mut config = RimConfig::for_sample_rate(fs)
                .with_threads(threads);
            config.incremental = incremental;
            if !incremental {
                config.provisional_every = 0;
            }
            let mut stream = RimStream::new(geometry, config).expect("valid config");
            let mut segments = Vec::new();
            let mut absorb = |events: Vec<StreamEvent>| {
                for e in events {
                    if let StreamEvent::Segment(s) = e {
                        segments.push(s);
                    }
                }
            };
            for (i, snaps) in walk.iter().enumerate() {
                if *mask.get(i).unwrap_or(&false) {
                    continue;
                }
                let antennas: Vec<_> = snaps.iter().cloned().map(Some).collect();
                absorb(stream.ingest((i as u64, antennas)).expect("ingest"));
            }
            absorb(stream.finish());
            segments
        };
        let reference = run(1, false);
        for threads in [1usize, 2, 4, 8] {
            let inc = run(threads, true);
            prop_assert_eq!(reference.len(), inc.len(), "threads={}", threads);
            for (a, b) in reference.iter().zip(&inc) {
                prop_assert_eq!(a.start, b.start);
                prop_assert_eq!(a.end, b.end);
                prop_assert_eq!(a.kind, b.kind);
                prop_assert_eq!(
                    a.distance_m.to_bits(), b.distance_m.to_bits(),
                    "threads={} distance", threads
                );
                prop_assert_eq!(
                    a.heading_device.map(f64::to_bits),
                    b.heading_device.map(f64::to_bits)
                );
                prop_assert_eq!(a.rotation_rad.to_bits(), b.rotation_rad.to_bits());
                prop_assert_eq!(
                    a.confidence.peak_margin.to_bits(),
                    b.confidence.peak_margin.to_bits()
                );
                prop_assert_eq!(
                    a.confidence.interpolated_fraction.to_bits(),
                    b.confidence.interpolated_fraction.to_bits()
                );
                prop_assert_eq!(
                    a.confidence.alignment_coverage.to_bits(),
                    b.confidence.alignment_coverage.to_bits()
                );
            }
        }
    }

    /// Provisional estimates are a running prefix of the motion: within
    /// one movement their reported distance never decreases, under every
    /// loss model.
    #[test]
    fn provisional_distances_monotone_within_motion(
        mask in loss_mask(120),
    ) {
        let walk = shared_walk();
        let fs = 100.0;
        let geometry = ArrayGeometry::linear(3, HALF_WAVELENGTH);
        let mut config = RimConfig::for_sample_rate(fs);
        config.provisional_every = 5;
        let mut stream = RimStream::new(geometry, config).expect("valid config");
        let mut all_events = Vec::new();
        for (i, snaps) in walk.iter().enumerate() {
            if *mask.get(i).unwrap_or(&false) {
                continue;
            }
            let antennas: Vec<_> = snaps.iter().cloned().map(Some).collect();
            all_events.extend(stream.ingest((i as u64, antennas)).expect("ingest"));
        }
        all_events.extend(stream.finish());
        let mut last: Option<f64> = None;
        let mut provisionals = 0usize;
        for e in all_events {
            match e {
                StreamEvent::Provisional { distance_so_far, .. } => {
                    prop_assert!(distance_so_far.is_finite());
                    if let Some(prev) = last {
                        prop_assert!(
                            distance_so_far >= prev,
                            "provisional went backwards: {} after {}",
                            distance_so_far,
                            prev
                        );
                    }
                    last = Some(distance_so_far);
                    provisionals += 1;
                }
                StreamEvent::MovementStopped { .. } => last = None,
                _ => {}
            }
        }
        prop_assert!(provisionals > 0, "the walk's motion emits provisionals");
    }
}
