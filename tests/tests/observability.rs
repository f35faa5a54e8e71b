//! Observability integration: the instrumented pipeline must report every
//! stage, round-trip its report through JSON, and leave the estimates
//! untouched whether probed by a recorder or by the no-op probe.

use rim_array::ArrayGeometry;
use rim_channel::trajectory::{line, OrientationMode};
use rim_channel::ChannelSimulator;
use rim_core::{Rim, RimConfig};
use rim_csi::{CsiRecorder, DeviceConfig, RecorderConfig};
use rim_dsp::geom::Point2;
use rim_integration_tests::{FS, SPACING};
use rim_obs::{serve_metric, stage, NullProbe, Recorder, RunReport, WindowSnapshot};

fn small_run() -> (Rim, rim_csi::recorder::DenseCsi) {
    let sim = ChannelSimulator::open_lab(7);
    let geo = ArrayGeometry::linear(3, SPACING);
    let traj = line(
        Point2::new(0.0, 2.0),
        0.0,
        0.8,
        1.0,
        FS,
        OrientationMode::FollowPath,
    );
    let dense = CsiRecorder::new(
        &sim,
        DeviceConfig::single_nic(geo.offsets().to_vec()),
        RecorderConfig {
            sanitize: true,
            seed: 7,
        },
    )
    .record(&traj)
    .interpolated()
    .expect("interpolable");
    (
        Rim::new(geo, RimConfig::for_sample_rate(FS)).expect("valid config"),
        dense,
    )
}

#[test]
fn run_report_covers_every_stage_and_round_trips() {
    let (rim, dense) = small_run();
    let recorder = Recorder::new();
    rim.session()
        .probe(&recorder)
        .analyze(&dense)
        .expect("analyzable");
    let report = recorder.report();

    for name in stage::PIPELINE {
        let s = report
            .stage(name)
            .unwrap_or_else(|| panic!("stage {name} missing"));
        assert!(s.calls >= 1, "{name} called");
        assert!(s.total_ms >= 0.0);
    }
    // Stage-specific content the instrumentation promises.
    let md = report.stage(stage::MOVEMENT_DETECTION).unwrap();
    assert_eq!(
        md.counters
            .iter()
            .find(|(k, _)| k == "samples")
            .map(|(_, v)| *v),
        Some(dense.n_samples() as u64)
    );
    let post = report.stage(stage::POST_DETECTION).unwrap();
    assert!(
        post.distributions
            .iter()
            .any(|d| d.name == "ridge_prominence"),
        "ridge prominence distribution recorded"
    );

    // Golden JSON round-trip: parse(to_json) reproduces the report.
    let json = report.to_json();
    let parsed = RunReport::from_json(&json).expect("valid report JSON");
    assert_eq!(parsed, report);
}

/// Golden fixtures, committed under `tests/fixtures/`: a v2 `RunReport`
/// covering the serve and incremental stages (with the µs latency
/// distribution and p99/p999 tails — the v1 ms alias is gone) and a
/// v1 windowed snapshot. Parsing and re-serialising must be lossless,
/// so schema drift has to regenerate the fixtures — a reviewable diff.
#[test]
fn golden_fixtures_cover_serve_and_incremental_stages() {
    let fixture = include_str!("../fixtures/run_report_v2.json");
    let report = RunReport::from_json(fixture).expect("report fixture parses");
    for name in [
        stage::SERVE,
        stage::INCREMENTAL,
        stage::STREAM,
        stage::LATENCY_ATTRIBUTION,
    ] {
        assert!(report.stage(name).is_some(), "{name} missing from fixture");
    }
    let serve = report.stage(stage::SERVE).unwrap();
    let us = serve
        .distributions
        .iter()
        .find(|d| d.name == serve_metric::INGEST_TO_ESTIMATE_US)
        .expect("µs latency distribution present");
    assert!(
        !serve
            .distributions
            .iter()
            .any(|d| d.name == "ingest_to_estimate_ms"),
        "the v1 ms alias was removed in the 0.5 sweep and must stay gone"
    );
    assert!(us.p50 <= us.p99 && us.p99 <= us.p999 && us.p999 <= us.max);
    let reparsed = RunReport::from_json(&report.to_json()).expect("round-trip");
    assert_eq!(reparsed, report);

    let fixture = include_str!("../fixtures/window_snapshot_v1.json");
    let snap = WindowSnapshot::from_json(fixture).expect("window fixture parses");
    assert!(snap.span_s > 0.0);
    assert!(
        snap.stage(stage::SERVE).is_some() && snap.stage(stage::INCREMENTAL).is_some(),
        "window fixture covers serve and incremental"
    );
    let reparsed = WindowSnapshot::from_json(&snap.to_json()).expect("round-trip");
    assert_eq!(reparsed, snap);
}

#[test]
fn null_probe_matches_unprobed_analysis_exactly() {
    let (rim, dense) = small_run();
    let plain = rim.analyze(&dense).unwrap();
    let probed = rim.session().probe(&NullProbe).analyze(&dense).unwrap();
    let recorded = {
        let recorder = Recorder::new();
        rim.session().probe(&recorder).analyze(&dense).unwrap()
    };
    // Instrumentation must be purely observational: identical estimates
    // with the no-op probe and with a live recorder.
    for est in [&probed, &recorded] {
        assert_eq!(est.total_distance(), plain.total_distance());
        assert_eq!(est.segments.len(), plain.segments.len());
        assert_eq!(est.moving, plain.moving);
    }
    // The disabled probe stays zero-sized — the generic pipeline carries
    // no recorder state in that instantiation.
    assert_eq!(std::mem::size_of::<NullProbe>(), 0);
}
