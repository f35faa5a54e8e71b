//! `capture_batch`: what `rim analyze` does. Decode stored `.rimc`
//! captures from memory, repair transport loss by interpolation, and run
//! the batch pipeline, capture after capture, in whole passes over the
//! capture set.

use crate::inputs::{mix, Scenario, CAPTURE_LOSS, COTS3};
use crate::trace::Tracer;
use crate::{fingerprint, push_dist, Outcome, Run};
use rim_core::alignment::{base_cross_trrs_range_prec, virtual_average_with};
use rim_core::reckoning::integrate_distance;
use rim_core::{movement_indicator, track_peaks, MotionEstimate, NormSnapshot, Rim};
use rim_obs::{stage, Recorder, RunReport};
use rim_par::Pool;
use std::time::{Duration, Instant};

/// One stored capture as the measured code receives it.
struct Capture {
    bytes: Vec<u8>,
    duration_s: f64,
    truth_m: f64,
    lost: usize,
    samples: usize,
}

/// Per-stage totals from timing the public stage functions, ms.
#[derive(Default)]
struct Stages {
    movement: f64,
    alignment: f64,
    virtual_average: f64,
    dp: f64,
    reckoning: f64,
    trrs_entries: u64,
}

pub fn run(scenarios: &[Scenario], run: &Run) -> Result<Outcome, String> {
    let captures: Vec<Capture> = scenarios
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let lossy = s.recording.degrade(CAPTURE_LOSS, mix(run.seed, k as u64));
            let mut bytes = Vec::new();
            rim_csi::save_recording(&lossy, &mut bytes).map_err(|e| e.to_string())?;
            Ok(Capture {
                bytes,
                duration_s: s.duration_s(),
                truth_m: s.traj.total_distance(),
                lost: lossy.antennas[0].iter().filter(|v| v.is_none()).count(),
                samples: lossy.n_samples(),
            })
        })
        .collect::<Result<_, String>>()?;

    // Reference: a one-thread analysis of every capture, outside timing.
    let geo = COTS3.geometry();
    let cfg = COTS3.rim_config();
    let serial = Rim::new(geo.clone(), cfg.clone().with_threads(1)).map_err(|e| e.to_string())?;
    let reference: Vec<MotionEstimate> = captures
        .iter()
        .map(|c| {
            let dense = rim_csi::load_recording(&c.bytes[..])
                .map_err(|e| e.to_string())?
                .interpolated()
                .ok_or("capture lost every packet")?;
            serial.analyze(&dense).map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
    let ref_prints: Vec<u64> = reference.iter().map(estimate_print).collect();
    let mut errors: Vec<f64> = reference
        .iter()
        .zip(&captures)
        .map(|(e, c)| (e.total_distance() - c.truth_m).abs())
        .collect();

    let baseline = crate::heap::reset_peak();
    let rim = engine()?;

    let mut out = Outcome::default();
    let (passes, _) = measure(&rim, &captures, &ref_prints, run, &mut out, None)?;
    out.memory(crate::heap::peak_mb() - baseline);
    out.put("err_m", crate::stats::median(&mut errors));

    if run.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        let wall = Instant::now();
        let (traced, report) = measure(
            &rim,
            &captures,
            &ref_prints,
            run,
            &mut out,
            Some(&mut tracer),
        )?;
        let wall = wall.elapsed();
        let stages = stage_breakdown(&rim, &captures, &reference)?;
        out.layer("core.movement_ms", stages.movement);
        out.layer("core.alignment_ms", stages.alignment);
        out.layer("core.virtual_average_ms", stages.virtual_average);
        out.layer("core.dp_ms", stages.dp);
        out.layer("core.reckoning_ms", stages.reckoning);
        out.layer(
            "core.trrs_entries_per_s",
            stages.trrs_entries as f64 / (stages.alignment / 1e3),
        );
        // Cross-check against the engine's own stage spans (per pass).
        {
            let span_ms =
                |name: &str| report.stage(name).map_or(0.0, |s| s.total_ms) / traced as f64;
            let spans = span_ms(stage::MOVEMENT_DETECTION)
                + span_ms(stage::ALIGNMENT_BUILD)
                + span_ms(stage::DP_TRACKING)
                + span_ms(stage::RECKONING);
            let timed = stages.movement
                + stages.alignment
                + stages.virtual_average
                + stages.dp
                + stages.reckoning;
            out.layer("core.stage_check", timed / spans);
            out.note(format!(
                "stage cross-check per pass: movement {:.1} vs span {:.1} ms, alignment+average \
                 {:.1} vs span {:.1} ms, dp {:.2} vs span {:.2} ms, reckoning {:.3} vs span {:.3} ms",
                stages.movement,
                span_ms(stage::MOVEMENT_DETECTION),
                stages.alignment + stages.virtual_average,
                span_ms(stage::ALIGNMENT_BUILD),
                stages.dp,
                span_ms(stage::DP_TRACKING),
                stages.reckoning,
                span_ms(stage::RECKONING),
            ));
        }
        let segments: usize = reference.iter().map(|e| e.segments.len()).sum();
        out.layer("core.segments", segments as f64);
        let lost: usize = captures.iter().map(|c| c.lost).sum();
        let samples: usize = captures.iter().map(|c| c.samples).sum();
        out.layer("csi.interpolated_frac", lost as f64 / samples as f64);
        out.finish_trace(tracer, wall, run)?;
        out.note(format!(
            "capture_batch: {} captures per pass, {passes} untraced passes",
            captures.len()
        ));
    }
    Ok(out)
}

/// The engine `rim analyze` builds before its first capture.
pub fn engine() -> Result<Rim, String> {
    Rim::new(COTS3.geometry(), COTS3.rim_config()).map_err(|e| e.to_string())
}

/// Runs whole passes over the capture set until the run time is spent.
/// Returns the number of passes and the engine's stage report. With a
/// tracer, every call into a layer is wrapped in a span and the engine
/// reports its stage spans through a probe, so the traced numbers land
/// in the per-layer metrics.
fn measure(
    rim: &Rim,
    captures: &[Capture],
    ref_prints: &[u64],
    run: &Run,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<(usize, RunReport), String> {
    let budget = run.budget(tracer.is_some());
    let recorder = Recorder::new();
    let mut latency_ms = Vec::new();
    let mut per_capture: Vec<Vec<f64>> = vec![Vec::new(); captures.len()];
    let (mut decode_ms, mut interp_ms, mut analyze_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_xrt = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    let mut req = 0u64;
    while start.elapsed() < budget || passes == 0 {
        let mut input_s = 0.0;
        let mut busy = Duration::ZERO;
        for (k, c) in captures.iter().enumerate() {
            req += 1;
            let root = tracer.as_mut().map(|t| t.open("bench.capture", req));
            let t0 = Instant::now();
            let recording = rim_csi::load_recording(&c.bytes[..]);
            let t1 = Instant::now();
            let dense = recording.as_ref().ok().and_then(|r| r.interpolated());
            let t2 = Instant::now();
            let estimate = dense.as_ref().map(|d| match &tracer {
                Some(_) => rim.session().probe(&recorder).analyze(d),
                None => rim.analyze(d),
            });
            let t3 = Instant::now();
            if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                t.record("csi.decode", req, t0, t1);
                t.record("csi.interpolate", req, t1, t2);
                t.record("core.analyze", req, t2, t3);
                t.close(root);
            }
            busy += t3 - t0;
            input_s += c.duration_s;
            let ms = (t3 - t0).as_secs_f64() * 1e3;
            latency_ms.push(ms);
            per_capture[k].push(ms);
            decode_ms.push((t1 - t0).as_secs_f64() * 1e3);
            interp_ms.push((t2 - t1).as_secs_f64() * 1e3);
            analyze_ms.push((t3 - t2).as_secs_f64() * 1e3);
            out.attempted += 1;
            match estimate {
                Some(Ok(e)) if estimate_print(&e) == ref_prints[k] => {}
                _ => out.failed += 1,
            }
        }
        pass_xrt.push(input_s / busy.as_secs_f64());
        passes += 1;
    }
    // Median over passes, so one disturbed pass does not move the run.
    let xrt = crate::stats::median(&mut pass_xrt);
    let report = recorder.report();
    if tracer.is_some() {
        push_dist(out, "csi.decode_ms", &mut decode_ms);
        push_dist(out, "csi.interpolate_ms", &mut interp_ms);
        push_dist(out, "core.analyze_ms", &mut analyze_ms);
        if let Some(par) = report.stage(stage::PARALLEL) {
            let workers = par
                .gauges
                .iter()
                .find(|(k, _)| k == "workers")
                .map_or(1.0, |g| g.1);
            let busy_ms: f64 = par
                .distributions
                .iter()
                .filter(|d| d.name == "worker_busy_ms")
                .map(|d| d.mean * d.count as f64)
                .sum();
            let steals = par
                .counters
                .iter()
                .find(|(k, _)| k == "steals")
                .map_or(0, |c| c.1);
            let analyze_total: f64 = analyze_ms.iter().sum();
            out.layer("par.busy_frac", busy_ms / (workers * analyze_total));
            out.layer("par.steals", steals as f64 / passes as f64);
        }
        out.traced = Some(crate::Traced {
            xrt,
            p50_ms: crate::stats::median(&mut latency_ms),
        });
        return Ok((passes, report));
    }
    // The slowest capture's median: the batch analogue of a tail.
    let tail = per_capture
        .iter_mut()
        .map(|v| crate::stats::median(v))
        .fold(0.0, f64::max);
    out.put("xrt", xrt);
    out.put("p50_ms", crate::stats::median(&mut latency_ms));
    out.put("tail_ms", tail);
    Ok((passes, report))
}

/// Times the public stage functions on the workload's inputs: movement
/// indicator per antenna, then per estimated segment and per parallel
/// pair the base cross-TRRS matrix, its virtual average, DP peak
/// tracking, and distance integration. Totals over one pass, ms.
///
/// The engine builds matrices only for the pair groups its
/// pre-detection keeps, and its reckoning stage also smooths and bridges
/// speeds, so the alignment total here is an upper bound and the
/// reckoning total a lower one; `core.stage_check` reports the ratio to
/// the engine's own stage spans.
fn stage_breakdown(
    rim: &Rim,
    captures: &[Capture],
    reference: &[MotionEstimate],
) -> Result<Stages, String> {
    let cfg = rim.config();
    let pool = Pool::new(cfg.threads, cfg.tile_columns);
    let groups = rim.geometry().parallel_groups();
    let mut st = Stages::default();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for (c, est) in captures.iter().zip(reference) {
        let dense = rim_csi::load_recording(&c.bytes[..])
            .map_err(|e| e.to_string())?
            .interpolated()
            .ok_or("capture lost every packet")?;
        let series: Vec<Vec<NormSnapshot>> = dense
            .antennas
            .iter()
            .map(|s| NormSnapshot::series(s))
            .collect();
        // Antennas fan out across the pool, as in the engine's stage.
        let t = Instant::now();
        std::hint::black_box(pool.map(&series, |s| movement_indicator(s, cfg.movement)));
        st.movement += ms(t);
        let w = cfg.alignment.window;
        for seg in &est.segments {
            for pg in groups.iter().flatten() {
                let t = Instant::now();
                let base = base_cross_trrs_range_prec(
                    &series[pg.pair.i],
                    &series[pg.pair.j],
                    w,
                    (seg.start, seg.end),
                    &pool,
                    cfg.precision,
                );
                st.alignment += ms(t);
                st.trrs_entries += (base.n_times() * base.n_lags()) as u64;
                let t = Instant::now();
                let avg = virtual_average_with(&base, cfg.alignment.virtual_antennas, &pool);
                st.virtual_average += ms(t);
                let t = Instant::now();
                std::hint::black_box(track_peaks(&avg, cfg.dp));
                st.dp += ms(t);
            }
            let t = Instant::now();
            std::hint::black_box(integrate_distance(
                &est.speed_mps[seg.start..seg.end],
                &est.moving[seg.start..seg.end],
                est.sample_rate_hz,
            ));
            st.reckoning += ms(t);
        }
    }
    Ok(st)
}

/// Bit-exact fingerprint of everything an analysis returns.
fn estimate_print(e: &MotionEstimate) -> u64 {
    let mut bits: Vec<u64> = Vec::new();
    bits.push(e.sample_rate_hz.to_bits());
    bits.extend(e.movement_indicator.iter().map(|v| v.to_bits()));
    bits.extend(e.moving.iter().map(|&m| m as u64));
    bits.extend(e.speed_mps.iter().map(|v| v.to_bits()));
    bits.extend(
        e.heading_device
            .iter()
            .map(|h| h.map_or(u64::MAX, f64::to_bits)),
    );
    bits.extend(e.angular_rate.iter().map(|v| v.to_bits()));
    for s in &e.segments {
        bits.extend(crate::segment_bits(s));
    }
    fingerprint(&bits)
}
