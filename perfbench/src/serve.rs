//! `serve_fleet`: several tenants served over loopback TCP by one
//! `Server` with default `ServeConfig` settings. An open-loop generator
//! replays a `cots3` CSI trace plus IMU batches per session at the
//! trace's real sample rate, on a send schedule fixed before the run
//! starts, over at most `nproc` connections and threads. Each estimate is
//! timed from when the input behind it was due to be sent.

use crate::inputs::{fused_error, imu_batch, mix, Scenario, COTS3};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{fingerprint, push_dist, push_summary, segment_bits, Outcome, Run};
use rim_core::{ImuSample, Rim, RimStream, StreamEvent, StreamEventKind, StreamInput};
use rim_csi::sync::SyncedSample;
use rim_obs::{attribution_metric, reactor_metric, serve_metric, stage, DistributionReport};
use rim_serve::{Admit, Client, ServeConfig, Server, SessionManager};
use rim_tracking::{FusedStream, Fuser};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent sessions: about half of what two cores sustain closed loop.
const SESSIONS: usize = 4;

/// Generator threads, each with one connection. One is enough for the
/// offered load (its round trips keep it busy a fifth of the time) and
/// leaves the server the box's cores.
const CONNECTIONS: usize = 1;

/// IMU samples per batch (a batch every 20 ms at 200 Hz).
const IMU_BATCH: usize = 4;

/// Seeded jitter on each session's start, seconds.
const MAX_JITTER_S: f64 = 0.2;

/// Session ids: slot × this + round.
const ROUND_STRIDE: u64 = 1000;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Due time from the run's start.
    due: Duration,
    slot: usize,
    round: usize,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Csi(usize),
    Imu(usize, usize),
    /// Ends the session; `true` when it ran its whole trace.
    Finish(bool),
}

/// Shared, read-only inputs of every generator thread.
struct Plan {
    samples: Vec<SyncedSample>,
    imu: Vec<rim_sensors::ImuRecording>,
    phase_s: Vec<f64>,
    fs: f64,
    round_s: f64,
    traj: rim_channel::trajectory::Trajectory,
}

impl Plan {
    fn due(&self, slot: usize, round: usize, i: usize) -> Duration {
        Duration::from_secs_f64(
            self.phase_s[slot] + round as f64 * self.round_s + i as f64 / self.fs,
        )
    }

    /// The fixed send schedule of one generator thread's slots.
    fn schedule(&self, slots: &[usize], seconds: f64) -> Vec<Req> {
        let n = self.samples.len();
        let end = Duration::from_secs_f64(seconds);
        let mut reqs = Vec::new();
        for &slot in slots {
            let mut round = 0;
            'rounds: loop {
                for i in 0..n {
                    let due = self.due(slot, round, i);
                    if due >= end {
                        reqs.push(Req {
                            due: end,
                            slot,
                            round,
                            kind: Kind::Finish(false),
                        });
                        break 'rounds;
                    }
                    reqs.push(Req {
                        due,
                        slot,
                        round,
                        kind: Kind::Csi(i),
                    });
                    if (i + 1) % IMU_BATCH == 0 {
                        reqs.push(Req {
                            due,
                            slot,
                            round,
                            kind: Kind::Imu(i + 1 - IMU_BATCH, i + 1),
                        });
                    }
                }
                reqs.push(Req {
                    due: self.due(slot, round, n),
                    slot,
                    round,
                    kind: Kind::Finish(true),
                });
                round += 1;
            }
        }
        reqs.sort_by_key(|r| r.due);
        reqs
    }

    fn imu_input(&self, slot: usize, from: usize, to: usize) -> Vec<ImuSample> {
        imu_batch(&self.imu[slot], from, to)
    }
}

/// What the client saw of one session.
#[derive(Default)]
struct SessionLog {
    slot: usize,
    /// Admitted inputs in send order.
    admitted: Vec<Kind>,
    /// Estimates received: segments, provisionals, fused.
    counts: [usize; 3],
    segment_bits: Vec<u64>,
    /// Fused position error against ground truth, per fused estimate.
    errors: Vec<f64>,
    completed: bool,
}

/// Samples gathered by one generator thread.
#[derive(Default)]
struct GenResult {
    sessions: Vec<SessionLog>,
    est_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    refused: u64,
    sent: u64,
    columns_built: u64,
}

pub fn run(scenarios: &[Scenario], run: &Run) -> Result<Outcome, String> {
    let scen = scenarios.first().ok_or("serve_fleet has no scenario")?;
    let samples = rim_csi::synced_from_recording(&scen.recording);
    let round_s = samples.len() as f64 / COTS3.fs;
    let plan = Arc::new(Plan {
        round_s,
        samples,
        imu: (0..SESSIONS)
            .map(|s| scen.imu(mix(run.seed, 10 + s as u64)))
            .collect(),
        // Tenants are independent: their starts are spread evenly over
        // one trace, each nudged by a seeded jitter, so segment flushes
        // do not all land on the same scheduler tick.
        phase_s: (0..SESSIONS)
            .map(|s| {
                let jitter = (mix(run.seed, 20 + s as u64) % 1000) as f64 / 1000.0 * MAX_JITTER_S;
                s as f64 * round_s / SESSIONS as f64 + jitter
            })
            .collect(),
        fs: COTS3.fs,
        traj: scen.traj.clone(),
    });
    let fuser = crate::inputs::fuser(scen.traj.pose(0))?;
    let threads = CONNECTIONS;

    let baseline = crate::heap::reset_peak();

    let mut out = Outcome::default();
    let seconds = run.budget(false).as_secs_f64();
    let (manager, mut server) = engine(&fuser, ServeConfig::default())?;
    let wall = Instant::now();
    let mut results = generate(&plan, &manager, server.local_addr(), threads, seconds, None)?;
    let wall = wall.elapsed();
    server.shutdown();
    drop(manager);

    let errors = check(&plan, &fuser, &mut results, &mut out)?;
    if errors.is_empty() && !run.trace {
        return Err("serve_fleet: no session ran its whole trace; raise --seconds".into());
    }
    out.memory(crate::heap::peak_mb() - baseline);
    let admitted_csi: usize = results
        .iter()
        .flat_map(|r| &r.sessions)
        .map(|s| {
            s.admitted
                .iter()
                .filter(|k| matches!(k, Kind::Csi(_)))
                .count()
        })
        .sum();
    let mut est: Vec<f64> = results
        .iter()
        .flat_map(|r| r.est_ms.iter().copied())
        .collect();
    let mut late: Vec<f64> = results
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    let xrt = admitted_csi as f64 / plan.fs / wall.as_secs_f64();
    out.put("xrt", xrt);
    out.put("p50_ms", crate::stats::median(&mut est.clone()));
    let mut sorted = est.clone();
    let pct = |p: f64, v: &mut Vec<f64>| crate::stats::percentile(v, p).unwrap_or(f64::NAN);
    out.note(format!(
        "estimate latency, ms: p90 {:.3}, p95 {:.3}, p99 {:.3} (n={})",
        pct(90.0, &mut sorted),
        pct(95.0, &mut sorted),
        pct(99.0, &mut sorted),
        sorted.len()
    ));
    // The short untraced phase of a traced run only feeds the overhead.
    if !run.trace {
        let n = est.len();
        let tail = crate::stats::percentile(&mut est, crate::TAIL_PCT).ok_or_else(|| {
            format!(
                "serve_fleet: n={n} estimates cannot support a p{}",
                crate::TAIL_PCT
            )
        })?;
        out.put("tail_ms", tail);
    }
    let mut errors = errors;
    out.put("err_m", crate::stats::median(&mut errors));
    out.note(format!(
        "untraced: {} requests, {} refused, {} estimates timed, {} whole sessions",
        results.iter().map(|r| r.sent).sum::<u64>(),
        results.iter().map(|r| r.refused).sum::<u64>(),
        est.len(),
        errors.len()
    ));
    if let Some(s) = crate::stats::summarize(&mut late) {
        out.note(format!("generator lateness (untraced), ms: {s}"));
        if crate::stats::percentile(&mut late, 99.0).is_some_and(|p99| p99 > 5.0) {
            out.note("WARNING: the open-loop generator fell behind its schedule".into());
        }
    }

    if run.trace {
        let cfg = ServeConfig::builder()
            .trace_every(1)
            .build()
            .map_err(|e| e.to_string())?;
        let (manager, mut server) = engine(&fuser, cfg)?;
        let depth = Arc::clone(&manager);
        let sampler = crate::Sampler::start(move || depth.queue_depth());
        let mut tracer = Tracer::new(true, Instant::now());
        let wall = Instant::now();
        let seconds = run.budget(true).as_secs_f64();
        let mut traced = generate(
            &plan,
            &manager,
            server.local_addr(),
            threads,
            seconds,
            Some(&mut tracer),
        )?;
        let wall = wall.elapsed();
        let depth_max = sampler.stop();
        server.shutdown();
        check(&plan, &fuser, &mut traced, &mut out)?;
        out.note(format!(
            "traced: {} requests, {} refused, {} estimates timed",
            traced.iter().map(|r| r.sent).sum::<u64>(),
            traced.iter().map(|r| r.refused).sum::<u64>(),
            traced.iter().map(|r| r.est_ms.len()).sum::<usize>(),
        ));
        let mut est: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.est_ms.iter().copied())
            .collect();
        let admitted_csi: usize = traced
            .iter()
            .flat_map(|r| &r.sessions)
            .map(|s| {
                s.admitted
                    .iter()
                    .filter(|k| matches!(k, Kind::Csi(_)))
                    .count()
            })
            .sum();
        out.traced = Some(crate::Traced {
            xrt: admitted_csi as f64 / plan.fs / wall.as_secs_f64(),
            p50_ms: crate::stats::median(&mut est),
        });
        let mut rtt: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.rtt_us.iter().copied())
            .collect();
        let mut late: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.late_ms.iter().copied())
            .collect();
        push_dist(&mut out, "serve.rtt_us", &mut rtt);
        push_dist(&mut out, "gen.late_ms", &mut late);
        let mut latencies = manager.take_latencies();
        push_dist(&mut out, "serve.ingest_to_estimate_us", &mut latencies);
        let report = manager.report();
        let attribution = report.stage(stage::LATENCY_ATTRIBUTION);
        let dist =
            |name: &str| attribution.and_then(|s| s.distributions.iter().find(|d| d.name == name));
        for (metric, name) in [
            ("serve.queue_wait_us", attribution_metric::QUEUE_WAIT_US),
            (
                "serve.batch_schedule_us",
                attribution_metric::BATCH_SCHEDULE_US,
            ),
            ("serve.compute_us", attribution_metric::COMPUTE_US),
            ("serve.flush_us", attribution_metric::FLUSH_US),
            ("serve.wire_us", attribution_metric::WIRE_US),
        ] {
            let summary = dist(name).map(report_summary);
            push_summary(&mut out, metric, summary.as_ref());
        }
        let counter = |st: &str, name: &str| {
            report
                .stage(st)
                .and_then(|s| s.counters.iter().find(|(k, _)| k == name))
                .map_or(0, |c| c.1)
        };
        let batches = counter(stage::SERVE, serve_metric::BATCHES);
        let admitted = counter(stage::SERVE, serve_metric::ADMITTED);
        out.layer("serve.batches", batches as f64);
        out.layer(
            "serve.samples_per_batch",
            admitted as f64 / batches.max(1) as f64,
        );
        out.layer(
            "serve.throttled",
            counter(stage::SERVE, serve_metric::THROTTLED) as f64,
        );
        out.layer(
            "serve.rejected",
            counter(stage::SERVE, serve_metric::REJECTED) as f64,
        );
        out.layer("serve.queue_depth_max", depth_max as f64);
        let frames = counter(stage::REACTOR, reactor_metric::FRAMES_IN);
        out.layer("serve.frames_in", frames as f64);
        out.layer(
            "serve.reactor_wakeups_per_frame",
            counter(stage::REACTOR, reactor_metric::WAKEUPS) as f64 / frames.max(1) as f64,
        );
        let serve_ms = report.stage(stage::SERVE).map_or(0.0, |s| s.total_ms);
        let columns: u64 = traced.iter().map(|r| r.columns_built).sum();
        out.layer("core.trrs_entries_per_s", columns as f64 / (serve_ms / 1e3));
        let pool = manager.pool().stats();
        out.layer(
            "par.busy_frac",
            pool.total_busy_ns() as f64
                / (manager.pool().threads() as f64 * wall.as_nanos() as f64),
        );
        out.layer("par.steals", pool.steals as f64);
        out.finish_trace(tracer, wall * threads as u32, run)?;
    }
    out.note(format!(
        "serve_fleet: {SESSIONS} sessions over {threads} connections, {:.1} s trace at {} Hz, \
         IMU batches of {IMU_BATCH}",
        plan.round_s, plan.fs
    ));
    Ok(out)
}

/// The served engine: a session manager behind a loopback server.
pub fn engine(fuser: &Fuser, cfg: ServeConfig) -> Result<(Arc<SessionManager>, Server), String> {
    let manager = Arc::new(
        SessionManager::with_fuser(COTS3.geometry(), COTS3.rim_config(), cfg, fuser.clone())
            .map_err(|e| e.to_string())?,
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&manager)).map_err(|e| e.to_string())?;
    Ok((manager, server))
}

/// Summarises an obs distribution from the server's own report the way
/// [`crate::stats::summarize`] does raw samples. The report keeps its
/// percentiles over the first 4096 samples, so a tail counts only those.
fn report_summary(d: &DistributionReport) -> Summary {
    let retained = (d.count as usize).min(4096);
    let tail = [(99.9, d.p999), (99.0, d.p99), (95.0, d.p95)]
        .into_iter()
        .find(|&(pct, _)| crate::stats::supports(retained, pct));
    Summary {
        n: d.count as usize,
        p50: d.p50,
        tail,
    }
}

/// Runs the open-loop generator threads and returns what each saw.
fn generate(
    plan: &Arc<Plan>,
    manager: &Arc<SessionManager>,
    addr: std::net::SocketAddr,
    threads: usize,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Vec<GenResult>, String> {
    let traced = tracer.is_some();
    // The schedule is fixed before the run starts.
    let schedules: Vec<Vec<Req>> = (0..threads)
        .map(|g| {
            let slots: Vec<usize> = (g..SESSIONS).step_by(threads).collect();
            plan.schedule(&slots, seconds)
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let joined: Vec<Result<(GenResult, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                let plan = Arc::clone(plan);
                let manager = Arc::clone(manager);
                scope.spawn(move || drive(&plan, &manager, addr, schedule, t0, traced))
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
    let mut results = Vec::new();
    let mut merged = tracer;
    for r in joined {
        let (result, spans) = r?;
        if let Some(t) = merged.as_deref_mut() {
            t.absorb(spans);
        }
        results.push(result);
    }
    Ok(results)
}

/// One generator thread: sends its schedule over one connection.
fn drive(
    plan: &Plan,
    manager: &SessionManager,
    addr: std::net::SocketAddr,
    schedule: &[Req],
    t0: Instant,
    traced: bool,
) -> Result<(GenResult, Tracer), String> {
    let mut tracer = Tracer::new(traced, t0);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = GenResult::default();
    let mut logs: std::collections::BTreeMap<(usize, usize), SessionLog> = Default::default();
    for (n, req) in schedule.iter().enumerate() {
        let id = (req.slot as u64) * ROUND_STRIDE + req.round as u64;
        // Build the request body before its due time.
        let body = match req.kind {
            Kind::Csi(i) => Some(StreamInput::Synced(plan.samples[i].clone())),
            Kind::Imu(a, b) => Some(StreamInput::Imu(plan.imu_input(req.slot, a, b))),
            Kind::Finish(_) => None,
        };
        if traced && matches!(req.kind, Kind::Finish(_)) {
            let report = manager.session_report(id);
            out.columns_built += report
                .as_ref()
                .and_then(|r| r.stage(stage::INCREMENTAL))
                .and_then(|s| {
                    s.counters
                        .iter()
                        .find(|(k, _)| k == rim_obs::incremental_metric::COLUMNS_BUILT)
                })
                .map_or(0, |c| c.1);
        }
        let due = t0 + req.due;
        let wait = tracer.open("gen.wait", n as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        tracer.close(wait);
        let root = tracer.open("bench.request", n as u64);
        let sent = Instant::now();
        out.late_ms.push((sent - due).as_secs_f64() * 1e3);
        let response = match body {
            Some(StreamInput::Synced(s)) => client.ingest(id, s).map(|(a, e)| (Some(a), e)),
            Some(StreamInput::Imu(b)) => client.ingest_imu(id, b).map(|(a, e)| (Some(a), e)),
            _ => client.finish(id).map(|e| (None, e)),
        };
        let received = Instant::now();
        tracer.record("serve.request", n as u64, sent, received);
        let (admit, events) = response.map_err(|e| format!("session {id}: {e}"))?;
        out.sent += 1;
        out.rtt_us.push((received - sent).as_secs_f64() * 1e6);
        let log = logs
            .entry((req.slot, req.round))
            .or_insert_with(|| SessionLog {
                slot: req.slot,
                ..Default::default()
            });
        match admit {
            Some(Admit::Accepted) => log.admitted.push(req.kind),
            Some(_) => out.refused += 1,
            None => log.completed = matches!(req.kind, Kind::Finish(true)),
        }
        for e in &events {
            match e {
                StreamEvent::Provisional { at, .. } => {
                    log.counts[1] += 1;
                    let due = t0 + plan.due(req.slot, req.round, *at);
                    out.est_ms
                        .push(received.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                StreamEvent::Fused { t_us, position, .. } => {
                    log.counts[2] += 1;
                    let i = (*t_us as f64 * plan.fs / 1e6).round() as usize;
                    let due = t0 + plan.due(req.slot, req.round, i);
                    out.est_ms
                        .push(received.saturating_duration_since(due).as_secs_f64() * 1e3);
                    log.errors
                        .push(fused_error(&plan.traj, plan.fs, *t_us, *position));
                }
                StreamEvent::Segment(s) => {
                    log.counts[0] += 1;
                    log.segment_bits.extend(segment_bits(s));
                }
                _ => {}
            }
        }
        tracer.close(root);
    }
    out.sessions = logs.into_values().collect();
    Ok((out, tracer))
}

/// Checks every session against a standalone fused stream fed the same
/// admitted inputs in the same order, counting refused inputs,
/// undelivered estimates and mismatched segments as failures. Returns
/// the median fused position error of every session that ran its whole
/// trace.
fn check(
    plan: &Plan,
    fuser: &Fuser,
    results: &mut [GenResult],
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let engine = Rim::new(COTS3.geometry(), COTS3.rim_config().with_threads(1))
        .map_err(|e| e.to_string())?;
    let mut errors = Vec::new();
    for r in results.iter() {
        out.attempted += r.sent;
        out.failed += r.refused;
        for log in &r.sessions {
            let mut stream: FusedStream = fuser.stream(RimStream::with_engine(engine.clone()));
            let mut counts = [0usize; 3];
            let mut bits = Vec::new();
            let mut tally = |events: Vec<StreamEvent>| {
                for e in &events {
                    match e.kind() {
                        StreamEventKind::Segment => counts[0] += 1,
                        StreamEventKind::Provisional => counts[1] += 1,
                        StreamEventKind::Fused => counts[2] += 1,
                        _ => {}
                    }
                    if let StreamEvent::Segment(s) = e {
                        bits.extend(segment_bits(s));
                    }
                }
            };
            for kind in &log.admitted {
                let events = match *kind {
                    Kind::Csi(i) => stream.ingest(plan.samples[i].clone()),
                    Kind::Imu(a, b) => stream.ingest(plan.imu_input(log.slot, a, b)),
                    Kind::Finish(_) => continue,
                }
                .map_err(|e| format!("reference ingest: {e}"))?;
                tally(events);
            }
            tally(stream.finish());
            // Estimates the reference produced that never reached the client.
            let expected: usize = counts.iter().sum();
            let received: usize = log.counts.iter().sum();
            out.attempted += expected as u64;
            out.failed += expected.saturating_sub(received) as u64;
            if fingerprint(&bits) != fingerprint(&log.segment_bits) {
                out.failed += 1;
            }
            if log.completed {
                errors.push(crate::stats::median(&mut log.errors.clone()));
            }
        }
    }
    Ok(errors)
}
