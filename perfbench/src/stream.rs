//! `stream_live`: one live device, closed loop on one thread. Raw wide-grid
//! CSI packets are sanitized and pushed through the fused stream one at
//! a time, interleaved with IMU batches, from the start of a short
//! stop-and-go walk under burst loss until the run time is spent (a pass
//! that reaches the end of the walk finishes the stream and starts over).
//!
//! The reference is computed outside timing: the whole walk replayed from
//! the generator's sanitized copy of the same packets, with the same loss
//! pattern and IMU noise. Every ingest call of the measured run must
//! return events bit-identical to the reference's call at that input,
//! and every sanitized packet must match the reference's copy.

use crate::inputs::{imu_batch, mix, Scenario, LIVE_LOSS, WIDE4};
use crate::trace::Tracer;
use crate::{events_print, fingerprint, push_dist, Outcome, Run};
use rim_core::{ImuSample, RimStream, StreamEvent, StreamEventKind, StreamInput};
use rim_csi::frame::CsiSnapshot;
use rim_csi::sanitize::sanitize_snapshot;
use rim_csi::{CsiRecording, LossProcess};
use rim_obs::{stage, stream_metric, Recorder};
use rim_tracking::{FusedStream, Fuser};
use std::time::{Duration, Instant};

/// IMU samples per batch (a batch every 25 ms at 160 Hz).
const IMU_BATCH: usize = 4;

/// One unit of input, in arrival order.
#[derive(Debug, Clone)]
enum Input {
    /// A received CSI packet (its sample index doubles as the broadcast
    /// sequence number).
    Csi(usize),
    /// An IMU batch.
    Imu(Vec<ImuSample>),
}

/// The full-walk reference.
struct Reference {
    /// Event fingerprint of every ingest call, then of `finish`.
    per_input: Vec<u64>,
    /// Fingerprint of every sanitized CSI packet, by input index.
    sanitized: Vec<u64>,
    counts: [usize; 3],
    gap_filled: u64,
    /// Median fused position error over the walk's fused estimates, m.
    error_m: f64,
    zupt: u64,
    rim_updates: u64,
    coast_us: u64,
}

pub fn run(scenarios: &[Scenario], run: &Run) -> Result<Outcome, String> {
    let scen = scenarios.first().ok_or("stream_live has no scenario")?;
    let clean = scen
        .sanitized
        .as_ref()
        .ok_or("stream_live needs a sanitized reference")?;
    let mut loss = LossProcess::new(LIVE_LOSS, mix(run.seed, 1));
    let imu = scen.imu(mix(run.seed, 2));
    let mut inputs = Vec::new();
    for i in 0..scen.recording.n_samples() {
        // A lost broadcast never arrives.
        if !loss.next_lost() {
            inputs.push(Input::Csi(i));
        }
        if (i + 1) % IMU_BATCH == 0 {
            inputs.push(Input::Imu(imu_batch(&imu, i + 1 - IMU_BATCH, i + 1)));
        }
    }
    let fuser = crate::inputs::fuser(scen.traj.pose(0))?;
    let make = || engine(&fuser);
    // The heap high-water is taken over the reference's whole walk: a
    // time-bounded run's peak would depend on how far it got.
    let baseline = crate::heap::reset_peak();
    let reference = reference(make()?, &inputs, clean, scen)?;
    let heap_mb = crate::heap::peak_mb() - baseline;

    let mut out = Outcome::default();
    let live = Live {
        inputs: &inputs,
        raw: &scen.recording,
        indices: WIDE4.indices(),
        reference: &reference,
        make: &make,
    };
    let mut samples = live.measure(run.budget(false), &mut out, None)?;
    out.memory(heap_mb);
    out.put("xrt", samples.xrt());
    out.put("p50_ms", crate::stats::median(&mut samples.csi_ms.clone()));
    if let Some(s) = crate::stats::summarize(&mut samples.csi_ms.clone()) {
        out.note(format!("per-packet latency, ms: {s}"));
    }
    // The short untraced phase of a traced run only feeds the overhead.
    if !run.trace {
        let n = samples.csi_ms.len();
        let tail =
            crate::stats::percentile(&mut samples.csi_ms, crate::TAIL_PCT).ok_or_else(|| {
                format!(
                    "stream_live: n={n} packets cannot support a p{}",
                    crate::TAIL_PCT
                )
            })?;
        out.put("tail_ms", tail);
    }
    out.put("err_m", reference.error_m);

    if run.trace {
        let mut tracer = Tracer::new(true, Instant::now());
        let recorder = Recorder::new();
        let wall = Instant::now();
        let mut traced =
            live.measure(run.budget(true), &mut out, Some((&mut tracer, &recorder)))?;
        let wall = wall.elapsed();
        out.traced = Some(crate::Traced {
            xrt: traced.xrt(),
            p50_ms: crate::stats::median(&mut traced.csi_ms),
        });
        push_dist(&mut out, "csi.sanitize_us", &mut traced.sanitize_us);
        push_dist(&mut out, "core.ingest_us", &mut traced.ingest_us);
        push_dist(&mut out, "core.flush_ms", &mut traced.flush_ms);
        push_dist(&mut out, "tracking.imu_batch_us", &mut traced.imu_us);
        let columns = recorder
            .report()
            .stage(stage::INCREMENTAL)
            .and_then(|s| {
                s.counters
                    .iter()
                    .find(|(k, _)| k == rim_obs::incremental_metric::COLUMNS_BUILT)
            })
            .map_or(0, |c| c.1);
        let ingest_s: f64 = traced.ingest_us.iter().sum::<f64>() / 1e6;
        out.layer("core.trrs_entries_per_s", columns as f64 / ingest_s);
        out.layer("core.segments", reference.counts[0] as f64);
        out.layer("core.provisionals", reference.counts[1] as f64);
        out.layer("core.gap_filled", reference.gap_filled as f64);
        out.layer("tracking.zupt_count", reference.zupt as f64);
        out.layer("tracking.rim_updates", reference.rim_updates as f64);
        out.layer("tracking.coast_s", reference.coast_us as f64 / 1e6);
        out.finish_trace(tracer, wall, run)?;
    }
    out.note(format!(
        "stream_live: {} inputs over {:.1} s of walk; {} inputs measured ({:.1} s of input); \
         full-walk reference: {} segments, {} provisionals, median fused error {:.3} m",
        inputs.len(),
        scen.duration_s(),
        samples.inputs,
        samples.input_s,
        reference.counts[0],
        reference.counts[1],
        reference.error_m
    ));
    Ok(out)
}

/// The live engine: a fused stream over the wide device.
pub fn engine(fuser: &Fuser) -> Result<FusedStream, String> {
    let rim = RimStream::new(WIDE4.geometry(), WIDE4.rim_config()).map_err(|e| e.to_string())?;
    Ok(fuser.stream(rim))
}

/// Replays the whole walk from the sanitized copy, untimed.
fn reference(
    mut stream: FusedStream,
    inputs: &[Input],
    clean: &CsiRecording,
    scen: &Scenario,
) -> Result<Reference, String> {
    let recorder = Recorder::new();
    let mut per_input = Vec::with_capacity(inputs.len() + 1);
    let mut sanitized = Vec::with_capacity(inputs.len());
    let mut counts = [0usize; 3];
    let mut errors = Vec::new();
    let fs = clean.sample_rate_hz;
    let mut tally = |events: &[StreamEvent]| {
        for e in events {
            match e.kind() {
                StreamEventKind::Segment => counts[0] += 1,
                StreamEventKind::Provisional => counts[1] += 1,
                StreamEventKind::Fused => counts[2] += 1,
                _ => {}
            }
            if let StreamEvent::Fused { t_us, position, .. } = e {
                errors.push(crate::inputs::fused_error(&scen.traj, fs, *t_us, *position));
            }
        }
    };
    for input in inputs {
        let (events, print) = match input {
            Input::Csi(i) => {
                let antennas = packet(clean, *i);
                let print = antennas_print(&antennas);
                let events = stream
                    .session()
                    .probe(&recorder)
                    .ingest((*i as u64, antennas));
                (events, print)
            }
            Input::Imu(batch) => (stream.session().probe(&recorder).ingest(batch.clone()), 0),
        };
        let events = events.map_err(|e| format!("reference ingest: {e}"))?;
        tally(&events);
        per_input.push(events_print(&events));
        sanitized.push(print);
    }
    let tail = stream.session().probe(&recorder).finish();
    tally(&tail);
    per_input.push(events_print(&tail));
    let gap_filled = recorder
        .report()
        .stage(stage::STREAM)
        .and_then(|s| {
            s.counters
                .iter()
                .find(|(k, _)| k == stream_metric::INTERPOLATED)
        })
        .map_or(0, |c| c.1);
    Ok(Reference {
        per_input,
        sanitized,
        counts,
        gap_filled,
        error_m: crate::stats::median(&mut errors),
        zupt: stream.zupt_count(),
        rim_updates: stream.rim_updates(),
        coast_us: stream.coast_time_us(),
    })
}

/// One packet as received: every antenna's snapshot.
fn packet(recording: &CsiRecording, i: usize) -> Vec<Option<CsiSnapshot>> {
    recording.antennas.iter().map(|a| a[i].clone()).collect()
}

fn antennas_print(antennas: &[Option<CsiSnapshot>]) -> u64 {
    let mut bits = Vec::new();
    for snap in antennas {
        match snap {
            Some(s) => {
                for cfr in &s.per_tx {
                    bits.extend(cfr.iter().flat_map(|h| [h.re.to_bits(), h.im.to_bits()]));
                }
            }
            None => bits.push(u64::MAX),
        }
    }
    fingerprint(&bits)
}

/// Latency samples of one measured phase.
#[derive(Default)]
struct Samples {
    /// Per CSI packet: sanitize + ingest, ms.
    csi_ms: Vec<f64>,
    sanitize_us: Vec<f64>,
    ingest_us: Vec<f64>,
    /// Ingest calls that emitted a segment, ms.
    flush_ms: Vec<f64>,
    imu_us: Vec<f64>,
    busy: Duration,
    input_s: f64,
    inputs: usize,
}

impl Samples {
    fn xrt(&self) -> f64 {
        self.input_s / self.busy.as_secs_f64()
    }
}

/// The measured live path.
struct Live<'a> {
    inputs: &'a [Input],
    raw: &'a CsiRecording,
    indices: Vec<i32>,
    reference: &'a Reference,
    make: &'a dyn Fn() -> Result<FusedStream, String>,
}

impl Live<'_> {
    /// Feeds inputs in order until `budget` is spent, timing every call
    /// and checking it against the reference.
    fn measure(
        &self,
        budget: Duration,
        out: &mut Outcome,
        mut traced: Option<(&mut Tracer, &Recorder)>,
    ) -> Result<Samples, String> {
        let fs = self.raw.sample_rate_hz;
        let mut samples = Samples::default();
        let mut stream = (self.make)()?;
        let mut k = 0usize;
        let mut last_csi = 0usize;
        let start = Instant::now();
        while start.elapsed() < budget || samples.inputs == 0 {
            let req = samples.inputs as u64;
            let events = match &self.inputs[k] {
                Input::Csi(i) => {
                    let mut antennas = packet(self.raw, *i);
                    let root = traced.as_mut().map(|(t, _)| t.open("bench.packet", req));
                    let t0 = Instant::now();
                    for slot in &mut antennas {
                        if let Some(snap) = slot {
                            if sanitize_snapshot(&mut snap.per_tx, &self.indices).is_err() {
                                *slot = None;
                            }
                        }
                    }
                    let t1 = Instant::now();
                    let check = antennas_print(&antennas);
                    let t1c = Instant::now();
                    let input = StreamInput::Sequenced {
                        seq: *i as u64,
                        antennas,
                    };
                    let events = match &mut traced {
                        Some((_, rec)) => stream.session().probe(*rec).ingest(input),
                        None => stream.ingest(input),
                    }
                    .map_err(|e| format!("ingest: {e}"))?;
                    let t2 = Instant::now();
                    if let Some((t, _)) = &mut traced {
                        t.record("csi.sanitize", req, t0, t1);
                        t.record("bench.check", req, t1, t1c);
                        t.record("core.ingest", req, t1c, t2);
                        t.close(root.expect("opened"));
                    }
                    let busy = (t1 - t0) + (t2 - t1c);
                    samples.busy += busy;
                    samples.csi_ms.push(busy.as_secs_f64() * 1e3);
                    samples.sanitize_us.push((t1 - t0).as_secs_f64() * 1e6);
                    samples.ingest_us.push((t2 - t1c).as_secs_f64() * 1e6);
                    if events.iter().any(|e| matches!(e, StreamEvent::Segment(_))) {
                        samples.flush_ms.push((t2 - t1c).as_secs_f64() * 1e3);
                    }
                    if check != self.reference.sanitized[k] {
                        out.failed += 1;
                    }
                    last_csi = *i;
                    events
                }
                Input::Imu(batch) => {
                    let batch = batch.clone();
                    let root = traced.as_mut().map(|(t, _)| t.open("bench.imu", req));
                    let t0 = Instant::now();
                    let events = match &mut traced {
                        Some((_, rec)) => stream.session().probe(*rec).ingest(batch),
                        None => stream.ingest(batch),
                    }
                    .map_err(|e| format!("imu ingest: {e}"))?;
                    let t1 = Instant::now();
                    if let Some((t, _)) = &mut traced {
                        t.record("tracking.imu_batch", req, t0, t1);
                        t.close(root.expect("opened"));
                    }
                    samples.busy += t1 - t0;
                    samples.imu_us.push((t1 - t0).as_secs_f64() * 1e6);
                    events
                }
            };
            out.attempted += 1;
            if events_print(&events) != self.reference.per_input[k] {
                out.failed += 1;
            }
            samples.inputs += 1;
            k += 1;
            if k == self.inputs.len() {
                let tail = stream.finish();
                out.attempted += 1;
                if events_print(&tail) != self.reference.per_input[k] {
                    out.failed += 1;
                }
                samples.input_s += (last_csi + 1) as f64 / fs;
                stream = (self.make)()?;
                k = 0;
                last_csi = 0;
            }
        }
        samples.input_s += if k == 0 {
            0.0
        } else {
            (last_csi + 1) as f64 / fs
        };
        Ok(samples)
    }
}
