//! The RIM benchmark: one seeded command over three workloads.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload capture_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line is
//! a JSON object holding every end-to-end metric `BENCHMARK.json`
//! declares; with `--trace 1` a traced run follows an untraced one and
//! the line holds every per-layer metric instead. Workloads, metrics and
//! the end-to-end metric each layer metric should move are described in
//! `perfbench/METRICS.md`.

mod capture;
mod heap;
mod inputs;
mod serve;
mod stats;
mod stream;
mod trace;

use rim_core::SegmentEstimate;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The percentile `tail_ms` reports on `stream_live` and `serve_fleet`.
/// A live run holds a few hundred wide-grid packets, too few for a p99;
/// a served run holds about 1,600 estimates, whose p99 on a 2-core box
/// swings with thread wake-up latency by half its value from run to run,
/// too much to gate a change on. Both print their p99 alongside.
pub const TAIL_PCT: f64 = 95.0;

/// Engine set-ups timed per probe process.
const SETUP_REPEATS: usize = 51;

/// Untimed engine set-ups before the timed ones.
const SETUP_WARMUP: usize = 5;

/// Set-up probe processes per run; `setup_s` is the mean of their
/// medians. A set-up takes micro- or nanoseconds, and at that scale one
/// process is consistently faster or slower than the next (where its
/// memory happens to land), so a single process cannot give a steady
/// figure however often it repeats the build.
const SETUP_PROCS: usize = 7;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["capture_batch", "stream_live", "serve_fleet"];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Run {
    /// Time a measured phase may take: the whole run untraced; in a
    /// traced run, 30 % for the untraced phase (the tracing-overhead
    /// baseline) and 70 % for the traced one.
    pub fn budget(&self, traced: bool) -> Duration {
        let share = match (self.trace, traced) {
            (false, _) => 1.0,
            (true, false) => 0.3,
            (true, true) => 0.7,
        };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// End-to-end numbers of the traced phase, for the tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    /// Input seconds per wall second.
    pub xrt: f64,
    /// Median request latency, ms.
    pub p50_ms: f64,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errored calls, throttled or rejected
    /// ingests, estimates never delivered, correctness mismatches.
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    notes: Vec<String>,
    /// End-to-end numbers of the traced phase.
    pub traced: Option<Traced>,
}

impl Outcome {
    /// Sets an end-to-end metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Adds a human-readable report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the heap high-water, MB.
    pub fn memory(&mut self, heap_mb: f64) {
        self.put("peak_heap_mb", heap_mb);
    }

    /// Derives per-layer self times, the accounted share of the traced
    /// wall time and the tracing overhead, and writes the spans out.
    pub fn finish_trace(
        &mut self,
        tracer: trace::Tracer,
        wall: Duration,
        run: &Run,
    ) -> Result<(), String> {
        let root = tracer.root_ns() as f64;
        for (layer, ns) in tracer.self_ns_by_layer() {
            self.layer(&format!("{layer}.self_frac"), ns as f64 / root);
        }
        self.layer("trace.accounted_frac", root / wall.as_nanos() as f64);
        self.layer("trace.spans", tracer.spans().len() as f64);
        if let (Some(t), Some(&p50)) = (self.traced, self.e2e.get("p50_ms")) {
            self.layer("trace.overhead_frac", t.p50_ms / p50 - 1.0);
            let xrt = self.e2e.get("xrt").copied().unwrap_or(f64::NAN);
            self.note(format!(
                "tracing overhead: p50 {p50:.4} -> {:.4} ms, xrt {xrt:.3} -> {:.3}",
                t.p50_ms, t.xrt
            ));
        }
        let dir = inputs::out_dir().join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-{}.tsv", run.workload, run.seed));
        tracer.write_tsv(&path).map_err(|e| e.to_string())?;
        self.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        Ok(())
    }
}

/// Records a latency distribution as `name.p50`, `name.tail`,
/// `name.tail_pct` and `name.n`: the median, the highest percentile the
/// sample supports (see [`stats::summarize`]) and the sample count. A
/// sample too small for any tail reports `tail_pct` 0 and `tail` 0 (no
/// tail, not a latency); an empty sample (a layer this workload does not
/// run) reports n = 0.
pub fn push_dist(out: &mut Outcome, name: &str, samples: &mut [f64]) {
    push_summary(out, name, stats::summarize(samples).as_ref());
}

/// [`push_dist`] for an already summarised distribution.
pub fn push_summary(out: &mut Outcome, name: &str, summary: Option<&stats::Summary>) {
    let (tail_pct, tail) = summary.and_then(|s| s.tail).unwrap_or((0.0, 0.0));
    out.layer(&format!("{name}.n"), summary.map_or(0.0, |s| s.n as f64));
    out.layer(&format!("{name}.p50"), summary.map_or(0.0, |s| s.p50));
    out.layer(&format!("{name}.tail"), tail);
    out.layer(&format!("{name}.tail_pct"), tail_pct);
    if let Some(s) = summary {
        out.note(format!("{name}: {s}"));
    }
}

/// Stable fingerprint of a bit pattern (outputs compare bit for bit).
pub fn fingerprint(bits: &[u64]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bits.hash(&mut h);
    h.finish()
}

/// Every field of a segment estimate, as bits.
pub fn segment_bits(s: &SegmentEstimate) -> [u64; 9] {
    [
        s.start as u64,
        s.end as u64,
        matches!(s.kind, rim_core::SegmentKind::Rotation) as u64,
        s.distance_m.to_bits(),
        s.heading_device.map_or(u64::MAX, f64::to_bits),
        s.rotation_rad.to_bits(),
        s.confidence.peak_margin.to_bits(),
        s.confidence.interpolated_fraction.to_bits(),
        s.confidence.alignment_coverage.to_bits(),
    ]
}

/// Bit-exact fingerprint of a batch of stream events.
pub fn events_print(events: &[rim_core::StreamEvent]) -> u64 {
    use rim_core::StreamEvent as E;
    let mut bits = Vec::new();
    for e in events {
        bits.push(e.kind().wire_tag() as u64);
        match e {
            E::Segment(s) => bits.extend(segment_bits(s)),
            E::Provisional {
                at,
                distance_so_far,
                heading,
                ..
            } => bits.extend([
                *at as u64,
                distance_so_far.to_bits(),
                heading.map_or(u64::MAX, f64::to_bits),
            ]),
            E::Fused {
                t_us,
                position,
                heading,
                velocity,
                ..
            } => bits.extend([
                *t_us,
                position.x.to_bits(),
                position.y.to_bits(),
                heading.to_bits(),
                velocity.to_bits(),
            ]),
            E::MovementStarted { at } | E::MovementStopped { at } | E::Recovered { at } => {
                bits.push(*at as u64)
            }
            E::Degraded { at, .. } => bits.push(*at as u64),
            _ => {}
        }
    }
    fingerprint(&bits)
}

/// Samples a gauge every 10 ms on its own thread and keeps its maximum.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<usize>,
}

impl Sampler {
    /// Starts sampling.
    pub fn start(gauge: impl Fn() -> usize + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(Ordering::Acquire) {
                max = max.max(gauge());
                std::thread::sleep(Duration::from_millis(10));
            }
            max
        });
        Self { stop, handle }
    }

    /// Stops sampling and returns the maximum seen.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("sampler thread panicked")
    }
}

/// `setup_s`: spawns the set-up probe processes and averages their
/// medians, seconds.
fn setup_s(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut medians = Vec::with_capacity(SETUP_PROCS);
    for _ in 0..SETUP_PROCS {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", workload])
            .output()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        medians.push(
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed {text:?}: {e}"))?,
        );
    }
    Ok(medians.iter().sum::<f64>() / medians.len() as f64)
}

/// One set-up probe process: the median of `SETUP_REPEATS` engine builds
/// (what each workload does before its first input), after
/// `SETUP_WARMUP` untimed ones. Engines without threads stay alive until
/// the end, so every build takes fresh memory; servers are shut down
/// between builds, outside the timing.
fn setup_probe(workload: &str) -> Result<f64, String> {
    fn timed<T>(
        keep: bool,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<Vec<f64>, String> {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut alive = Vec::new();
        for rep in 0..SETUP_WARMUP + SETUP_REPEATS {
            let t = std::time::Instant::now();
            let engine = build()?;
            if rep >= SETUP_WARMUP {
                times.push(t.elapsed().as_secs_f64());
            }
            if keep {
                alive.push(engine);
            }
        }
        Ok(times)
    }
    let fuser = inputs::fuser(inputs::START)?;
    let mut times = match workload {
        "capture_batch" => timed(true, capture::engine)?,
        "stream_live" => timed(true, || stream::engine(&fuser))?,
        _ => timed(false, || {
            serve::engine(&fuser, rim_serve::ServeConfig::default())
        })?,
    };
    Ok(stats::median(&mut times))
}

/// Metric names and units one section of `BENCHMARK.json` declares.
fn declared(benchmark: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let key = format!("\"{section}\"");
    let at = benchmark
        .find(&key)
        .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?;
    let body = &benchmark[at..];
    let open = body.find('[').ok_or("malformed BENCHMARK.json")?;
    let close = body.find(']').ok_or("malformed BENCHMARK.json")?;
    let field = |obj: &str, name: &str| -> Option<String> {
        let k = format!("\"{name}\"");
        let rest = &obj[obj.find(&k)? + k.len()..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    body[open + 1..close]
        .split('}')
        .filter(|o| o.contains('{'))
        .map(|o| {
            Ok((
                field(o, "name").ok_or("metric without a name")?,
                field(o, "unit").ok_or("metric without a unit")?,
            ))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks every metric a run produced against the registry and renders
/// the declared section in order. A produced name that is not declared,
/// or does not match `[A-Za-z0-9_.-]+`, fails the run.
fn render(
    produced: &BTreeMap<String, f64>,
    registry: &[(String, String)],
) -> Result<(String, Vec<String>), String> {
    for name in produced.keys() {
        if !valid_name(name) || !registry.iter().any(|(n, _)| n == name) {
            return Err(format!("metric {name:?} is not declared in BENCHMARK.json"));
        }
    }
    let mut json = Vec::new();
    let mut absent = Vec::new();
    for (name, unit) in registry {
        let value = match produced.get(name) {
            Some(v) => *v,
            None => {
                absent.push(name.clone());
                0.0
            }
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
        println!("{name:<36} {value:>24} {unit}");
    }
    Ok((json.join(", "), absent))
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        map.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("{k}: {e}"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Run {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--generate" {
        if let Err(e) = inputs::generate(&args[2]) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.len() == 3 && args[1] == "--setup-probe" {
        match setup_probe(&args[2]) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = real_main() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let run = parse_args()?;
    let benchmark = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let section = if run.trace { "per_layer" } else { "end_to_end" };
    let registry = declared(&benchmark, section)?;

    let scenarios = inputs::load(&run.workload)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = inputs::pool_threads();
    println!(
        "machine: nproc {nproc}, simd tier {:?}, pool threads {pool_threads}",
        rim_simd::active_tier()
    );
    println!(
        "run: workload {} seed {} seconds {} trace {}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );

    let mut out = match run.workload.as_str() {
        "capture_batch" => capture::run(&scenarios, &run)?,
        "stream_live" => stream::run(&scenarios, &run)?,
        _ => serve::run(&scenarios, &run)?,
    };
    if !run.trace {
        out.put("setup_s", setup_s(&run.workload)?);
    }
    for line in &out.notes {
        println!("{line}");
    }
    let produced: BTreeMap<String, f64> = if run.trace {
        out.layers.clone()
    } else {
        out.e2e.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    };
    let (metrics, absent) = render(&produced, &registry)?;
    if run.trace && !absent.is_empty() {
        println!("not run on {}: {}", run.workload, absent.join(" "));
    }
    if !run.trace && !absent.is_empty() {
        return Err(format!("end-to-end metrics not measured: {absent:?}"));
    }
    println!(
        "outcome: workload {} seed {} attempted {} failed {}",
        run.workload, run.seed, out.attempted, out.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_reads_names_and_units_per_section() {
        let doc = r#"{"end_to_end": [{"name": "xrt", "unit": "x", "better": "higher",
            "bound": 0.1}], "per_layer": [{"name": "core.dp_ms", "unit": "ms",
            "better": "lower"}, {"name": "serve.rtt_us.p99", "unit": "us", "better": "lower"}]}"#;
        assert_eq!(
            declared(doc, "end_to_end").unwrap(),
            vec![("xrt".to_string(), "x".to_string())]
        );
        let layers = declared(doc, "per_layer").unwrap();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[1].0, "serve.rtt_us.p99");
    }

    #[test]
    fn undeclared_or_malformed_names_fail_the_run() {
        let registry = vec![("xrt".to_string(), "x".to_string())];
        let mut produced = BTreeMap::new();
        produced.insert("xrt".to_string(), 1.5);
        assert!(render(&produced, &registry).is_ok());
        produced.insert("bad name".to_string(), 1.0);
        assert!(render(&produced, &registry).is_err());
        assert!(!valid_name("a b") && !valid_name("") && valid_name("core.dp_ms-2"));
    }

    #[test]
    fn the_committed_registry_is_well_formed() {
        let doc = include_str!("../../BENCHMARK.json");
        for section in ["end_to_end", "per_layer"] {
            let names = declared(doc, section).unwrap();
            assert!(!names.is_empty());
            for (i, (name, _)) in names.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(
                    names[i + 1..].iter().all(|(n, _)| n != name),
                    "{name} twice"
                );
            }
        }
    }
}
