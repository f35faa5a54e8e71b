//! The sharded session manager and deadline-aware batch scheduler.
//!
//! Admission (`ingest`) is cheap and O(1) beyond the shard lookup: hash
//! the session id to a shard, find or create the session, check the
//! latency-budget predictor (two atomic loads and a multiply), push onto
//! the session's bounded ingress queue. Analysis happens on the
//! scheduler's clock: each [`process`] tick collects every session with
//! pending samples, orders them by the earliest front-of-queue deadline
//! (EDF), and fans them across the shared [`Pool`] as independent tiles —
//! one worker advances one session at a time, so per-session state needs
//! no finer locking and every session's arithmetic is exactly a
//! standalone stream's. A tick with one busy session runs serially on
//! the calling thread.
//!
//! Behind a [`crate::Server`] the clock is the reactors: every reactor
//! wakeup admits what it read, runs one tick, and then answers, so the
//! events an admitted input causes leave on that input's own answer.
//! Called directly, the manager ticks whenever its owner calls
//! [`process`].
//!
//! [`process`]: SessionManager::process

use rim_array::ArrayGeometry;
use rim_core::{Error, ImuSample, Rim, RimConfig, RimStream, StreamEvent, StreamInput};
use rim_csi::sync::SyncedSample;
use rim_obs::{
    serve_metric, stage, Probe, Recorder, RunReport, SpanKind, TraceRecord, Tracer, WindowSnapshot,
};
use rim_par::Pool;
use rim_tracking::{FusedStream, Fuser};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Validated serving-layer configuration. All limits are per process.
///
/// Constructed through [`ServeConfig::builder`] — the one constructor
/// path shared by [`crate::Server::bind`], the CLI's `rim serve`, and
/// self-drive — or [`ServeConfig::default`] for the stock limits.
/// Invalid combinations fail [`ServeConfigBuilder::build`] with
/// [`Error::Config`] instead of being silently clamped.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    shards: usize,
    queue_depth: usize,
    max_sessions: usize,
    idle_evict_ticks: u64,
    retry_after_ms: u64,
    latency_budget_us: u64,
    trace_every: usize,
    metrics_every_ms: u64,
    io_threads: usize,
    write_buf_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_depth: 256,
            max_sessions: 1024,
            idle_evict_ticks: 0,
            retry_after_ms: 5,
            latency_budget_us: 250_000,
            trace_every: 0,
            metrics_every_ms: 0,
            io_threads: 1,
            write_buf_cap: 1 << 20,
        }
    }
}

impl ServeConfig {
    /// Starts a builder seeded with the default limits.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    /// Number of shards the session table is split across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Bounded ingress-queue length per session; a full queue throttles.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Maximum resident sessions before new sessions are rejected.
    pub fn max_sessions(&self) -> usize {
        self.max_sessions
    }

    /// Scheduler ticks of inactivity before eviction (`0` = never).
    /// Behind a [`crate::Server`] a tick is one reactor wakeup: each
    /// reactor wakes for I/O or at least every 5 ms, so with several
    /// [`ServeConfig::io_threads`] the ticks come that many times faster.
    pub fn idle_evict_ticks(&self) -> u64 {
        self.idle_evict_ticks
    }

    /// Retry hint returned with [`Admit::Throttled`], milliseconds.
    pub fn retry_after_ms(&self) -> u64 {
        self.retry_after_ms
    }

    /// Per-sample latency budget, microseconds (`0` = unbounded). Sets
    /// each admitted sample's deadline and arms the admission predictor.
    pub fn latency_budget_us(&self) -> u64 {
        self.latency_budget_us
    }

    /// Per-request trace cadence (`0` = tracing off).
    pub fn trace_every(&self) -> usize {
        self.trace_every
    }

    /// Telemetry digest cadence for self-drive, milliseconds (`0` = off).
    pub fn metrics_every_ms(&self) -> u64 {
        self.metrics_every_ms
    }

    /// Reactor (I/O event loop) threads the server runs.
    pub fn io_threads(&self) -> usize {
        self.io_threads
    }

    /// Per-connection write-queue high watermark, bytes. A connection
    /// whose pending responses exceed this is answered with
    /// [`RejectReason::Backpressure`] until it drains.
    pub fn write_buf_cap(&self) -> usize {
        self.write_buf_cap
    }
}

/// Builder for [`ServeConfig`]. Setters take the builder by value so
/// configuration reads as one chained expression; [`build`] validates
/// the combination.
///
/// [`build`]: ServeConfigBuilder::build
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl Default for ServeConfigBuilder {
    fn default() -> Self {
        ServeConfig::builder()
    }
}

impl ServeConfigBuilder {
    /// Session-table shard count (contention knob; never affects bits).
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards;
        self
    }

    /// Bounded ingress-queue length per session.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.cfg.queue_depth = depth;
        self
    }

    /// Maximum resident sessions.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.cfg.max_sessions = n;
        self
    }

    /// Scheduler ticks of inactivity before eviction (`0` = never);
    /// see [`ServeConfig::idle_evict_ticks`] for what a tick is.
    pub fn idle_evict_ticks(mut self, ticks: u64) -> Self {
        self.cfg.idle_evict_ticks = ticks;
        self
    }

    /// Retry hint returned with [`Admit::Throttled`], milliseconds.
    pub fn retry_after_ms(mut self, ms: u64) -> Self {
        self.cfg.retry_after_ms = ms;
        self
    }

    /// Per-sample latency budget, microseconds (`0` = unbounded).
    pub fn latency_budget_us(mut self, us: u64) -> Self {
        self.cfg.latency_budget_us = us;
        self
    }

    /// Per-request trace cadence: trace every Nth admitted sample end to
    /// end (admission → queue → batch → ingest → flush → wire) into a
    /// bounded [`rim_obs::TraceRecord`] ring. `0` (the default) disables
    /// tracing entirely. Tracing is observational: results are
    /// bit-identical with it on or off.
    pub fn trace_every(mut self, every: usize) -> Self {
        self.cfg.trace_every = every;
        self
    }

    /// Telemetry digest cadence for self-drive, milliseconds (`0` = off).
    pub fn metrics_every_ms(mut self, ms: u64) -> Self {
        self.cfg.metrics_every_ms = ms;
        self
    }

    /// Reactor (I/O event loop) threads the server runs.
    pub fn io_threads(mut self, n: usize) -> Self {
        self.cfg.io_threads = n;
        self
    }

    /// Per-connection write-queue high watermark, bytes.
    pub fn write_buf_cap(mut self, bytes: usize) -> Self {
        self.cfg.write_buf_cap = bytes;
        self
    }

    /// Validates the combination and returns the config.
    ///
    /// # Errors
    /// [`Error::Config`] when a limit is out of range (zero where zero is
    /// meaningless, `io_threads` > 64, `write_buf_cap` < 1024,
    /// `latency_budget_us` in `1..1000`) or the combination is
    /// inconsistent (a retry hint longer than the latency budget would
    /// make every throttled retry blow its deadline).
    pub fn build(self) -> Result<ServeConfig, Error> {
        let c = &self.cfg;
        if c.shards == 0 {
            return Err(Error::Config("serve: shards must be >= 1".into()));
        }
        if c.queue_depth == 0 {
            return Err(Error::Config("serve: queue_depth must be >= 1".into()));
        }
        if c.max_sessions == 0 {
            return Err(Error::Config("serve: max_sessions must be >= 1".into()));
        }
        if c.retry_after_ms == 0 {
            return Err(Error::Config("serve: retry_after_ms must be >= 1".into()));
        }
        if c.latency_budget_us > 0 && c.latency_budget_us < 1000 {
            return Err(Error::Config(
                "serve: latency_budget_us must be 0 (unbounded) or >= 1000".into(),
            ));
        }
        if c.io_threads == 0 || c.io_threads > 64 {
            return Err(Error::Config("serve: io_threads must be in 1..=64".into()));
        }
        if c.write_buf_cap < 1024 {
            return Err(Error::Config(
                "serve: write_buf_cap must be >= 1024 bytes".into(),
            ));
        }
        if c.latency_budget_us > 0 && c.retry_after_ms.saturating_mul(1000) > c.latency_budget_us {
            return Err(Error::Config(format!(
                "serve: retry_after_ms ({} ms) exceeds latency_budget_us ({} us); \
                 a throttled retry could never meet its deadline",
                c.retry_after_ms, c.latency_budget_us
            )));
        }
        Ok(self.cfg)
    }
}

/// The admission decision for one offered sample — the backpressure
/// contract a client must observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Queued for analysis.
    Accepted,
    /// The session's ingress queue is full, or the latency predictor
    /// expects the sample to blow its budget; retry after the hint. The
    /// sample was **not** queued.
    Throttled {
        /// Suggested client backoff, milliseconds.
        retry_after: u64,
    },
    /// Not admitted and retrying soon will not help.
    Rejected {
        /// Why admission failed outright.
        reason: RejectReason,
    },
}

/// Why a sample was rejected outright (vs. throttled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The session table is at [`ServeConfig::max_sessions`] and the
    /// sample would have created a new session.
    SessionTableFull,
    /// The manager is shutting down and no longer accepts samples.
    ShuttingDown,
    /// The connection's write queue is over its high watermark
    /// ([`ServeConfig::write_buf_cap`]): the peer is not reading its
    /// responses fast enough for more work to be useful.
    Backpressure,
}

/// One admitted unit of input (a synced CSI sample or an IMU batch)
/// waiting for a scheduler tick.
#[derive(Debug)]
struct Pending {
    input: StreamInput,
    admitted: Instant,
    /// EDF key: admission time plus the latency budget (admission time
    /// itself when the budget is unbounded, so EDF degrades to
    /// earliest-arrival order).
    deadline: Instant,
    /// Per-request trace, when this admission fell on the sampling
    /// cadence. Carries the open `queue_wait` span across the queue.
    trace: Option<rim_obs::ActiveTrace>,
}

/// The part of a session only the scheduler (or `finish`) touches.
#[derive(Debug)]
struct SessionWork {
    stream: FusedStream,
    recorder: Recorder,
    /// Events accumulated since the last drain, in emission order.
    events: Vec<StreamEvent>,
}

/// One resident session: a lock-light ingress queue in front of the
/// analysis state. The two mutexes are held by at most one ingress call
/// and one scheduler worker respectively, and the queue lock is never
/// held across analysis.
#[derive(Debug)]
struct SessionState {
    queue: Mutex<VecDeque<Pending>>,
    work: Mutex<SessionWork>,
    /// Scheduler tick of the last admit or processed batch.
    last_active: AtomicU64,
}

/// Owns every resident session, sharded by session id, and schedules
/// cross-session batches onto one shared pool in earliest-deadline
/// order.
///
/// All methods take `&self`; the manager is designed to sit behind an
/// `Arc` with several reactor threads admitting, ticking, and draining
/// concurrently.
#[derive(Debug)]
pub struct SessionManager {
    shards: Vec<Mutex<HashMap<u64, Arc<SessionState>>>>,
    /// Shared cross-session pool; per-session analysis stays serial.
    pool: Pool,
    /// Template engine cloned per session (serial inner pool, so the
    /// only parallelism is across sessions — results stay bit-identical
    /// to standalone streams at any worker count).
    engine: Rim,
    /// Template fusion engine; each session's stream wraps a clone of
    /// the CSI engine in this fuser's error-state filter.
    fuser: Fuser,
    cfg: ServeConfig,
    /// Manager-wide recorder for the [`stage::SERVE`] and
    /// [`stage::REACTOR`] stages.
    recorder: Recorder,
    tick: AtomicU64,
    resident: AtomicUsize,
    accepting: AtomicBool,
    /// Samples admitted but not yet drained by a scheduler worker,
    /// across all sessions. One of the predictor's two inputs.
    queued_total: AtomicUsize,
    /// EMA of per-sample analysis cost, nanoseconds (`0` until the first
    /// batch completes). The predictor's other input: predicted queue
    /// wait = queued_total x ema / pool workers.
    compute_ema_ns: AtomicU64,
    /// Raw samples backing the ingest→estimate histogram (microseconds);
    /// the report keeps p50/p95, so tail percentiles come from these.
    latencies: Mutex<Vec<f64>>,
    /// Per-request trace allocation, sampling, and retention (cadence
    /// from [`ServeConfig::trace_every`]; `0` = tracing off).
    tracer: Tracer,
}

impl SessionManager {
    /// Creates a manager for the given array geometry and engine
    /// configuration. `config.threads` sizes the shared cross-session
    /// pool (0 = `RIM_THREADS` or available parallelism); each session's
    /// own analysis is serial regardless, so thread count never changes
    /// any session's output bits.
    ///
    /// # Errors
    /// The same validation as [`Rim::new`].
    pub fn new(
        geometry: ArrayGeometry,
        config: RimConfig,
        serve: ServeConfig,
    ) -> Result<Self, Error> {
        Self::with_fuser(geometry, config, serve, Fuser::builder().build()?)
    }

    /// [`SessionManager::new`] with an explicit fusion engine instead of
    /// the default [`Fuser`] configuration; every session's stream runs
    /// this fuser's error-state filter over its RIM and IMU input.
    ///
    /// # Errors
    /// The same validation as [`Rim::new`].
    pub fn with_fuser(
        geometry: ArrayGeometry,
        config: RimConfig,
        serve: ServeConfig,
        fuser: Fuser,
    ) -> Result<Self, Error> {
        let pool = Pool::new(config.threads, 0);
        let tracer = Tracer::new(serve.trace_every);
        let engine = Rim::new(geometry, config.with_threads(1))?;
        Ok(Self {
            shards: (0..serve.shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            pool,
            engine,
            fuser,
            cfg: serve,
            recorder: Recorder::new(),
            tick: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            queued_total: AtomicUsize::new(0),
            compute_ema_ns: AtomicU64::new(0),
            latencies: Mutex::new(Vec::new()),
            tracer,
        })
    }

    /// Shard index for a session id (Fibonacci multiplicative hash, so
    /// adjacent ids spread out). Deterministic, and irrelevant to
    /// results either way.
    fn shard_of(&self, session_id: u64) -> usize {
        let h = session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards.len()
    }

    /// Predicted ingress-queue wait for a sample admitted now,
    /// microseconds: everything already queued, at the observed
    /// per-sample cost, spread over the pool's workers. Two relaxed
    /// atomic loads and a multiply — O(1) however many sessions exist.
    /// `0` until the first batch calibrates the cost EMA.
    fn predicted_wait_us(&self) -> u64 {
        let ema_ns = self.compute_ema_ns.load(Ordering::Relaxed);
        if ema_ns == 0 {
            return 0;
        }
        let queued = self.queued_total.load(Ordering::Relaxed) as u64;
        let workers = (self.pool.threads().max(1)) as u64;
        queued.saturating_mul((ema_ns / 1000).max(1)) / workers
    }

    /// Offers one synced sample to a session, creating the session on
    /// first contact. Returns the admission decision immediately; the
    /// sample is analysed on the next [`SessionManager::process`] tick
    /// (behind a [`crate::Server`], the one the admitting reactor runs
    /// before it answers).
    ///
    /// Beyond the per-session queue bound, admission throttles when the
    /// latency-budget predictor says the sample would wait longer than
    /// [`ServeConfig::latency_budget_us`] before a worker picks it up —
    /// backpressure keyed to the deadline contract, not just to memory.
    pub fn ingest(&self, session_id: u64, sample: SyncedSample) -> Admit {
        let seq = sample.seq;
        self.admit(session_id, sample.into(), Some(seq))
    }

    /// Offers one batch of IMU samples to a session, creating the
    /// session on first contact. The batch occupies one ingress-queue
    /// slot and is run through the session's fusion filter on the next
    /// scheduler tick, emitting one [`StreamEvent::Fused`] estimate —
    /// the same admission contract (and backpressure) as
    /// [`SessionManager::ingest`]. IMU batches are not traced: they
    /// never touch the alignment pipeline.
    pub fn ingest_imu(&self, session_id: u64, samples: Vec<ImuSample>) -> Admit {
        self.admit(session_id, StreamInput::Imu(samples), None)
    }

    /// The admission body shared by the CSI and IMU entry points;
    /// `trace_seq` arms per-request tracing (CSI only).
    fn admit(&self, session_id: u64, input: StreamInput, trace_seq: Option<u64>) -> Admit {
        if !self.accepting.load(Ordering::Acquire) {
            self.recorder.count(stage::SERVE, serve_metric::REJECTED, 1);
            return Admit::Rejected {
                reason: RejectReason::ShuttingDown,
            };
        }
        let budget_us = self.cfg.latency_budget_us;
        if budget_us > 0 && self.predicted_wait_us() > budget_us {
            self.recorder
                .count(stage::SERVE, serve_metric::THROTTLED, 1);
            self.recorder
                .count(stage::SERVE, serve_metric::THROTTLED_PREDICTED, 1);
            return Admit::Throttled {
                retry_after: self.cfg.retry_after_ms,
            };
        }
        // Start the per-request trace (if this admission falls on the
        // sampling cadence): the admission span covers shard lookup,
        // session creation, and the queue push. Rejected or throttled
        // samples drop their trace — only admitted work is attributed.
        let mut trace = trace_seq.and_then(|seq| self.tracer.try_start(session_id, seq));
        let admission_span = trace.as_mut().map(|t| t.open(SpanKind::Admission));
        let state = {
            let mut shard = self.lock_shard(self.shard_of(session_id));
            match shard.get(&session_id) {
                Some(state) => Arc::clone(state),
                None => {
                    if self.resident.load(Ordering::Acquire) >= self.cfg.max_sessions {
                        drop(shard);
                        self.recorder.count(stage::SERVE, serve_metric::REJECTED, 1);
                        return Admit::Rejected {
                            reason: RejectReason::SessionTableFull,
                        };
                    }
                    let state = Arc::new(SessionState {
                        queue: Mutex::new(VecDeque::new()),
                        work: Mutex::new(SessionWork {
                            stream: self
                                .fuser
                                .stream(RimStream::with_engine(self.engine.clone())),
                            recorder: Recorder::new(),
                            events: Vec::new(),
                        }),
                        last_active: AtomicU64::new(self.tick.load(Ordering::Acquire)),
                    });
                    shard.insert(session_id, Arc::clone(&state));
                    let n = self.resident.fetch_add(1, Ordering::AcqRel) + 1;
                    self.recorder
                        .gauge(stage::SERVE, serve_metric::SESSIONS_ACTIVE, n as f64);
                    state
                }
            }
        };
        state
            .last_active
            .store(self.tick.load(Ordering::Acquire), Ordering::Release);
        let admitted = {
            let mut queue = lock(&state.queue);
            if queue.len() >= self.cfg.queue_depth {
                false
            } else {
                if let Some(t) = trace.as_mut() {
                    if let Some(id) = admission_span {
                        t.close(id);
                    }
                    // Left open across the queue; closed at pickup.
                    t.open(SpanKind::QueueWait);
                }
                let now = Instant::now();
                let deadline = if budget_us > 0 {
                    now + Duration::from_micros(budget_us)
                } else {
                    now
                };
                queue.push_back(Pending {
                    input,
                    admitted: now,
                    deadline,
                    trace: trace.take(),
                });
                true
            }
        };
        if admitted {
            self.queued_total.fetch_add(1, Ordering::Relaxed);
            self.recorder.count(stage::SERVE, serve_metric::ADMITTED, 1);
            Admit::Accepted
        } else {
            self.recorder
                .count(stage::SERVE, serve_metric::THROTTLED, 1);
            Admit::Throttled {
                retry_after: self.cfg.retry_after_ms,
            }
        }
    }

    /// Sessions with pending samples, ordered by their front-of-queue
    /// deadline (earliest first). [`Pool::map`] preserves index order in
    /// its fan-out, so this ordering is the EDF schedule.
    fn busy_sessions(&self) -> (Vec<Arc<SessionState>>, usize) {
        let mut busy: Vec<(Instant, Arc<SessionState>)> = Vec::new();
        let mut depth = 0usize;
        for shard in &self.shards {
            for state in lock(shard).values() {
                let queue = lock(&state.queue);
                if let Some(front) = queue.front() {
                    depth += queue.len();
                    busy.push((front.deadline, Arc::clone(state)));
                }
            }
        }
        busy.sort_by_key(|(deadline, _)| *deadline);
        (busy.into_iter().map(|(_, s)| s).collect(), depth)
    }

    /// Runs one scheduler tick: drains every session with pending
    /// samples in earliest-deadline order, fanning the per-session
    /// batches across the shared pool as independent tiles (serially on
    /// the calling thread when only one session is busy), then applies
    /// the idle-eviction policy. Returns the number of samples analysed.
    ///
    /// Behind a [`crate::Server`], every reactor wakeup calls this once,
    /// and several reactors may tick concurrently: a session another
    /// tick is analysing is skipped or waited for under its work lock,
    /// never analysed twice.
    pub fn process(&self) -> usize {
        let now = self.tick.fetch_add(1, Ordering::AcqRel) + 1;
        // Batch-schedule spans measure from the tick's start to each
        // sample's worker pickup: fan-out cost plus cross-session
        // contention.
        let tick_start = Instant::now();
        let (busy, depth) = self.busy_sessions();
        self.recorder
            .gauge(stage::SERVE, serve_metric::QUEUE_DEPTH, depth as f64);
        let mut analysed = 0;
        if !busy.is_empty() {
            let _span = self.recorder.span(stage::SERVE);
            let counts = self
                .pool
                .map(&busy, |state| self.process_session(state, now, tick_start));
            analysed = counts.iter().sum();
            self.recorder.count(stage::SERVE, serve_metric::BATCHES, 1);
        }
        self.evict_idle(now);
        analysed
    }

    /// Drains one session's queued samples through its stream, in FIFO
    /// order, under the session's work lock. Runs on a pool worker.
    fn process_session(&self, state: &SessionState, now: u64, tick_start: Instant) -> usize {
        let mut work = lock(&state.work);
        // Take the queue snapshot under the work lock so concurrent
        // drainers (scheduler tick vs. `finish`) cannot reorder a
        // session's samples.
        let pending: Vec<Pending> = lock(&state.queue).drain(..).collect();
        if pending.is_empty() {
            return 0;
        }
        self.queued_total
            .fetch_sub(pending.len(), Ordering::Relaxed);
        state.last_active.store(now, Ordering::Release);
        let work = &mut *work;
        let batch = pending.len();
        let batch_start = Instant::now();
        let mut n = 0;
        for mut p in pending {
            if let Some(t) = p.trace.as_mut() {
                t.close_open(SpanKind::QueueWait);
                t.record_since(SpanKind::BatchSchedule, tick_start);
            }
            let result = {
                let mut session = work.stream.session().probe(&work.recorder);
                if let Some(t) = p.trace.as_mut() {
                    session = session.trace(t);
                }
                session.ingest(p.input)
            };
            match result {
                Ok(events) => {
                    if events.iter().any(|e| matches!(e, StreamEvent::Segment(_))) {
                        let us = p.admitted.elapsed().as_secs_f64() * 1e6;
                        self.recorder.observe(
                            stage::SERVE,
                            serve_metric::INGEST_TO_ESTIMATE_US,
                            us,
                        );
                        lock(&self.latencies).push(us);
                    }
                    work.events.extend(events);
                    n += 1;
                }
                Err(_) => {
                    // A malformed sample poisons only itself; the
                    // session keeps its state and its neighbours never
                    // notice.
                    self.recorder.count(stage::SERVE, "samples_errored", 1);
                }
            }
            if let Some(t) = p.trace.take() {
                self.tracer.commit(t, &self.recorder);
            }
        }
        // Recalibrate the admission predictor from this batch's
        // per-sample cost. Last-write-wins across workers is fine: every
        // batch on this box observes the same engine.
        let per_sample_ns = (batch_start.elapsed().as_nanos() as u64 / batch as u64).max(1);
        let old = self.compute_ema_ns.load(Ordering::Relaxed);
        let ema = if old == 0 {
            per_sample_ns
        } else {
            old - old / 8 + per_sample_ns / 8
        };
        self.compute_ema_ns.store(ema, Ordering::Relaxed);
        n
    }

    /// Removes sessions idle for longer than the configured tick budget.
    /// Evicted sessions are dropped as-is: pending undrained events are
    /// discarded (the tenant went away without finishing).
    fn evict_idle(&self, now: u64) {
        let budget = self.cfg.idle_evict_ticks;
        if budget == 0 {
            return;
        }
        let mut evicted = 0u64;
        for shard in &self.shards {
            let mut shard = lock(shard);
            shard.retain(|_, state| {
                let idle = now.saturating_sub(state.last_active.load(Ordering::Acquire));
                let stale = idle > budget && lock(&state.queue).is_empty();
                if stale {
                    evicted += 1;
                }
                !stale
            });
        }
        if evicted > 0 {
            let n = saturating_release(&self.resident, evicted as usize);
            self.recorder
                .count(stage::SERVE, serve_metric::SESSIONS_EVICTED, evicted);
            self.recorder
                .gauge(stage::SERVE, serve_metric::SESSIONS_ACTIVE, n as f64);
        }
    }

    /// Takes the events a session has emitted since the last drain (or
    /// an empty vec for an unknown session), preserving emission order.
    pub fn drain_events(&self, session_id: u64) -> Vec<StreamEvent> {
        let Some(state) = self.find(session_id) else {
            return Vec::new();
        };
        let events = std::mem::take(&mut lock(&state.work).events);
        events
    }

    /// Finishes a session: analyses anything still queued, flushes the
    /// open segment, removes the session, and returns every undrained
    /// event. The result is bit-identical to a standalone
    /// [`RimStream`] fed the same admitted samples and finished.
    pub fn finish(&self, session_id: u64) -> Vec<StreamEvent> {
        let Some(state) = self.remove(session_id) else {
            return Vec::new();
        };
        let now = self.tick.load(Ordering::Acquire);
        self.process_session(&state, now, Instant::now());
        let mut work = lock(&state.work);
        let work = &mut *work;
        let final_events = work.stream.session().probe(&work.recorder).finish();
        work.events.extend(final_events);
        std::mem::take(&mut work.events)
    }

    /// Stops admitting new samples (subsequent [`SessionManager::ingest`]
    /// calls are rejected with [`RejectReason::ShuttingDown`]); already
    /// queued samples can still be processed and finished.
    pub fn shutdown(&self) {
        self.accepting.store(false, Ordering::Release);
    }

    /// Whether the manager still admits samples.
    pub fn accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }

    /// Sessions currently resident.
    pub fn sessions_active(&self) -> usize {
        self.resident.load(Ordering::Acquire)
    }

    /// Total samples queued across all sessions right now.
    pub fn queue_depth(&self) -> usize {
        self.queued_total.load(Ordering::Relaxed)
    }

    /// The validated serving configuration this manager runs with.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The manager-wide [`stage::SERVE`] / [`stage::REACTOR`] report
    /// (admission counters, queue depth, active/evicted sessions,
    /// ingest→estimate latency, reactor I/O counters).
    pub fn report(&self) -> RunReport {
        self.recorder.report()
    }

    /// One session's own stream/pipeline-stage report, if resident.
    pub fn session_report(&self, session_id: u64) -> Option<RunReport> {
        let state = self.find(session_id)?;
        let report = lock(&state.work).recorder.report();
        Some(report)
    }

    /// The shared cross-session pool (for stats and sizing assertions).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The manager-wide recorder, for the reactor's I/O counters.
    pub(crate) fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Drains the raw ingest→estimate latency samples (microseconds,
    /// one per sample whose analysis emitted a segment). The run report
    /// aggregates these to p50/p95; callers wanting deeper tails
    /// (p99/p999) compute them from this.
    pub fn take_latencies(&self) -> Vec<f64> {
        std::mem::take(&mut *lock(&self.latencies))
    }

    /// Records the wall-clock cost of encoding + writing one
    /// event-bearing response frame: feeds the `wire_us` attribution
    /// distribution and attaches an `event_wire_out` span to the newest
    /// trace still lacking one (the trace commits during the tick, and
    /// its events leave on the same ingest's answer right after). Called
    /// by the reactor; no-op when tracing is off.
    pub fn note_wire_out(&self, dur_us: u64) {
        self.tracer.attach_wire_out(dur_us, &self.recorder);
    }

    /// The most recent committed per-request traces, oldest first (empty
    /// unless tracing is enabled).
    pub fn traces(&self, n: usize) -> Vec<TraceRecord> {
        self.tracer.recent(n)
    }

    /// Live sliding-window view of the manager-wide recorder (see
    /// [`Recorder::window_snapshot`]).
    pub fn window_snapshot(&self) -> WindowSnapshot {
        self.recorder.window_snapshot()
    }

    /// Renders the read-only text exposition served over the wire's
    /// `Metrics` frame: flat `stage.metric value` lines (cumulative,
    /// then the sliding window under a `window.` prefix), live session
    /// gauges, and one `trace …` summary line per recent trace.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("# rim-serve metrics v1\n");
        let _ = writeln!(out, "sessions_active {}", self.sessions_active());
        let _ = writeln!(out, "queue_depth {}", self.queue_depth());
        let report = self.recorder.report();
        for s in &report.stages {
            let _ = writeln!(out, "{}.calls {}", s.name, s.calls);
            let _ = writeln!(out, "{}.total_ms {}", s.name, s.total_ms);
            let _ = writeln!(out, "{}.p50_ms {}", s.name, s.p50_ms);
            let _ = writeln!(out, "{}.p95_ms {}", s.name, s.p95_ms);
            for (k, v) in &s.counters {
                let _ = writeln!(out, "{}.{k} {v}", s.name);
            }
            for (k, v) in &s.gauges {
                let _ = writeln!(out, "{}.{k} {v}", s.name);
            }
            for d in &s.distributions {
                let _ = writeln!(out, "{}.{}.count {}", s.name, d.name, d.count);
                let _ = writeln!(out, "{}.{}.p50 {}", s.name, d.name, d.p50);
                let _ = writeln!(out, "{}.{}.p99 {}", s.name, d.name, d.p99);
                let _ = writeln!(out, "{}.{}.p999 {}", s.name, d.name, d.p999);
            }
        }
        let window = self.recorder.window_snapshot();
        let _ = writeln!(out, "window.span_s {}", window.span_s);
        for s in &window.stages {
            let _ = writeln!(out, "window.{}.calls {}", s.name, s.calls);
            let _ = writeln!(out, "window.{}.p50_ms {}", s.name, s.p50_ms);
            let _ = writeln!(out, "window.{}.p95_ms {}", s.name, s.p95_ms);
            for (k, v) in &s.counters {
                let _ = writeln!(out, "window.{}.{k} {v}", s.name);
            }
            for (k, v) in &s.gauges {
                let _ = writeln!(out, "window.{}.{k} {v}", s.name);
            }
        }
        for trace in self.tracer.recent(16) {
            let _ = writeln!(out, "{}", trace.summary());
        }
        out
    }

    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<SessionState>>> {
        lock(&self.shards[idx])
    }

    fn find(&self, session_id: u64) -> Option<Arc<SessionState>> {
        self.lock_shard(self.shard_of(session_id))
            .get(&session_id)
            .map(Arc::clone)
    }

    fn remove(&self, session_id: u64) -> Option<Arc<SessionState>> {
        let state = self
            .lock_shard(self.shard_of(session_id))
            .remove(&session_id)?;
        let n = saturating_release(&self.resident, 1);
        self.recorder
            .gauge(stage::SERVE, serve_metric::SESSIONS_ACTIVE, n as f64);
        Some(state)
    }
}

/// Releases `n` residency slots and returns the new count, saturating at
/// zero. `fetch_sub(n) - n` is not safe here: eviction counts its victims
/// under per-shard locks, then settles the global counter — a session
/// removed and re-admitted by another thread in between can leave the
/// counter smaller than the eviction tally, and the plain subtraction
/// would wrap the gauge to ~2^64 (and panic in debug builds).
fn saturating_release(resident: &AtomicUsize, n: usize) -> usize {
    let mut prev = resident.load(Ordering::Acquire);
    loop {
        let next = prev.saturating_sub(n);
        match resident.compare_exchange_weak(prev, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return next,
            Err(p) => prev = p,
        }
    }
}

/// Locks a mutex, riding through poisoning: per-session state is only
/// ever mutated by one worker at a time, so a panicked worker leaves the
/// state exactly as consistent as a panicked standalone stream would.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_csi::frame::CsiSnapshot;
    use rim_dsp::complex::Complex64;

    fn geometry() -> ArrayGeometry {
        ArrayGeometry::linear(3, 0.0258)
    }

    fn config() -> RimConfig {
        RimConfig::for_sample_rate(100.0)
    }

    fn sample(seq: u64) -> SyncedSample {
        let snap = |tag: f64| CsiSnapshot {
            per_tx: vec![vec![Complex64::new(tag, -tag); 8]],
        };
        SyncedSample {
            seq,
            antennas: (0..3).map(|a| Some(snap(seq as f64 + a as f64))).collect(),
        }
    }

    fn manager(serve: ServeConfig) -> SessionManager {
        SessionManager::new(geometry(), config(), serve).unwrap()
    }

    #[test]
    fn manager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SessionManager>();
        assert_send_sync::<RimStream>();
        assert_send_sync::<FusedStream>();
    }

    #[test]
    fn imu_batches_share_the_admission_contract_and_emit_fused_events() {
        let m = manager(ServeConfig::builder().queue_depth(2).build().unwrap());
        let batch: Vec<ImuSample> = (0..40)
            .map(|i| ImuSample {
                t_us: i * 10_000,
                accel_body: rim_dsp::geom::Vec2::new(0.0, 0.0),
                gyro_z: 0.0,
                mag_orientation: None,
            })
            .collect();
        assert_eq!(m.ingest_imu(7, batch.clone()), Admit::Accepted);
        assert_eq!(m.ingest(7, sample(0)), Admit::Accepted);
        // The queue bound covers both input shapes.
        assert_eq!(
            m.ingest_imu(7, batch.clone()),
            Admit::Throttled { retry_after: 5 }
        );
        assert_eq!(m.process(), 2);
        let events = m.drain_events(7);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind() == rim_core::StreamEventKind::Fused)
                .count(),
            1,
            "one fused estimate per IMU batch: {events:?}"
        );
        m.shutdown();
        assert_eq!(
            m.ingest_imu(7, batch),
            Admit::Rejected {
                reason: RejectReason::ShuttingDown
            }
        );
    }

    #[test]
    fn builder_validates_limits_and_combinations() {
        assert!(ServeConfig::builder().build().is_ok(), "defaults are valid");
        for bad in [
            ServeConfig::builder().shards(0),
            ServeConfig::builder().queue_depth(0),
            ServeConfig::builder().max_sessions(0),
            ServeConfig::builder().retry_after_ms(0),
            ServeConfig::builder().latency_budget_us(500),
            ServeConfig::builder().io_threads(0),
            ServeConfig::builder().io_threads(65),
            ServeConfig::builder().write_buf_cap(16),
            // Retry hint (50 ms) longer than the budget (10 ms).
            ServeConfig::builder()
                .retry_after_ms(50)
                .latency_budget_us(10_000),
        ] {
            assert!(
                matches!(bad.clone().build(), Err(Error::Config(_))),
                "expected Error::Config from {bad:?}"
            );
        }
        // An unbounded budget lifts the retry/budget combination check.
        let cfg = ServeConfig::builder()
            .retry_after_ms(50)
            .latency_budget_us(0)
            .build()
            .unwrap();
        assert_eq!(cfg.retry_after_ms(), 50);
        assert_eq!(cfg.latency_budget_us(), 0);
    }

    #[test]
    fn admits_until_queue_full_then_throttles() {
        let m = manager(ServeConfig::builder().queue_depth(3).build().unwrap());
        for seq in 0..3 {
            assert_eq!(m.ingest(9, sample(seq)), Admit::Accepted);
        }
        assert_eq!(m.ingest(9, sample(3)), Admit::Throttled { retry_after: 5 });
        assert_eq!(m.queue_depth(), 3);
        // Processing frees the queue.
        assert_eq!(m.process(), 3);
        assert_eq!(m.queue_depth(), 0);
        assert_eq!(m.ingest(9, sample(3)), Admit::Accepted);
    }

    #[test]
    fn predictor_throttles_when_budget_would_be_blown() {
        let m = manager(
            ServeConfig::builder()
                .retry_after_ms(1)
                .latency_budget_us(2000)
                .build()
                .unwrap(),
        );
        assert_eq!(m.ingest(1, sample(0)), Admit::Accepted);
        // White-box calibration: pretend a batch measured 10 ms/sample.
        // One queued sample at 10 ms/sample predicts >= 2.5 ms of wait
        // even on a 4-worker pool — over the 2 ms budget.
        m.compute_ema_ns.store(10_000_000, Ordering::Relaxed);
        assert_eq!(m.ingest(1, sample(1)), Admit::Throttled { retry_after: 1 });
        assert_eq!(
            m.queue_depth(),
            1,
            "the predicted-violation sample was not queued"
        );
        let report = m.report();
        let stage = report.stage(stage::SERVE).unwrap();
        assert!(stage
            .counters
            .iter()
            .any(|(k, v)| k == serve_metric::THROTTLED_PREDICTED && *v == 1));
        // Draining the queue clears the prediction.
        m.process();
        assert_eq!(m.ingest(1, sample(1)), Admit::Accepted);
    }

    #[test]
    fn busy_sessions_are_ordered_by_earliest_deadline() {
        let m = manager(
            ServeConfig::builder()
                .latency_budget_us(500_000)
                .build()
                .unwrap(),
        );
        // Session 20 admits first, so its front deadline is earliest no
        // matter how the ids hash across shards.
        assert_eq!(m.ingest(20, sample(0)), Admit::Accepted);
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(m.ingest(10, sample(0)), Admit::Accepted);
        let (busy, depth) = m.busy_sessions();
        assert_eq!(depth, 2);
        assert_eq!(busy.len(), 2);
        assert!(
            Arc::ptr_eq(&busy[0], &m.find(20).unwrap()),
            "earliest-admitted session schedules first"
        );
        assert!(Arc::ptr_eq(&busy[1], &m.find(10).unwrap()));
    }

    #[test]
    fn rejects_when_session_table_full_and_after_shutdown() {
        let m = manager(ServeConfig::builder().max_sessions(2).build().unwrap());
        assert_eq!(m.ingest(1, sample(0)), Admit::Accepted);
        assert_eq!(m.ingest(2, sample(0)), Admit::Accepted);
        assert_eq!(
            m.ingest(3, sample(0)),
            Admit::Rejected {
                reason: RejectReason::SessionTableFull
            }
        );
        // An existing session is still served.
        assert_eq!(m.ingest(1, sample(1)), Admit::Accepted);
        // Finishing frees a slot.
        let _ = m.finish(2);
        assert_eq!(m.ingest(3, sample(0)), Admit::Accepted);
        m.shutdown();
        assert_eq!(
            m.ingest(1, sample(2)),
            Admit::Rejected {
                reason: RejectReason::ShuttingDown
            }
        );
    }

    #[test]
    fn idle_sessions_are_evicted_on_schedule() {
        let m = manager(ServeConfig::builder().idle_evict_ticks(2).build().unwrap());
        assert_eq!(m.ingest(5, sample(0)), Admit::Accepted);
        assert_eq!(m.sessions_active(), 1);
        m.process(); // tick 1: analyses, session active at tick 1
        m.process(); // tick 2: idle 1
        m.process(); // tick 3: idle 2
        assert_eq!(m.sessions_active(), 1, "within budget");
        m.process(); // tick 4: idle 3 > 2 → evicted
        assert_eq!(m.sessions_active(), 0);
        let report = m.report();
        let stage = report.stage(stage::SERVE).unwrap();
        assert!(stage
            .counters
            .iter()
            .any(|(k, v)| k == serve_metric::SESSIONS_EVICTED && *v == 1));
    }

    #[test]
    fn resident_release_saturates_instead_of_wrapping() {
        // The eviction race's post-state: victims were counted under the
        // shard locks, but another thread settled the global counter
        // first (remove + re-admit), leaving it below the tally. The old
        // `fetch_sub(n) - n` wrapped the gauge to ~2^64 here.
        let resident = AtomicUsize::new(1);
        assert_eq!(saturating_release(&resident, 3), 0);
        assert_eq!(resident.load(Ordering::Acquire), 0);
        // The normal path still subtracts exactly.
        let resident = AtomicUsize::new(5);
        assert_eq!(saturating_release(&resident, 3), 2);
        assert_eq!(resident.load(Ordering::Acquire), 2);
    }

    #[test]
    fn eviction_race_with_readmission_keeps_the_gauge_sane() {
        // Hammer evict/ingest/finish from three threads; whatever the
        // interleaving, the resident count must stay a sane small number
        // (a wrap would read as ~2^64) and the manager must not panic.
        let m = std::sync::Arc::new(manager(
            ServeConfig::builder().idle_evict_ticks(1).build().unwrap(),
        ));
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let m = std::sync::Arc::clone(&m);
            let stop = std::sync::Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut seq = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let id = 100 + t;
                    let _ = m.ingest(id, sample(seq));
                    m.process();
                    let _ = m.finish(id);
                    seq += 1;
                }
            }));
        }
        for _ in 0..200 {
            m.process(); // ticks the clock → evict_idle races the workers
            assert!(
                m.sessions_active() <= 16,
                "resident gauge wrapped: {}",
                m.sessions_active()
            );
        }
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.sessions_active() <= 3);
    }

    #[test]
    fn malformed_sample_poisons_only_itself() {
        let m = manager(ServeConfig::default());
        assert_eq!(m.ingest(1, sample(0)), Admit::Accepted);
        // Wrong antenna count: analysis rejects it, session survives.
        let bad = SyncedSample {
            seq: 1,
            antennas: vec![None],
        };
        assert_eq!(m.ingest(1, bad), Admit::Accepted);
        assert_eq!(m.ingest(1, sample(1)), Admit::Accepted);
        assert_eq!(m.process(), 2, "two good samples analysed");
        assert_eq!(m.sessions_active(), 1);
        let report = m.report();
        let stage = report.stage(stage::SERVE).unwrap();
        assert!(stage
            .counters
            .iter()
            .any(|(k, v)| k == "samples_errored" && *v == 1));
    }

    #[test]
    fn traced_samples_decompose_into_spans_and_feed_attribution() {
        let m = SessionManager::new(
            geometry(),
            config(),
            ServeConfig::builder().trace_every(1).build().unwrap(),
        )
        .unwrap();
        for seq in 0..5 {
            assert_eq!(m.ingest(3, sample(seq)), Admit::Accepted);
        }
        m.process();
        let traces = m.traces(16);
        assert_eq!(traces.len(), 5, "every admission traced at cadence 1");
        for t in &traces {
            assert_eq!(t.session_id, 3);
            assert!(t.span_us(SpanKind::Admission).is_some(), "admission span");
            assert!(t.span_us(SpanKind::QueueWait).is_some(), "queue_wait span");
            assert!(
                t.span_us(SpanKind::BatchSchedule).is_some(),
                "batch_schedule span"
            );
            assert!(
                t.span_us(SpanKind::IncrementalIngest).is_some(),
                "ingest span"
            );
        }
        m.note_wire_out(37);
        assert_eq!(
            m.traces(16).last().unwrap().span_us(SpanKind::EventWireOut),
            Some(37)
        );
        let report = m.report();
        let attr = report
            .stage(stage::LATENCY_ATTRIBUTION)
            .expect("attribution stage");
        for name in [
            rim_obs::attribution_metric::ADMISSION_US,
            rim_obs::attribution_metric::QUEUE_WAIT_US,
            rim_obs::attribution_metric::BATCH_SCHEDULE_US,
            rim_obs::attribution_metric::COMPUTE_US,
            rim_obs::attribution_metric::TOTAL_US,
        ] {
            assert!(
                attr.distributions
                    .iter()
                    .any(|d| d.name == name && d.count == 5),
                "{name} fed once per traced sample"
            );
        }
        // The exposition text carries the flat metric lines and traces.
        let text = m.metrics_text();
        assert!(text.starts_with("# rim-serve metrics v1\n"), "{text}");
        assert!(text.contains("serve.samples_admitted 5"), "{text}");
        assert!(text.contains("window.span_s "), "{text}");
        assert!(text.contains("queue_wait="), "{text}");
    }

    #[test]
    fn tracing_off_keeps_the_serve_path_traceless() {
        let m = manager(ServeConfig::default());
        for seq in 0..3 {
            m.ingest(1, sample(seq));
        }
        m.process();
        m.note_wire_out(10);
        assert!(m.traces(16).is_empty());
        assert!(m.report().stage(stage::LATENCY_ATTRIBUTION).is_none());
    }

    #[test]
    fn per_session_reports_are_isolated() {
        let m = manager(ServeConfig::default());
        for seq in 0..4 {
            m.ingest(1, sample(seq));
        }
        m.ingest(2, sample(0));
        m.process();
        let r1 = m.session_report(1).unwrap();
        let r2 = m.session_report(2).unwrap();
        let pushed = |r: &RunReport| {
            r.stage(stage::STREAM)
                .and_then(|s| {
                    s.counters
                        .iter()
                        .find(|(k, _)| k == "samples_pushed")
                        .map(|(_, v)| *v)
                })
                .unwrap_or(0)
        };
        assert_eq!(pushed(&r1), 4);
        assert_eq!(pushed(&r2), 1);
        assert!(m.session_report(99).is_none());
    }
}
