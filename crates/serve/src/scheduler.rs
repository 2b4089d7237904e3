//! The multi-tenant job runtime: slice scheduling, deficit round-robin
//! fairness, admission control, and crash-safe checkpointing.
//!
//! One scheduler thread owns the loop. Each turn it picks up to
//! `max_batch` runnable jobs — at most one per tenant per pass, in
//! deficit-round-robin order — takes their engines out of the shared
//! state, and runs one bounded *slice* per job **in parallel on the
//! global work-stealing pool** (the same persistent pool the engines
//! themselves use for fitness evaluation). A slice executes at most the
//! tenant's current step allowance, re-checking termination *before*
//! every step — exactly the check-then-step contract of the core
//! [`Driver`](pga_core::driver::Driver) — so how a run is sliced can
//! never change its trajectory, which is what makes crash recovery
//! bit-identical.
//!
//! After every slice the job's engine snapshot and counters are written
//! to the [`Spool`]; a runtime restarted over the same spool directory
//! re-admits every non-terminal job and continues it from its last
//! completed slice. The snapshot is encoded once, by the slice itself on
//! its pool worker; the spool record and the job's in-memory resurrection
//! checkpoint share those bytes. A terminal job keeps only its status.
//!
//! ## Fairness
//!
//! Tenants are scheduled by deficit round-robin (DRR) in units of
//! *engine steps*: each time a tenant is visited it earns
//! `quantum_steps`, a job slice may spend at most
//! `min(deficit, steps_per_slice)` steps, and the steps actually
//! executed are charged back. A tenant with 50 queued jobs therefore
//! gets the same step throughput as a tenant with one — no starvation,
//! bounded by one slice of lag.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pga_cluster::chaos::{ChaosInjector, SliceChaos};
use pga_core::driver::Clock;
use pga_core::erased::BoxedEngine;
use pga_core::snapshot::Snapshot;
use pga_core::termination::{StopReason, Termination};
use pga_observe::{
    exponential_bounds, Event, EventKind, JsonlStream, MetricsSnapshot, Recorder, Registry,
};

use crate::factory::build_engine;
use crate::job::{Job, JobId, JobProgress, JobState};
use crate::protocol::{JobSpec, ProtocolError};
use crate::spool::{JobRecord, Spool};

/// Runtime tuning knobs (validated by `ServeBuilder`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory of the checkpoint log (see [`Spool`]).
    pub spool_dir: PathBuf,
    /// Admission bound: maximum live (non-terminal) jobs.
    pub max_jobs: usize,
    /// Hard cap on engine steps per slice.
    pub steps_per_slice: u64,
    /// Steps a tenant earns per scheduling visit (DRR quantum).
    pub quantum_steps: u64,
    /// Maximum jobs sliced concurrently per scheduler turn.
    pub max_batch: usize,
    /// `Retry-After` hint (milliseconds) returned when shedding.
    pub retry_after_ms: u64,
    /// Per-job event stream capacity (lines) before drop-oldest.
    pub stream_capacity: usize,
    /// Resurrections granted to a crashing job before it is quarantined
    /// as [`JobState::Poisoned`].
    pub retry_budget: u64,
    /// Base of the exponential resurrection backoff (`base × 2^(n-1)`
    /// milliseconds before retry *n* becomes schedulable).
    pub backoff_base_ms: u64,
    /// Watchdog: a yielded slice that took longer than this is treated
    /// as stalled — its engine is discarded and the job replays from its
    /// last good snapshot. `0` disables the watchdog.
    pub slice_deadline_ms: u64,
    /// Largest request body `POST /jobs` accepts (bytes); larger
    /// `Content-Length`s are rejected `413` before the body is read.
    pub max_body_bytes: usize,
    /// Deterministic fault injection (`None` in production: the no-op
    /// default costs one branch per guarded operation).
    pub chaos: Option<Arc<ChaosInjector>>,
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The server is at its live-job bound; retry after the hinted delay.
    Shed {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The runtime is shutting down and admits nothing.
    ShuttingDown,
    /// The spec failed validation or the engine could not be built.
    Invalid(ProtocolError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Shed { retry_after_ms } => {
                write!(f, "queue full, retry after {retry_after_ms} ms")
            }
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Invalid(e) => write!(f, "invalid job: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What a runtime found in its spool at startup.
#[derive(Clone, Debug, Default)]
pub struct RecoverReport {
    /// Jobs re-admitted and resumed from their last slice.
    pub resumed: usize,
    /// Terminal jobs whose status was retained.
    pub terminal: usize,
    /// Spool frames and files skipped as corrupt (and not superseded
    /// by a later valid frame of the same job).
    pub skipped: usize,
}

/// What `POST /drain` persisted and left behind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Runnable (non-terminal) jobs whose checkpoint was persisted.
    pub persisted: usize,
    /// Runnable jobs whose persist failed even after retries.
    pub failed: usize,
    /// Terminal jobs at drain time (already durable).
    pub terminal: usize,
}

/// Liveness/readiness summary for `GET /healthz` and `GET /readyz`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// `true` while spool persistence is failing and jobs run on
    /// in-memory checkpoints only.
    pub degraded: bool,
    /// `true` once a drain started: admission is closed.
    pub draining: bool,
    /// Live (non-terminal) jobs.
    pub live: usize,
    /// Jobs waiting in tenant queues.
    pub queued: usize,
    /// Jobs quarantined in [`JobState::Poisoned`].
    pub poisoned: usize,
}

struct Tenant {
    deficit: u64,
    queue: VecDeque<JobId>,
    completed_slices: u64,
}

struct State {
    jobs: BTreeMap<JobId, Job>,
    tenants: BTreeMap<String, Tenant>,
    ring: VecDeque<String>,
    next_id: u64,
    live: usize,
    /// Jobs in [`JobState::Poisoned`] (never left once entered).
    poisoned: usize,
    stopping: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the scheduler thread (new work or shutdown).
    wake: Condvar,
    /// Broadcast after every reintegrated batch (progress observers).
    progress: Condvar,
    registry: Mutex<Registry>,
    /// Crash simulation: when set, the scheduler discards its in-flight
    /// batch instead of persisting and reintegrating it.
    hard_drop: AtomicBool,
    /// Spool persistence is failing; jobs continue on in-memory
    /// checkpoints only. Cleared by the next successful persist.
    degraded: AtomicBool,
    /// A drain started: admission closed, scheduler idles.
    draining: AtomicBool,
    /// Jobs currently checked out on the slice pool (drain barrier).
    in_flight: AtomicUsize,
    /// Bytes of every job's `resume_from` checkpoint.
    checkpoint_bytes: AtomicUsize,
    /// Bytes of undrained lines across every job's event stream.
    event_bytes: Arc<AtomicUsize>,
    config: ServeConfig,
}

impl Shared {
    /// An event stream for a new job, counted in `event_bytes`.
    fn new_stream(&self) -> JsonlStream {
        JsonlStream::metered(self.config.stream_capacity, Arc::clone(&self.event_bytes))
    }

    /// Replaces `job`'s resurrection checkpoint, keeping
    /// `checkpoint_bytes` in step; returns the previous one.
    fn set_resume_from(&self, job: &mut Job, bytes: Option<Arc<[u8]>>) -> Option<Arc<[u8]>> {
        let len = |b: &Option<Arc<[u8]>>| b.as_ref().map_or(0, |b| b.len());
        self.checkpoint_bytes
            .fetch_add(len(&bytes), Ordering::Relaxed);
        let old = std::mem::replace(&mut job.resume_from, bytes);
        self.checkpoint_bytes
            .fetch_sub(len(&old), Ordering::Relaxed);
        old
    }

    /// Moves `job` into the terminal `state`, keeping only its status:
    /// drops its engine and checkpoint and closes its event stream.
    /// Returns the checkpoint, for the job's final spool record.
    fn retire(&self, job: &mut Job, state: JobState) -> Option<Arc<[u8]>> {
        debug_assert!(state.is_terminal());
        job.state = state;
        job.engine = None;
        job.not_before = None;
        job.stream.close();
        self.set_resume_from(job, None)
    }
}

/// `job`'s spool record as of its last reintegrated slice, without the
/// engine snapshot (persisted alongside as pre-encoded bytes).
fn record_of(job: &Job) -> JobRecord {
    JobRecord {
        id: job.id,
        spec: job.spec.clone(),
        state: job.state.clone(),
        slices: job.slices,
        steps: job.steps,
        consumed: job.consumed,
        retries: job.retries,
        progress: job.progress,
        engine_snapshot: None,
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How one slice ended.
enum SliceEnd {
    /// Allowance exhausted; the job remains runnable.
    Yield,
    /// A termination criterion fired.
    Done(StopReason),
    /// The cancel flag was observed.
    Cancelled,
    /// The engine panicked mid-step, or the watchdog reclassified a
    /// stalled slice. The crash path: deltas are discarded and the job
    /// is resurrected from its last good snapshot (or quarantined once
    /// its retry budget is spent).
    Failed(String),
}

/// A job checked out of the shared state for one slice. Carries copies
/// of everything the persist step needs, so spool writes never take the
/// state lock.
struct SliceTask {
    id: JobId,
    tenant: String,
    spec: JobSpec,
    engine: Option<BoxedEngine>,
    termination: Termination,
    cancel: Arc<AtomicBool>,
    allowance: u64,
    consumed: Duration,
    prior_slices: u64,
    prior_steps: u64,
    prior_retries: u64,
    first_slice: bool,
    /// Scripted fault for this slice (always `None` without chaos).
    chaos: SliceChaos,
    // Filled in by the slice:
    steps_run: u64,
    /// Evaluations folded into the population this slice (poll-step
    /// progress; equals step-count × population for synchronous engines).
    evals_folded: u64,
    slice_time: Duration,
    end: SliceEnd,
    progress: JobProgress,
    /// The engine's snapshot after the slice, encoded on the worker;
    /// shared by the spool record and the job's `resume_from`.
    snapshot: Option<Arc<[u8]>>,
}

/// The job runtime. Construct through `ServeBuilder` (crate root);
/// drop or [`shutdown`](Self::shutdown) to stop the scheduler thread.
pub struct ServeRuntime {
    shared: Arc<Shared>,
    spool: Arc<Spool>,
    worker: Mutex<Option<JoinHandle<()>>>,
    recover_report: RecoverReport,
}

impl ServeRuntime {
    /// Opens the spool, recovers every job found in it, and starts the
    /// scheduler thread.
    pub(crate) fn start(config: ServeConfig) -> Result<Self, std::io::Error> {
        let mut spool = Spool::open(&config.spool_dir)?;
        spool.set_chaos(config.chaos.clone());
        let spool = Arc::new(spool);
        let mut registry = Registry::default();
        registry.histogram_with_bounds("serve.slice_micros", exponential_bounds(50.0, 2.0, 18));
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                tenants: BTreeMap::new(),
                ring: VecDeque::new(),
                next_id: 0,
                live: 0,
                poisoned: 0,
                stopping: false,
            }),
            wake: Condvar::new(),
            progress: Condvar::new(),
            registry: Mutex::new(registry),
            hard_drop: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            checkpoint_bytes: AtomicUsize::new(0),
            event_bytes: Arc::new(AtomicUsize::new(0)),
            config,
        });
        let recover_report = recover(&shared, &spool);
        let worker = {
            let shared = Arc::clone(&shared);
            let spool = Arc::clone(&spool);
            std::thread::Builder::new()
                .name("pga-serve-scheduler".into())
                .spawn(move || scheduler_loop(&shared, &spool))?
        };
        Ok(Self {
            shared,
            spool,
            worker: Mutex::new(Some(worker)),
            recover_report,
        })
    }

    /// What recovery found in the spool at startup.
    #[must_use]
    pub fn recover_report(&self) -> &RecoverReport {
        &self.recover_report
    }

    /// The spool directory backing this runtime.
    #[must_use]
    pub fn spool_dir(&self) -> &std::path::Path {
        self.spool.dir()
    }

    /// Request-body cap enforced by the HTTP front end.
    #[must_use]
    pub fn max_body_bytes(&self) -> usize {
        self.shared.config.max_body_bytes
    }

    /// The armed chaos injector, when fault drills are on.
    #[must_use]
    pub fn chaos(&self) -> Option<&Arc<ChaosInjector>> {
        self.shared.config.chaos.as_ref()
    }

    /// Submits a job. Applies admission control *before* building the
    /// engine, so shedding is cheap under overload.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        let termination = spec.budget.to_termination().map_err(SubmitError::Invalid)?;
        let id = {
            let mut st = lock(&self.shared.state);
            if st.stopping || self.shared.draining.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            if st.live >= self.shared.config.max_jobs {
                lock(&self.shared.registry).inc("serve.shed", 1);
                return Err(SubmitError::Shed {
                    retry_after_ms: self.shared.config.retry_after_ms,
                });
            }
            // Reserve the slot and id under the lock; build outside it.
            st.live += 1;
            let id = JobId(st.next_id);
            st.next_id += 1;
            id
        };
        let stream = self.shared.new_stream();
        let engine = match build_engine(&spec, Some(stream.clone())) {
            Ok(engine) => engine,
            Err(e) => {
                let mut st = lock(&self.shared.state);
                st.live -= 1;
                return Err(SubmitError::Invalid(e));
            }
        };
        let job = Job::new(id, spec, termination, engine, stream);
        let mut st = lock(&self.shared.state);
        enqueue(&mut st, job);
        lock(&self.shared.registry).inc("serve.submitted", 1);
        drop(st);
        self.shared.wake.notify_all();
        Ok(id)
    }

    /// The job's current lifecycle state.
    #[must_use]
    pub fn state(&self, id: JobId) -> Option<JobState> {
        lock(&self.shared.state)
            .jobs
            .get(&id)
            .map(|j| j.state.clone())
    }

    /// The job's last mirrored progress counters.
    #[must_use]
    pub fn progress_of(&self, id: JobId) -> Option<JobProgress> {
        lock(&self.shared.state).jobs.get(&id).map(|j| j.progress)
    }

    /// The job's status document (JSON text), as served by
    /// `GET /jobs/:id`.
    #[must_use]
    pub fn status_json(&self, id: JobId) -> Option<String> {
        lock(&self.shared.state)
            .jobs
            .get(&id)
            .map(|j| j.status_json().to_json_string())
    }

    /// A handle on the job's JSONL event stream (shared buffer: lines
    /// drained by one handle are gone from all). The stream closes when
    /// the job reaches a terminal state.
    #[must_use]
    pub fn events(&self, id: JobId) -> Option<JsonlStream> {
        lock(&self.shared.state)
            .jobs
            .get(&id)
            .map(|j| j.stream.clone())
    }

    /// All job ids known to this runtime, ascending.
    #[must_use]
    pub fn job_ids(&self) -> Vec<JobId> {
        lock(&self.shared.state).jobs.keys().copied().collect()
    }

    /// Completed slices per tenant (fairness measurements).
    #[must_use]
    pub fn tenant_slices(&self) -> BTreeMap<String, u64> {
        lock(&self.shared.state)
            .tenants
            .iter()
            .map(|(name, t)| (name.clone(), t.completed_slices))
            .collect()
    }

    /// Requests cooperative cancellation. Returns `false` for unknown or
    /// already-terminal jobs. A queued job is cancelled immediately; a
    /// job whose engine is out on a slice stops at its next step
    /// boundary.
    pub fn cancel(&self, id: JobId) -> bool {
        let record = {
            let mut st = lock(&self.shared.state);
            let Some(job) = st.jobs.get_mut(&id) else {
                return false;
            };
            if job.state.is_terminal() {
                return false;
            }
            job.request_cancel();
            if job.engine.is_none() && job.state == JobState::Running {
                // Mid-slice: the slice loop will observe the flag.
                return true;
            }
            // Still queued: finalize right here.
            let engine_snapshot = job.engine.as_ref().map(|e| e.snapshot());
            self.shared.retire(job, JobState::Cancelled);
            let record = JobRecord {
                engine_snapshot,
                ..record_of(job)
            };
            st.live -= 1;
            lock(&self.shared.registry).inc("serve.cancelled", 1);
            record
        };
        let _ = self.spool.save(&record);
        self.shared.progress.notify_all();
        true
    }

    /// Blocks until the job reaches a terminal state or `timeout`
    /// passes; `true` on terminal.
    pub fn wait(&self, id: JobId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared.state);
        loop {
            match st.jobs.get(&id) {
                None => return false,
                Some(job) if job.state.is_terminal() => return true,
                Some(_) => {}
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .shared
                .progress
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// Blocks until every admitted job is terminal or `timeout` passes;
    /// `true` when all are terminal.
    pub fn wait_all(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.shared.state);
        loop {
            if st.live == 0 {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .shared
                .progress
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    /// A point-in-time copy of the runtime's metrics registry.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        {
            let st = lock(&self.shared.state);
            let mut reg = lock(&self.shared.registry);
            reg.set_gauge("serve.jobs_live", st.live as f64);
            reg.set_gauge("serve.jobs_total", st.jobs.len() as f64);
            let queued: usize = st.tenants.values().map(|t| t.queue.len()).sum();
            reg.set_gauge("serve.jobs_queued", queued as f64);
            reg.set_gauge("serve.tenants", st.tenants.len() as f64);
            reg.set_gauge("serve.jobs_poisoned", st.poisoned as f64);
            let retained = self.shared.checkpoint_bytes.load(Ordering::Relaxed)
                + self.shared.event_bytes.load(Ordering::Relaxed);
            reg.set_gauge("serve.retained_bytes", retained as f64);
            reg.set_gauge(
                "serve.spool_degraded",
                f64::from(u8::from(self.shared.degraded.load(Ordering::Acquire))),
            );
        }
        lock(&self.shared.registry).snapshot()
    }

    /// Liveness/readiness summary for the health endpoints.
    #[must_use]
    pub fn health(&self) -> HealthReport {
        let st = lock(&self.shared.state);
        HealthReport {
            degraded: self.shared.degraded.load(Ordering::Acquire),
            draining: self.shared.draining.load(Ordering::Acquire) || st.stopping,
            live: st.live,
            queued: st.tenants.values().map(|t| t.queue.len()).sum(),
            poisoned: st.poisoned,
        }
    }

    /// `true` while the runtime accepts new jobs (readiness probe).
    #[must_use]
    pub fn ready(&self) -> bool {
        !self.shared.draining.load(Ordering::Acquire) && !lock(&self.shared.state).stopping
    }

    /// Graceful drain: closes admission, waits for the in-flight slice
    /// batch to reintegrate, persists every runnable job's current
    /// checkpoint, and reports counts. The scheduler thread stays alive
    /// but idle; jobs remain resumable by a runtime restarted over the
    /// same spool. Idempotent — a second drain re-persists and
    /// re-counts.
    pub fn drain(&self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        // Wait until no engine is out on the slice pool.
        {
            let mut st = lock(&self.shared.state);
            while self.shared.in_flight.load(Ordering::Acquire) > 0 {
                let (guard, _) = self
                    .shared
                    .progress
                    .wait_timeout(st, Duration::from_millis(20))
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
        }
        let mut report = DrainReport::default();
        let records: Vec<(JobRecord, Option<Vec<u8>>)> = {
            let st = lock(&self.shared.state);
            st.jobs
                .values()
                .filter(|job| !job.state.is_terminal())
                .map(|job| {
                    let nested = job.engine.as_ref().map(|e| e.snapshot().to_bytes());
                    (record_of(job), nested)
                })
                .collect()
        };
        report.terminal = {
            let st = lock(&self.shared.state);
            st.jobs.values().filter(|j| j.state.is_terminal()).count()
        };
        for (record, nested) in &records {
            if persist_with_retry(self.shared.as_ref(), &self.spool, record, nested.as_deref()) {
                report.persisted += 1;
            } else {
                report.failed += 1;
            }
        }
        lock(&self.shared.registry).inc("serve.drains", 1);
        report
    }

    /// Plain-text metrics document, as served by `GET /metrics`.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        crate::metrics::render(&self.metrics_snapshot())
    }

    fn stop(&self, hard: bool) {
        self.shared.hard_drop.store(hard, Ordering::Release);
        {
            let mut st = lock(&self.shared.state);
            st.stopping = true;
        }
        self.shared.wake.notify_all();
        if let Some(worker) = lock(&self.worker).take() {
            let _ = worker.join();
        }
    }

    /// Graceful shutdown: stops admitting, finishes the in-flight slice
    /// batch (persisting it), and joins the scheduler thread. All
    /// non-terminal jobs remain in the spool for the next start.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.stop(false);
    }

    /// Crash simulation: stops like a `kill -9` at a slice boundary —
    /// the in-flight batch is **discarded without persisting**, so the
    /// spool holds each job's previous slice. A runtime restarted over
    /// the same spool replays the lost work bit-identically.
    pub fn abandon(&self) {
        self.stop(true);
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.stop(false);
    }
}

/// Admits `job` into the shared state: indexes it and queues it on its
/// tenant (registering the tenant in the ring on first sight).
fn enqueue(st: &mut State, job: Job) {
    let tenant_name = job.spec.tenant.clone();
    let id = job.id;
    st.jobs.insert(id, job);
    if !st.tenants.contains_key(&tenant_name) {
        st.tenants.insert(
            tenant_name.clone(),
            Tenant {
                deficit: 0,
                queue: VecDeque::new(),
                completed_slices: 0,
            },
        );
        st.ring.push_back(tenant_name.clone());
    }
    if let Some(t) = st.tenants.get_mut(&tenant_name) {
        t.queue.push_back(id);
    }
}

/// Rebuilds jobs from the spool at startup. Terminal records become
/// status-only tombstones; non-terminal records get a fresh engine
/// (rebuilt deterministically from the spec) restored from their nested
/// snapshot and re-enter the queue. A record whose engine cannot be
/// rebuilt or restored is marked [`JobState::Failed`], never dropped.
fn recover(shared: &Shared, spool: &Spool) -> RecoverReport {
    let mut report = RecoverReport::default();
    let loaded = match spool.load() {
        Ok(loaded) => loaded,
        Err(_) => return report,
    };
    report.skipped = loaded.skipped.len();
    let mut st = lock(&shared.state);
    for (record, checkpoint) in loaded.records {
        st.next_id = st.next_id.max(record.id.0 + 1);
        let stream = shared.new_stream();
        let mut tombstone = |st: &mut State, state: JobState, stream: JsonlStream| {
            stream.close();
            if matches!(state, JobState::Poisoned(_)) {
                st.poisoned += 1;
            }
            let mut job = Job::tombstone(
                record.id,
                record.spec.clone(),
                Termination::new().max_generations(0),
                state,
                stream,
            );
            job.slices = record.slices;
            job.steps = record.steps;
            job.consumed = record.consumed;
            job.retries = record.retries;
            job.progress = record.progress;
            st.jobs.insert(record.id, job);
            report.terminal += 1;
        };
        if record.state.is_terminal() {
            tombstone(&mut st, record.state.clone(), stream);
            continue;
        }
        let termination = match record.spec.budget.to_termination() {
            Ok(t) => t,
            Err(e) => {
                tombstone(
                    &mut st,
                    JobState::Failed(format!("bad budget: {e}")),
                    stream,
                );
                continue;
            }
        };
        let mut engine = match build_engine(&record.spec, Some(stream.clone())) {
            Ok(engine) => engine,
            Err(e) => {
                tombstone(
                    &mut st,
                    JobState::Failed(format!("rebuild failed: {e}")),
                    stream,
                );
                continue;
            }
        };
        if let Some(snapshot) = &record.engine_snapshot {
            // Dispatch on the header tag before attempting a decode: a
            // snapshot from the wrong family is a corrupt spool pairing.
            // The tag comes from the family registry — the same source
            // the engine was built from, so a registered family is
            // always resolvable here.
            let Some(expected) = crate::factory::Registries::builtin()
                .families
                .snapshot_tag(record.spec.engine.family())
            else {
                tombstone(
                    &mut st,
                    JobState::Failed(format!(
                        "unknown engine family `{}`",
                        record.spec.engine.family()
                    )),
                    stream,
                );
                continue;
            };
            if snapshot.engine_tag() != expected {
                tombstone(
                    &mut st,
                    JobState::Failed(format!(
                        "spool snapshot is `{}`, spec wants `{expected}`",
                        snapshot.engine_tag()
                    )),
                    stream,
                );
                continue;
            }
            if let Err(e) = engine.restore(snapshot) {
                tombstone(
                    &mut st,
                    JobState::Failed(format!("restore failed: {e:?}")),
                    stream,
                );
                continue;
            }
        }
        let mut job = Job::new(record.id, record.spec.clone(), termination, engine, stream);
        job.state = record.state.clone();
        job.slices = record.slices;
        job.steps = record.steps;
        job.consumed = record.consumed;
        job.retries = record.retries;
        // The bytes the scan verified are the snapshot's encoding: the
        // resurrection checkpoint reuses them.
        shared.set_resume_from(&mut job, checkpoint);
        job.progress = record.progress;
        st.live += 1;
        enqueue(&mut st, job);
        report.resumed += 1;
    }
    drop(st);
    let mut reg = lock(&shared.registry);
    reg.inc("serve.recovered", report.resumed as u64);
    reg.inc("serve.recover_skipped", report.skipped as u64);
    report
}

/// Picks the next batch: visits tenants round-robin, granting each at
/// most one job slice per pass, until `max_batch` jobs are selected or a
/// full silent pass happens.
fn select_batch(st: &mut State, config: &ServeConfig) -> Vec<SliceTask> {
    let mut batch = Vec::new();
    let deficit_cap = config.steps_per_slice.max(config.quantum_steps) * 2;
    let mut remaining = st.ring.len();
    let now = Instant::now();
    while batch.len() < config.max_batch && remaining > 0 {
        remaining -= 1;
        let Some(tenant_name) = st.ring.pop_front() else {
            break;
        };
        st.ring.push_back(tenant_name.clone());
        // Skip terminal ids that were cancelled while queued, and defer
        // (requeue without selecting) jobs inside their resurrection
        // backoff window.
        let mut deferred: Vec<JobId> = Vec::new();
        let id = loop {
            let Some(t) = st.tenants.get_mut(&tenant_name) else {
                break None;
            };
            match t.queue.pop_front() {
                None => {
                    t.deficit = 0;
                    break None;
                }
                Some(id) => match st.jobs.get(&id) {
                    Some(j) if j.state.is_terminal() => {}
                    Some(j) if j.backoff_pending(now) => deferred.push(id),
                    Some(_) => break Some(id),
                    None => {}
                },
            }
        };
        if let Some(t) = st.tenants.get_mut(&tenant_name) {
            t.queue.extend(deferred);
        }
        let Some(id) = id else { continue };
        let allowance = {
            let Some(t) = st.tenants.get_mut(&tenant_name) else {
                continue;
            };
            t.deficit = (t.deficit + config.quantum_steps).min(deficit_cap);
            t.deficit.min(config.steps_per_slice)
        };
        let Some(job) = st.jobs.get_mut(&id) else {
            continue;
        };
        let Some(engine) = job.engine.take() else {
            continue;
        };
        let first_slice = job.steps == 0 && job.slices == 0;
        job.state = JobState::Running;
        job.not_before = None;
        let chaos = match &config.chaos {
            Some(injector) => injector.on_slice(&tenant_name),
            None => SliceChaos::None,
        };
        batch.push(SliceTask {
            id,
            tenant: tenant_name,
            spec: job.spec.clone(),
            engine: Some(engine),
            termination: job.termination.clone(),
            cancel: Arc::clone(&job.cancel),
            allowance,
            consumed: job.consumed,
            prior_slices: job.slices,
            prior_steps: job.steps,
            prior_retries: job.retries,
            first_slice,
            chaos,
            steps_run: 0,
            evals_folded: 0,
            slice_time: Duration::ZERO,
            end: SliceEnd::Yield,
            progress: job.progress,
            snapshot: None,
        });
    }
    batch
}

/// Runs one slice: check-then-poll until the termination rule fires,
/// the cancel flag is seen, or the allowance is spent. Mirrors the core
/// driver's loop exactly, with elapsed time measured as the job's
/// *accumulated active* time (so queueing delay never consumes a
/// wall-clock budget).
///
/// Engines are advanced through [`Engine::poll_step`], not `step`, so
/// asynchronous engines are charged on evaluations actually folded
/// rather than on generation barriers: a poll that folds in-flight work
/// without closing a generation still spends allowance, and a poll that
/// finds nothing ready yields the slice instead of spinning.
fn run_slice(task: &mut SliceTask) {
    let Some(engine) = task.engine.as_mut() else {
        task.end = SliceEnd::Failed("slice dispatched without an engine".into());
        return;
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        match task.chaos {
            SliceChaos::None => {}
            // Scripted engine crash: unwinds into the catch below, the
            // same path a genuine engine bug takes.
            SliceChaos::Panic => panic!("chaos: injected slice panic"),
            // Scripted stall: burns wall-clock inside the slice so the
            // watchdog deadline sees an over-budget yield.
            SliceChaos::Stall(pause) => std::thread::sleep(pause),
        }
        if task.first_slice {
            engine.record_run_started();
        }
        let mut steps_run = 0u64;
        let mut evals_folded = 0u64;
        let end = loop {
            let elapsed = match engine.clock() {
                Clock::Wall => task.consumed + start.elapsed(),
                Clock::Virtual(simulated) => simulated,
            };
            let progress = engine.progress(elapsed);
            if let Some(reason) = task.termination.check(&progress) {
                break SliceEnd::Done(reason);
            }
            if engine.halted() {
                break SliceEnd::Done(StopReason::Halted);
            }
            if task.cancel.load(Ordering::Acquire) {
                break SliceEnd::Cancelled;
            }
            if steps_run >= task.allowance {
                break SliceEnd::Yield;
            }
            let poll = engine.poll_step();
            if poll.folded == 0 && poll.report.is_none() {
                // Nothing was ready to fold: yield the slice rather than
                // busy-wait on in-flight evaluations.
                break SliceEnd::Yield;
            }
            evals_folded += poll.folded;
            steps_run += 1;
        };
        if matches!(end, SliceEnd::Done(_) | SliceEnd::Cancelled) {
            engine.record_run_finished();
        }
        let slice_time = start.elapsed();
        let elapsed = match engine.clock() {
            Clock::Wall => task.consumed + slice_time,
            Clock::Virtual(simulated) => simulated,
        };
        let p = engine.progress(elapsed);
        (
            end,
            steps_run,
            evals_folded,
            slice_time,
            JobProgress {
                generations: p.generations,
                evaluations: p.evaluations,
                best_fitness: p.best_fitness,
                best_is_optimal: p.best_is_optimal,
            },
            engine.snapshot().to_shared_bytes(),
        )
    }));
    match result {
        Ok((end, steps_run, evals_folded, slice_time, progress, snapshot)) => {
            task.end = end;
            task.steps_run = steps_run;
            task.evals_folded = evals_folded;
            task.slice_time = slice_time;
            task.progress = progress;
            task.snapshot = Some(snapshot);
        }
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "engine panicked".to_string());
            // The engine is in an unknown (but memory-safe) state; drop
            // it and keep the job's previous spool record as its last
            // good checkpoint.
            task.engine = None;
            task.end = SliceEnd::Failed(message);
        }
    }
}

/// Persists `record`, retrying with a short backoff before giving up.
/// Failure flips the runtime into degraded mode (jobs continue on
/// in-memory checkpoints); the next success clears it. Returns whether
/// the record reached the spool. `nested` is the engine snapshot,
/// pre-encoded (see [`Spool::save_with`]).
fn persist_with_retry(
    shared: &Shared,
    spool: &Spool,
    record: &JobRecord,
    nested: Option<&[u8]>,
) -> bool {
    const ATTEMPTS: u32 = 3;
    for attempt in 0..ATTEMPTS {
        match spool.save_with(record, nested) {
            Ok(()) => {
                if shared.degraded.swap(false, Ordering::AcqRel) {
                    // Left degraded mode: persistence is healthy again.
                    let errors = lock(&shared.registry).counter("serve.spool_errors");
                    record_event(
                        shared,
                        record.id,
                        EventKind::SpoolDegraded {
                            errors,
                            degraded: false,
                        },
                    );
                }
                return true;
            }
            Err(_) if attempt + 1 < ATTEMPTS => {
                lock(&shared.registry).inc("serve.spool_errors", 1);
                std::thread::sleep(Duration::from_millis(1 << attempt));
            }
            Err(_) => {
                let errors = {
                    let mut reg = lock(&shared.registry);
                    reg.inc("serve.spool_errors", 1);
                    reg.counter("serve.spool_errors")
                };
                if !shared.degraded.swap(true, Ordering::AcqRel) {
                    record_event(
                        shared,
                        record.id,
                        EventKind::SpoolDegraded {
                            errors,
                            degraded: true,
                        },
                    );
                }
                return false;
            }
        }
    }
    false
}

/// Records a scheduler-level lifecycle event onto the job's stream.
fn record_event(shared: &Shared, id: JobId, kind: EventKind) {
    let stream = lock(&shared.state).jobs.get(&id).map(|j| j.stream.clone());
    if let Some(mut stream) = stream {
        stream.record(&Event::new(kind));
    }
}

/// Rebuilds a crashed job's engine from its spec and restores it from
/// the in-memory last-good snapshot. The check-then-step slice contract
/// makes the replay bit-identical to the lost work.
fn resurrect(job: &mut Job) -> Result<(), String> {
    let mut engine = build_engine(&job.spec, Some(job.stream.clone()))
        .map_err(|e| format!("rebuild failed: {e}"))?;
    if let Some(bytes) = &job.resume_from {
        let snapshot =
            Snapshot::from_bytes(bytes).map_err(|e| format!("bad resume snapshot: {e:?}"))?;
        engine
            .restore(&snapshot)
            .map_err(|e| format!("restore failed: {e:?}"))?;
    }
    job.engine = Some(engine);
    Ok(())
}

/// The scheduler thread: select → slice in parallel → persist →
/// reintegrate, until stopped. While draining it idles without
/// selecting, so `drain()` can persist a quiescent state.
fn scheduler_loop(shared: &Shared, spool: &Spool) {
    use rayon::prelude::ParallelSliceMut;
    loop {
        let mut batch = {
            let mut st = lock(&shared.state);
            loop {
                if st.stopping {
                    return;
                }
                if !shared.draining.load(Ordering::Acquire) {
                    let batch = select_batch(&mut st, &shared.config);
                    if !batch.is_empty() {
                        // Published under the state lock that took the
                        // engines out, so `drain` (which reads it under
                        // the same lock) never sees a checked-out engine
                        // with nothing in flight.
                        shared.in_flight.store(batch.len(), Ordering::Release);
                        break batch;
                    }
                }
                // Nothing runnable now. If jobs are only backoff-gated,
                // sleep just past the earliest gate instead of forever.
                // Gated jobs wait in their tenant's queue.
                let now = Instant::now();
                let earliest = st
                    .tenants
                    .values()
                    .flat_map(|t| &t.queue)
                    .filter_map(|id| st.jobs.get(id)?.not_before)
                    .filter(|t| *t > now)
                    .min();
                st = match earliest {
                    Some(gate) => {
                        let wait = gate.saturating_duration_since(now) + Duration::from_millis(1);
                        shared
                            .wake
                            .wait_timeout(st, wait)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                    None => shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
                };
            }
        };
        // Slices run in parallel on the global work-stealing pool; each
        // engine may itself fan out below this level.
        let _: usize = batch
            .par_iter_mut()
            .with_min_len(1)
            .map(|task| {
                run_slice(task);
                1usize
            })
            .sum();
        if shared.hard_drop.load(Ordering::Acquire) {
            // Simulated crash: the batch is lost, nothing is persisted.
            shared.in_flight.store(0, Ordering::Release);
            return;
        }
        // Watchdog: a yielded slice that blew its deadline is treated
        // exactly like a crash — the engine is discarded (its wall-clock
        // behaviour is no longer trusted) and the job replays from its
        // last good snapshot, which the check-then-step contract makes
        // bit-identical.
        let deadline = Duration::from_millis(shared.config.slice_deadline_ms);
        if !deadline.is_zero() {
            for task in &mut batch {
                if matches!(task.end, SliceEnd::Yield) && task.slice_time > deadline {
                    task.engine = None;
                    task.snapshot = None;
                    task.end = SliceEnd::Failed(format!(
                        "watchdog: slice exceeded {} ms deadline",
                        deadline.as_millis()
                    ));
                    lock(&shared.registry).inc("serve.stalled", 1);
                }
            }
        }
        // Persist every slice before reintegration: once a job is
        // visible as progressed, its checkpoint is already durable.
        // (Crashed slices are skipped: a panicked engine has no
        // trustworthy snapshot; their terminal or retry record is
        // written after reintegration.)
        for task in &batch {
            let state = match &task.end {
                SliceEnd::Yield => JobState::Running,
                SliceEnd::Done(reason) => JobState::Done(*reason),
                SliceEnd::Cancelled => JobState::Cancelled,
                SliceEnd::Failed(_) => continue,
            };
            let record = JobRecord {
                id: task.id,
                spec: task.spec.clone(),
                state,
                slices: task.prior_slices + 1,
                steps: task.prior_steps + task.steps_run,
                consumed: task.consumed + task.slice_time,
                retries: task.prior_retries,
                progress: task.progress,
                engine_snapshot: None,
            };
            persist_with_retry(shared, spool, &record, task.snapshot.as_deref());
        }
        // Reintegrate under the lock. Deferred records (quarantines and
        // retry checkpoints) are written after the lock drops.
        let mut deferred_records = Vec::new();
        {
            let mut st = lock(&shared.state);
            let mut reg = lock(&shared.registry);
            for task in batch {
                reg.inc("serve.slices", 1);
                reg.observe("serve.slice_micros", task.slice_time.as_micros() as f64);
                if let Some(t) = st.tenants.get_mut(&task.tenant) {
                    t.deficit = t.deficit.saturating_sub(task.steps_run);
                    t.completed_slices += 1;
                }
                let Some(job) = st.jobs.get_mut(&task.id) else {
                    continue;
                };
                if !matches!(task.end, SliceEnd::Failed(_)) {
                    // Crashed slices contribute nothing: their deltas
                    // are discarded with the engine, so counters always
                    // match the last good snapshot.
                    reg.inc("serve.steps", task.steps_run);
                    reg.inc("serve.evals_folded", task.evals_folded);
                    job.slices += 1;
                    job.steps += task.steps_run;
                    job.consumed += task.slice_time;
                    job.progress = task.progress;
                }
                match task.end {
                    SliceEnd::Yield => {
                        job.engine = task.engine;
                        shared.set_resume_from(job, task.snapshot);
                        if let Some(t) = st.tenants.get_mut(&task.tenant) {
                            t.queue.push_back(task.id);
                        }
                    }
                    SliceEnd::Done(reason) => {
                        shared.retire(job, JobState::Done(reason));
                        st.live -= 1;
                        reg.inc("serve.completed", 1);
                    }
                    SliceEnd::Cancelled => {
                        shared.retire(job, JobState::Cancelled);
                        st.live -= 1;
                        reg.inc("serve.cancelled", 1);
                    }
                    SliceEnd::Failed(message) => {
                        reg.inc("serve.slice_crashes", 1);
                        let budget = shared.config.retry_budget;
                        let outcome = if job.retries < budget {
                            resurrect(job)
                                .map_err(|e| format!("{message} (resurrection failed: {e})"))
                        } else {
                            Err(format!(
                                "retry budget exhausted after {budget} retries: {message}"
                            ))
                        };
                        let (requeued, nested) = match outcome {
                            Ok(()) => {
                                // Bounded-retry resurrection: requeue
                                // behind an exponential backoff gate.
                                job.retries += 1;
                                let shift = (job.retries - 1).min(16) as u32;
                                let backoff = Duration::from_millis(
                                    shared.config.backoff_base_ms.saturating_mul(1u64 << shift),
                                );
                                job.not_before = Some(Instant::now() + backoff);
                                job.state = JobState::Queued;
                                reg.inc("serve.retries", 1);
                                job.stream.record(&Event::new(EventKind::JobRetried {
                                    job: task.id.0,
                                    attempt: job.retries,
                                    backoff_micros: backoff.as_micros() as u64,
                                }));
                                (true, job.resume_from.clone())
                            }
                            Err(reason) => {
                                // Budget exhausted (or resurrection
                                // itself failed): quarantine. The pool
                                // keeps running; the job never does.
                                job.stream.record(&Event::new(EventKind::JobPoisoned {
                                    job: task.id.0,
                                    retries: job.retries,
                                    reason: reason.clone(),
                                }));
                                reg.inc("serve.poisoned", 1);
                                (false, shared.retire(job, JobState::Poisoned(reason)))
                            }
                        };
                        // Either way the outcome must survive a restart:
                        // a retry record keeps the count mid-budget, a
                        // poison record keeps the quarantine. Both carry
                        // the last good checkpoint's bytes as they are.
                        deferred_records.push((record_of(job), nested));
                        if requeued {
                            if let Some(t) = st.tenants.get_mut(&task.tenant) {
                                t.queue.push_back(task.id);
                            }
                        } else {
                            st.live -= 1;
                            st.poisoned += 1;
                        }
                    }
                }
            }
        }
        for (record, nested) in &deferred_records {
            persist_with_retry(shared, spool, record, nested.as_deref());
        }
        shared.in_flight.store(0, Ordering::Release);
        shared.progress.notify_all();
    }
}
