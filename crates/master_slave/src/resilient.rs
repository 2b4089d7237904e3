//! Fault-tolerant threaded master–slave evaluation.
//!
//! [`RayonEvaluator`](crate::RayonEvaluator) is fast but failure-oblivious:
//! a lost or wedged worker takes the whole batch down with it. The
//! discrete-event [`SimulatedMasterSlaveGa`](crate::SimulatedMasterSlaveGa)
//! is failure-aware but virtual-time only. [`ResilientEvaluator`] closes the
//! gap — a real-thread manager/worker runtime in the mould of Gagné et al.
//! (2003) and Lobo et al.'s manager/worker architecture:
//!
//! * the master dispatches one evaluation task at a time to long-lived
//!   worker threads over channels, with a **per-task deadline**;
//! * idle workers emit **heartbeats**, so a silent worker can be told apart
//!   from a merely busy one;
//! * an overdue task is first **retried speculatively** on another worker
//!   (exponential backoff per attempt); continued silence past the
//!   heartbeat timeout **quarantines** the worker and requeues its task;
//! * a **panicking** fitness evaluation is caught in the worker, reported,
//!   and permanently quarantines that worker; the task is reassigned;
//! * a quarantined-by-timeout worker that produces late evidence of life
//!   (result or heartbeat) **recovers** and rejoins the rotation;
//! * when every worker is gone the master **degrades gracefully** and
//!   evaluates the remainder inline — a batch always completes.
//!
//! Faults can be injected deterministically through a seeded
//! [`FaultPlan`], the task-count analogue of the
//! simulator's `FailurePlan`, so the same fault description drives both
//! runtimes (experiment E17 cross-validates them).
//!
//! ## Determinism contract
//!
//! Fitness is pure ([`Problem::evaluate`]), so *search behaviour never
//! depends on scheduling*: whatever the interleaving, retries, or worker
//! losses, each unevaluated member receives exactly the fitness the serial
//! evaluator would assign, exactly once — bit-identical populations, any
//! worker count, any fault plan. Only wall-clock time and the lifecycle
//! *trace* (dispatch order, retry counts) vary with scheduling.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pga_cluster::{FaultPlan, WorkerFault};
use pga_core::{ConfigError, Evaluator, Individual, Problem};
use pga_observe::{Event, EventKind, Recorder, Stopwatch};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work: evaluate `genome`, report fitness.
///
/// Shared with the asynchronous steady-state engine (`async_steady`), which
/// runs the same worker loop without the batch barrier.
pub(crate) struct Task<G> {
    pub(crate) batch: u64,
    pub(crate) id: u64,
    pub(crate) genome: G,
}

/// Worker → master report stream (one shared channel).
pub(crate) enum Report {
    Done {
        worker: usize,
        batch: u64,
        task: u64,
        fitness: f64,
    },
    Panicked {
        worker: usize,
        batch: u64,
        task: u64,
    },
    Heartbeat {
        worker: usize,
    },
}

/// Master-side view of one worker thread.
#[derive(Clone, Copy)]
enum SlotState {
    /// Ready for a task.
    Idle,
    /// Evaluating (as far as the master knows).
    Busy {
        batch: u64,
        task: u64,
        deadline: Instant,
        /// A speculative copy of the task has already been requeued; the
        /// next expiry escalates to quarantine instead of another retry.
        retried: bool,
    },
    /// Quarantined after missed heartbeats — may recover on late evidence
    /// of life.
    Suspect,
    /// Permanently out of service (panicked or channel disconnected).
    Gone,
}

struct Slot<G> {
    tx: Option<Sender<Task<G>>>,
    handle: Option<JoinHandle<()>>,
    state: SlotState,
    last_seen: Instant,
}

impl<G> Slot<G> {
    fn is_dispatchable(&self) -> bool {
        self.tx.is_some() && matches!(self.state, SlotState::Idle)
    }

    /// Counts toward the survivor set (not written off).
    fn is_live(&self) -> bool {
        self.tx.is_some() && matches!(self.state, SlotState::Idle | SlotState::Busy { .. })
    }
}

/// A task waiting (re)dispatch.
struct Pending {
    task: u64,
    attempt: u64,
    not_before: Instant,
}

/// Lifetime counters of a [`ResilientEvaluator`] (mirrors the
/// `resilient.*` metrics emitted through the recorder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// Batches evaluated.
    pub batches: u64,
    /// Tasks handed to workers (every delivery attempt counts).
    pub dispatched: u64,
    /// Fresh fitness values produced by workers.
    pub completed: u64,
    /// Results that arrived after the task had already been completed
    /// elsewhere (ignored for accounting — the exactly-once guarantee).
    pub late_results: u64,
    /// Speculative straggler retries.
    pub retries: u64,
    /// Tasks requeued because their worker was written off.
    pub reassignments: u64,
    /// Deadline expiries without a recent heartbeat.
    pub heartbeat_misses: u64,
    /// Workers quarantined (timeout, panic, or disconnect).
    pub quarantined: u64,
    /// Quarantined workers that rejoined the rotation.
    pub recovered: u64,
    /// Workers declared dead (missed heartbeats or disconnect).
    pub node_failures: u64,
    /// Tasks the master evaluated inline (retry budget exhausted or no
    /// live workers left).
    pub master_inline: u64,
}

/// Everything the master mutates while driving a batch. Lives behind a
/// mutex because [`Evaluator`] takes `&self`.
struct Master<G> {
    slots: Vec<Slot<G>>,
    reports: Receiver<Report>,
    /// Keeps the report channel open even with every worker gone, so
    /// `recv_timeout` yields `Timeout` (handled) instead of `Disconnected`.
    _reports_tx: Sender<Report>,
    recorder: Option<Box<dyn Recorder>>,
    stats: ResilientStats,
    batch: u64,
}

/// Fault-tolerant threaded master–slave evaluator. See the module docs for
/// the failure semantics and [`ResilientBuilder`] for configuration.
///
/// The evaluator owns its problem instance (workers hold an [`Arc`] clone),
/// so construction takes the problem up front; `evaluate_batch` asserts in
/// debug builds that it is driven with the same problem it was built for.
pub struct ResilientEvaluator<P: Problem> {
    master: Mutex<Master<P::Genome>>,
    problem: Arc<P>,
    workers: usize,
    task_deadline: Duration,
    heartbeat_interval: Duration,
    heartbeat_timeout: Duration,
    max_retries: u64,
    backoff_base: Duration,
}

/// Builder for [`ResilientEvaluator`]; validation happens in
/// [`build`](ResilientBuilder::build).
pub struct ResilientBuilder<P: Problem> {
    problem: P,
    workers: usize,
    task_deadline: Duration,
    heartbeat_interval: Duration,
    heartbeat_timeout: Duration,
    max_retries: u64,
    backoff_base: Duration,
    fault_plan: Option<FaultPlan>,
    recorder: Option<Box<dyn Recorder>>,
}

impl<P: Problem> ResilientBuilder<P> {
    fn new(problem: P, workers: usize) -> Self {
        Self {
            problem,
            workers,
            task_deadline: Duration::from_millis(100),
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(150),
            max_retries: 4,
            backoff_base: Duration::from_micros(500),
            fault_plan: None,
            recorder: None,
        }
    }

    /// Per-task deadline before the master suspects the worker (default
    /// 100 ms — generous against false positives on loaded CI hosts; lower
    /// it for fast fitness functions under fault injection).
    #[must_use]
    pub fn task_deadline(mut self, d: Duration) -> Self {
        self.task_deadline = d;
        self
    }

    /// How often idle workers emit heartbeats (default 10 ms).
    #[must_use]
    pub fn heartbeat_interval(mut self, d: Duration) -> Self {
        self.heartbeat_interval = d;
        self
    }

    /// Silence span after which an overdue worker is declared failed and
    /// quarantined (default 150 ms; must be ≥ the heartbeat interval).
    #[must_use]
    pub fn heartbeat_timeout(mut self, d: Duration) -> Self {
        self.heartbeat_timeout = d;
        self
    }

    /// Delivery attempts allowed per task beyond the first (default 4);
    /// once exhausted the master evaluates the task inline.
    #[must_use]
    pub fn max_retries(mut self, n: u64) -> Self {
        self.max_retries = n;
        self
    }

    /// Base of the exponential backoff applied before attempt `k` becomes
    /// dispatchable again: `base · 2^(k-1)` (default 500 µs).
    #[must_use]
    pub fn backoff_base(mut self, d: Duration) -> Self {
        self.backoff_base = d;
        self
    }

    /// Injects a deterministic fault script (default: no faults). The plan
    /// must cover exactly `workers` workers.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a recorder receiving every lifecycle event (dispatch,
    /// heartbeat-miss, retry, reassign, quarantine, recover) plus one
    /// `EvaluationBatch` per batch.
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Validates the configuration and spawns the worker threads.
    ///
    /// # Errors
    /// [`ConfigError::InvalidParameter`] on zero workers, zero durations,
    /// a heartbeat timeout shorter than the interval, or a fault plan whose
    /// length does not match the worker count.
    pub fn build(self) -> Result<ResilientEvaluator<P>, ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "workers",
                message: "need at least one worker thread".into(),
            });
        }
        if self.task_deadline.is_zero() {
            return Err(ConfigError::InvalidParameter {
                name: "task_deadline",
                message: "per-task deadline must be positive".into(),
            });
        }
        if self.heartbeat_interval.is_zero() {
            return Err(ConfigError::InvalidParameter {
                name: "heartbeat_interval",
                message: "heartbeat interval must be positive".into(),
            });
        }
        if self.heartbeat_timeout < self.heartbeat_interval {
            return Err(ConfigError::InvalidParameter {
                name: "heartbeat_timeout",
                message: "heartbeat timeout must be >= the heartbeat interval".into(),
            });
        }
        let plan = self
            .fault_plan
            .unwrap_or_else(|| FaultPlan::none(self.workers));
        if plan.len() != self.workers {
            return Err(ConfigError::InvalidParameter {
                name: "fault_plan",
                message: format!(
                    "fault plan covers {} workers but the pool has {}",
                    plan.len(),
                    self.workers
                ),
            });
        }

        let problem = Arc::new(self.problem);
        let (reports_tx, reports) = unbounded();
        let now = Instant::now();
        let slots = (0..self.workers)
            .map(|id| {
                let (tx, rx) = unbounded();
                let handle = spawn_worker(
                    id,
                    Arc::clone(&problem),
                    plan.fault(id).clone(),
                    rx,
                    reports_tx.clone(),
                    self.heartbeat_interval,
                );
                Slot {
                    tx: Some(tx),
                    handle: Some(handle),
                    state: SlotState::Idle,
                    last_seen: now,
                }
            })
            .collect();
        Ok(ResilientEvaluator {
            master: Mutex::new(Master {
                slots,
                reports,
                _reports_tx: reports_tx,
                recorder: self.recorder,
                stats: ResilientStats::default(),
                batch: 0,
            }),
            problem,
            workers: self.workers,
            task_deadline: self.task_deadline,
            heartbeat_interval: self.heartbeat_interval,
            heartbeat_timeout: self.heartbeat_timeout,
            max_retries: self.max_retries,
            backoff_base: self.backoff_base,
        })
    }
}

pub(crate) fn spawn_worker<P: Problem>(
    id: usize,
    problem: Arc<P>,
    fault: WorkerFault,
    tasks: Receiver<Task<P::Genome>>,
    reports: Sender<Report>,
    heartbeat_interval: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pga-resilient-{id}"))
        .spawn(move || {
            let mut received: u64 = 0;
            loop {
                match tasks.recv_timeout(heartbeat_interval) {
                    Err(RecvTimeoutError::Timeout) => {
                        if reports.send(Report::Heartbeat { worker: id }).is_err() {
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                    Ok(task) => {
                        let nth = received;
                        received += 1;
                        if fault.die_on_task == Some(nth) {
                            // Scripted silent crash: vanish mid-task.
                            return;
                        }
                        if !fault.delay_per_task.is_zero() {
                            std::thread::sleep(fault.delay_per_task);
                        }
                        let inject = fault.panic_on_task == Some(nth);
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            assert!(!inject, "injected worker panic (FaultPlan)");
                            problem.evaluate(&task.genome)
                        }));
                        let report = match outcome {
                            Ok(fitness) => Report::Done {
                                worker: id,
                                batch: task.batch,
                                task: task.id,
                                fitness,
                            },
                            Err(_) => Report::Panicked {
                                worker: id,
                                batch: task.batch,
                                task: task.id,
                            },
                        };
                        if reports.send(report).is_err() {
                            return;
                        }
                    }
                }
            }
        })
        .expect("failed to spawn resilient worker thread")
}

impl<P: Problem> ResilientEvaluator<P> {
    /// Starts configuring a pool of `workers` threads evaluating `problem`.
    #[must_use]
    pub fn builder(problem: P, workers: usize) -> ResilientBuilder<P> {
        ResilientBuilder::new(problem, workers)
    }

    /// Worker thread count (including quarantined workers).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the lifetime lifecycle counters.
    #[must_use]
    pub fn stats(&self) -> ResilientStats {
        self.lock().stats
    }

    /// Workers currently in the dispatch rotation (not written off).
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.lock().slots.iter().filter(|s| s.is_live()).count()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Master<P::Genome>> {
        // A worker panic never happens while the master lock is held (the
        // master only locks from `evaluate_batch`), but be poison-tolerant
        // anyway: the state is counters + channels, both safe to reuse.
        self.master.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn backoff(&self, attempt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(10) as u32;
        self.backoff_base.saturating_mul(2u32.saturating_pow(exp))
    }
}

impl<G> Master<G> {
    fn emit(&mut self, kind: EventKind) {
        if let Some(r) = &mut self.recorder {
            r.record(&Event::new(kind));
        }
    }

    /// Writes a worker off permanently (`Gone`).
    fn write_off(&mut self, worker: usize, reason: &str, node_failed: bool) {
        self.slots[worker].state = SlotState::Gone;
        self.slots[worker].tx = None;
        self.stats.quarantined += 1;
        if node_failed {
            self.stats.node_failures += 1;
            self.emit(EventKind::NodeFailed {
                node: worker as u32,
            });
        }
        self.emit(EventKind::WorkerQuarantined {
            worker: worker as u32,
            reason: reason.into(),
        });
    }

    /// Quarantines a worker that may still come back (`Suspect`).
    fn suspect(&mut self, worker: usize) {
        self.slots[worker].state = SlotState::Suspect;
        self.stats.quarantined += 1;
        self.stats.node_failures += 1;
        self.emit(EventKind::NodeFailed {
            node: worker as u32,
        });
        self.emit(EventKind::WorkerQuarantined {
            worker: worker as u32,
            reason: "timeout".into(),
        });
    }

    fn recover(&mut self, worker: usize) {
        self.slots[worker].state = SlotState::Idle;
        self.stats.recovered += 1;
        self.emit(EventKind::WorkerRecovered {
            worker: worker as u32,
        });
    }
}

impl<P: Problem> Evaluator<P> for ResilientEvaluator<P> {
    #[allow(clippy::too_many_lines)]
    fn evaluate_batch(&self, problem: &P, members: &mut [Individual<P::Genome>]) -> u64 {
        debug_assert_eq!(
            problem.name(),
            self.problem.name(),
            "ResilientEvaluator driven with a different problem than it was built for"
        );
        let todo: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.fitness.is_none())
            .map(|(i, _)| i)
            .collect();
        let mut master = self.lock();
        let m = &mut *master;
        m.batch += 1;
        m.stats.batches += 1;
        let batch = m.batch;
        let sw = Stopwatch::started_if(m.recorder.is_some());
        let n = todo.len();
        if n == 0 {
            let size = members.len() as u64;
            if let Some(micros) = sw.elapsed_micros() {
                m.emit(EventKind::EvaluationBatch {
                    island: 0,
                    batch,
                    size,
                    fresh: 0,
                    micros,
                });
            }
            return 0;
        }

        let genomes: Vec<P::Genome> = todo.iter().map(|&i| members[i].genome.clone()).collect();
        let mut fitness_of: Vec<Option<f64>> = vec![None; n];
        let mut attempts: Vec<u64> = vec![0; n];
        let mut remaining = n;
        let start = Instant::now();
        let mut queue: VecDeque<Pending> = (0..n)
            .map(|t| Pending {
                task: t as u64,
                attempt: 0,
                not_before: start,
            })
            .collect();

        // A fresh batch resets the clock on workers still busy with stale
        // tasks (their late results will be ignored by the batch tag).
        for slot in &mut m.slots {
            if let SlotState::Busy {
                deadline, retried, ..
            } = &mut slot.state
            {
                *deadline = start + self.task_deadline;
                *retried = false;
            }
        }

        while remaining > 0 {
            let now = Instant::now();
            queue.retain(|p| fitness_of[p.task as usize].is_none());

            // Requeue helper result: push a new delivery attempt or, once
            // the retry budget is spent, finish the task inline.
            macro_rules! requeue_or_inline {
                ($t:expr, $now:expr) => {{
                    let t = $t as usize;
                    if fitness_of[t].is_none() {
                        attempts[t] += 1;
                        if attempts[t] > self.max_retries {
                            fitness_of[t] = Some(problem.evaluate(&genomes[t]));
                            remaining -= 1;
                            m.stats.master_inline += 1;
                        } else {
                            let backoff = self.backoff(attempts[t]);
                            queue.push_back(Pending {
                                task: $t,
                                attempt: attempts[t],
                                not_before: $now + backoff,
                            });
                        }
                    }
                }};
            }

            // 1. Expire deadlines: speculate first, write the worker off on
            //    continued silence.
            for w in 0..m.slots.len() {
                let SlotState::Busy {
                    batch: task_batch,
                    task,
                    deadline,
                    retried,
                } = m.slots[w].state
                else {
                    continue;
                };
                if now < deadline {
                    continue;
                }
                let silent_for = now.duration_since(m.slots[w].last_seen);
                if !retried {
                    if task_batch == batch && fitness_of[task as usize].is_none() {
                        let t = task as usize;
                        attempts[t] += 1;
                        let backoff = self.backoff(attempts[t]);
                        if attempts[t] > self.max_retries {
                            fitness_of[t] = Some(problem.evaluate(&genomes[t]));
                            remaining -= 1;
                            m.stats.master_inline += 1;
                        } else {
                            queue.push_back(Pending {
                                task,
                                attempt: attempts[t],
                                not_before: now + backoff,
                            });
                            m.stats.retries += 1;
                            m.emit(EventKind::TaskRetried {
                                task,
                                attempt: attempts[t],
                                backoff_micros: backoff.as_micros() as u64,
                            });
                        }
                    }
                    m.slots[w].state = SlotState::Busy {
                        batch: task_batch,
                        task,
                        deadline: now + self.task_deadline,
                        retried: true,
                    };
                } else if silent_for >= self.heartbeat_timeout {
                    m.stats.heartbeat_misses += 1;
                    m.emit(EventKind::HeartbeatMissed { worker: w as u32 });
                    m.suspect(w);
                    if task_batch == batch && fitness_of[task as usize].is_none() {
                        m.stats.reassignments += 1;
                        m.emit(EventKind::TaskReassigned { task });
                        requeue_or_inline!(task, now);
                    }
                } else {
                    // Recent heartbeat: alive but slow; keep waiting.
                    m.slots[w].state = SlotState::Busy {
                        batch: task_batch,
                        task,
                        deadline: now + self.task_deadline,
                        retried: true,
                    };
                }
            }
            if remaining == 0 {
                break;
            }

            // 2. Dispatch eligible tasks to idle workers.
            'dispatch: loop {
                let idle = m.slots.iter().position(Slot::is_dispatchable);
                let Some(w) = idle else {
                    break;
                };
                let Some(pos) = queue
                    .iter()
                    .position(|p| p.not_before <= now && fitness_of[p.task as usize].is_none())
                else {
                    break;
                };
                let Some(pending) = queue.remove(pos) else {
                    break;
                };
                let task = Task {
                    batch,
                    id: pending.task,
                    genome: genomes[pending.task as usize].clone(),
                };
                let sent = m.slots[w]
                    .tx
                    .as_ref()
                    .map(|tx| tx.send(task))
                    .unwrap_or_else(|| unreachable!("dispatchable slot has a sender"));
                match sent {
                    Ok(()) => {
                        m.slots[w].state = SlotState::Busy {
                            batch,
                            task: pending.task,
                            deadline: now + self.task_deadline,
                            retried: false,
                        };
                        m.stats.dispatched += 1;
                        m.emit(EventKind::TaskDispatched {
                            worker: w as u32,
                            task: pending.task,
                            attempt: pending.attempt,
                        });
                    }
                    Err(_) => {
                        // The worker thread is gone (its receiver dropped):
                        // write it off and put the task back unchanged.
                        m.write_off(w, "disconnected", true);
                        queue.push_front(pending);
                        continue 'dispatch;
                    }
                }
            }

            // 3. Graceful degradation: no worker left to wait for.
            if m.slots.iter().all(|s| !s.is_live()) {
                for t in 0..n {
                    if fitness_of[t].is_none() {
                        fitness_of[t] = Some(problem.evaluate(&genomes[t]));
                        m.stats.master_inline += 1;
                    }
                }
                break;
            }

            // 4. Sleep until the next interesting instant, or a report.
            let mut next = now + self.heartbeat_interval;
            for slot in &m.slots {
                if let SlotState::Busy { deadline, .. } = slot.state {
                    next = next.min(deadline);
                }
            }
            for p in &queue {
                next = next.min(p.not_before);
            }
            let wait = next
                .saturating_duration_since(now)
                .max(Duration::from_micros(200));
            match m.reports.recv_timeout(wait) {
                Ok(Report::Done {
                    worker,
                    batch: task_batch,
                    task,
                    fitness,
                }) => {
                    let now = Instant::now();
                    m.slots[worker].last_seen = now;
                    match m.slots[worker].state {
                        SlotState::Busy {
                            batch: b, task: t, ..
                        } if b == task_batch && t == task => {
                            m.slots[worker].state = SlotState::Idle;
                        }
                        SlotState::Suspect => m.recover(worker),
                        _ => {}
                    }
                    if task_batch == batch && fitness_of[task as usize].is_none() {
                        fitness_of[task as usize] = Some(fitness);
                        remaining -= 1;
                        m.stats.completed += 1;
                    } else {
                        m.stats.late_results += 1;
                    }
                }
                Ok(Report::Panicked {
                    worker,
                    batch: task_batch,
                    task,
                }) => {
                    m.slots[worker].last_seen = Instant::now();
                    m.write_off(worker, "panic", false);
                    if task_batch == batch && fitness_of[task as usize].is_none() {
                        m.stats.reassignments += 1;
                        m.emit(EventKind::TaskReassigned { task });
                        requeue_or_inline!(task, Instant::now());
                    }
                }
                Ok(Report::Heartbeat { worker }) => {
                    m.slots[worker].last_seen = Instant::now();
                    if matches!(m.slots[worker].state, SlotState::Suspect) {
                        m.recover(worker);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable (we hold a sender clone), but degrade
                    // gracefully rather than spin.
                    for t in 0..n {
                        if fitness_of[t].is_none() {
                            fitness_of[t] = Some(problem.evaluate(&genomes[t]));
                            m.stats.master_inline += 1;
                        }
                    }
                    break;
                }
            }
        }

        for (slot, fitness) in todo.iter().zip(&fitness_of) {
            members[*slot].fitness = *fitness;
        }
        let size = members.len() as u64;
        if let Some(micros) = sw.elapsed_micros() {
            m.emit(EventKind::EvaluationBatch {
                island: 0,
                batch,
                size,
                fresh: n as u64,
                micros,
            });
        }
        n as u64
    }

    fn name(&self) -> &'static str {
        "resilient-master-slave"
    }
}

impl<P: Problem> Drop for ResilientEvaluator<P> {
    fn drop(&mut self) {
        let mut master = self.lock();
        for slot in &mut master.slots {
            slot.tx = None; // workers exit on channel disconnect
        }
        let handles: Vec<_> = master
            .slots
            .iter_mut()
            .filter_map(|s| s.handle.take())
            .collect();
        drop(master);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_core::{BitString, Engine, Objective, Rng64, SerialEvaluator};
    use pga_observe::{replay, MetricsRecorder, RingRecorder};

    struct OneMax(usize);
    impl Problem for OneMax {
        type Genome = BitString;
        fn name(&self) -> String {
            "onemax".into()
        }
        fn objective(&self) -> Objective {
            Objective::Maximize
        }
        fn evaluate(&self, g: &BitString) -> f64 {
            g.count_ones() as f64
        }
        fn random_genome(&self, rng: &mut Rng64) -> BitString {
            BitString::random(self.0, rng)
        }
        fn optimum(&self) -> Option<f64> {
            Some(self.0 as f64)
        }
    }

    fn batch(n: usize, bits: usize, seed: u64) -> Vec<Individual<BitString>> {
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|_| Individual::unevaluated(BitString::random(bits, &mut rng)))
            .collect()
    }

    #[test]
    fn benign_plan_matches_serial_bit_for_bit() {
        for workers in [1usize, 2, 8] {
            let mut serial = batch(100, 64, 5);
            let mut resilient = serial.clone();
            let fresh_serial = SerialEvaluator.evaluate_batch(&OneMax(64), &mut serial);
            let eval = ResilientEvaluator::builder(OneMax(64), workers)
                .build()
                .unwrap();
            let fresh = eval.evaluate_batch(&OneMax(64), &mut resilient);
            assert_eq!(fresh, fresh_serial);
            for (a, b) in serial.iter().zip(&resilient) {
                assert_eq!(a.fitness().to_bits(), b.fitness().to_bits());
            }
            assert_eq!(eval.live_workers(), workers);
        }
    }

    #[test]
    fn skips_already_evaluated_and_counts_exactly_once() {
        let eval = ResilientEvaluator::builder(OneMax(8), 2).build().unwrap();
        let mut members = vec![
            Individual::evaluated(BitString::ones(8), 8.0),
            Individual::unevaluated(BitString::zeros(8)),
        ];
        assert_eq!(eval.evaluate_batch(&OneMax(8), &mut members), 1);
        assert_eq!(eval.evaluate_batch(&OneMax(8), &mut members), 0);
        let stats = eval.stats();
        assert_eq!(stats.completed + stats.master_inline, 1);
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn panicking_worker_is_quarantined_and_tasks_reassigned() {
        let ring = RingRecorder::new(4096);
        let plan = FaultPlan::at(vec![
            WorkerFault {
                panic_on_task: Some(0),
                ..WorkerFault::healthy()
            },
            WorkerFault::healthy(),
        ]);
        // A generous deadline keeps the speculative-retry path out of this
        // test: on a loaded single-core host the panicking worker may not be
        // scheduled before the default deadline, and a deadline retry would
        // complete its task without any panic ever surfacing.
        let eval = ResilientEvaluator::builder(OneMax(32), 2)
            .task_deadline(Duration::from_secs(5))
            .heartbeat_timeout(Duration::from_secs(5))
            .fault_plan(plan)
            .recorder(ring.clone())
            .build()
            .unwrap();
        let mut members = batch(40, 32, 11);
        let mut expected = members.clone();
        SerialEvaluator.evaluate_batch(&OneMax(32), &mut expected);
        assert_eq!(eval.evaluate_batch(&OneMax(32), &mut members), 40);
        for (a, b) in expected.iter().zip(&members) {
            assert_eq!(a.fitness().to_bits(), b.fitness().to_bits());
        }
        let stats = eval.stats();
        assert!(stats.quarantined >= 1, "stats: {stats:?}");
        assert!(stats.reassignments >= 1, "stats: {stats:?}");
        assert_eq!(eval.live_workers(), 1);
        // The quarantine surfaces both as events and as metrics.
        let events = ring.events();
        assert!(events.iter().any(
            |e| matches!(&e.kind, EventKind::WorkerQuarantined { reason, .. } if reason == "panic")
        ));
        let mut metrics = MetricsRecorder::new(vec![1.0]);
        replay(&events, &mut metrics);
        assert!(metrics.registry().counter("resilient.quarantined") >= 1);
        assert!(metrics.registry().counter("cluster.reassignments") >= 1);
        assert!(metrics.registry().counter("resilient.dispatched") >= 40);
    }

    #[test]
    fn all_workers_dead_degrades_to_inline_evaluation() {
        let die = WorkerFault {
            die_on_task: Some(0),
            ..WorkerFault::healthy()
        };
        let eval = ResilientEvaluator::builder(OneMax(16), 3)
            .fault_plan(FaultPlan::at(vec![die.clone(), die.clone(), die]))
            .task_deadline(Duration::from_millis(20))
            .heartbeat_timeout(Duration::from_millis(30))
            .build()
            .unwrap();
        let mut members = batch(25, 16, 3);
        assert_eq!(eval.evaluate_batch(&OneMax(16), &mut members), 25);
        assert!(members.iter().all(|i| i.fitness.is_some()));
        let stats = eval.stats();
        assert_eq!(eval.live_workers(), 0);
        assert!(stats.master_inline >= 1, "stats: {stats:?}");
        assert_eq!(stats.completed + stats.master_inline, 25);
    }

    #[test]
    fn slowdown_triggers_speculative_retry_not_quarantine_of_result() {
        let plan = FaultPlan::at(vec![
            WorkerFault {
                delay_per_task: Duration::from_millis(30),
                ..WorkerFault::healthy()
            },
            WorkerFault::healthy(),
        ]);
        let eval = ResilientEvaluator::builder(OneMax(32), 2)
            .fault_plan(plan)
            .task_deadline(Duration::from_millis(5))
            .heartbeat_timeout(Duration::from_millis(500))
            .build()
            .unwrap();
        let mut members = batch(20, 32, 9);
        assert_eq!(eval.evaluate_batch(&OneMax(32), &mut members), 20);
        let stats = eval.stats();
        assert!(stats.retries >= 1, "stats: {stats:?}");
        assert_eq!(stats.completed + stats.master_inline, 20);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(matches!(
            ResilientEvaluator::builder(OneMax(8), 0).build(),
            Err(ConfigError::InvalidParameter {
                name: "workers",
                ..
            })
        ));
        assert!(matches!(
            ResilientEvaluator::builder(OneMax(8), 2)
                .task_deadline(Duration::ZERO)
                .build(),
            Err(ConfigError::InvalidParameter {
                name: "task_deadline",
                ..
            })
        ));
        assert!(matches!(
            ResilientEvaluator::builder(OneMax(8), 2)
                .heartbeat_interval(Duration::ZERO)
                .build(),
            Err(ConfigError::InvalidParameter {
                name: "heartbeat_interval",
                ..
            })
        ));
        assert!(matches!(
            ResilientEvaluator::builder(OneMax(8), 2)
                .heartbeat_interval(Duration::from_millis(50))
                .heartbeat_timeout(Duration::from_millis(10))
                .build(),
            Err(ConfigError::InvalidParameter {
                name: "heartbeat_timeout",
                ..
            })
        ));
        assert!(matches!(
            ResilientEvaluator::builder(OneMax(8), 2)
                .fault_plan(FaultPlan::none(3))
                .build(),
            Err(ConfigError::InvalidParameter {
                name: "fault_plan",
                ..
            })
        ));
    }

    #[test]
    fn works_as_ga_evaluator_with_same_trajectory_as_serial() {
        use pga_core::ops::{BitFlip, OnePoint, Tournament};
        use pga_core::{Ga, Scheme};
        let serial = {
            let mut ga = Ga::builder(OneMax(48))
                .seed(21)
                .pop_size(30)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(48))
                .scheme(Scheme::Generational { elitism: 1 })
                .build()
                .unwrap();
            (0..10).map(|_| ga.step().best).collect::<Vec<_>>()
        };
        let resilient = {
            let eval = ResilientEvaluator::builder(OneMax(48), 4).build().unwrap();
            let mut ga = Ga::builder(OneMax(48))
                .seed(21)
                .pop_size(30)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(48))
                .scheme(Scheme::Generational { elitism: 1 })
                .evaluator(eval)
                .build()
                .unwrap();
            (0..10).map(|_| ga.step().best).collect::<Vec<_>>()
        };
        assert_eq!(serial, resilient);
    }
}
