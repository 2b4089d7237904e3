//! Barrier-free asynchronous steady-state master–slave GA.
//!
//! The synchronous master–slave engines in this crate ([`crate::RayonEvaluator`],
//! [`crate::ResilientEvaluator`], [`crate::SimulatedMasterSlaveGa`]) all share
//! one structural property: the master submits a *batch* of evaluations and
//! waits for the whole batch before touching the population — a global
//! barrier whose cost is set by the slowest task of every round. This module
//! removes the barrier. The master keeps every worker loaded with exactly one
//! offspring and folds each result into the population *as it arrives*
//! through the steady-state [`ReplacementPolicy`], so a straggling evaluation
//! only idles its own worker (Harada & Alba / Alba–Luque asynchronous PGA
//! semantics — the E20 experiment compares the two at equal time).
//!
//! Two execution substrates behind one engine:
//!
//! * **virtual** — offspring dispatch goes through the
//!   [`AsyncDispatchSim`] streaming cluster simulator with per-task costs
//!   drawn from a seeded [`EvalCostModel`]. Arrival order is the fold order,
//!   and because the cost stream is a separate seeded RNG, the *arrival log*
//!   is fully determined by `(seed, spec, model)`: checkpoints restore
//!   bit-identically and the engine reports [`Clock::Virtual`].
//! * **threaded** — offspring are evaluated on the long-lived worker threads
//!   of the resilient runtime (the same worker loop and channel vocabulary as
//!   [`crate::ResilientEvaluator`], including seeded
//!   [`FaultPlan`] stall/panic injection). Fold order follows
//!   real arrival order, which is the whole point: throughput under
//!   heterogeneous evaluation costs beats any batch schedule.
//!
//! Search behaviour breeds through the same steady-state step as
//! [`pga_core::Ga`] ([`Variation::breed_steady`]: same operator call
//! order, same RNG discipline), so a sync-vs-async comparison isolates the
//! barrier rather than the variation pipeline. A folded result is swapped
//! into the population, and the genome that comes back (the retired
//! member, or the rejected child) is the buffer a later offspring is bred
//! into. Counters, best-ever, stagnation and events live in the shared
//! [`RunLedger`].

use crate::resilient::{spawn_worker, Report, Task};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pga_cluster::{AsyncDispatchSim, ClusterSpec, EvalCostModel, FaultPlan};
use pga_core::ops::{Crossover, Mutation, ReplacementPolicy, Selection, Variation};
use pga_core::{
    Clock, ConfigError, Driver, Engine, Genome, Incumbent, Individual, PollReport, Population,
    Problem, Progress, Rng64, RunLedger, RunOutcome, Snapshot, SnapshotError, SnapshotWriter,
    StepReport, Termination,
};
use pga_observe::{EventKind, Recorder};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Decorrelates the arrival-log RNG from the search RNG.
const COST_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Default worker heartbeat cadence for the threaded backend.
const DEFAULT_HEARTBEAT: Duration = Duration::from_millis(10);

/// Pseudo worker id reported when the master evaluates inline because every
/// worker thread is gone (graceful degradation).
fn master_worker_id(workers: usize) -> u32 {
    workers as u32
}

// ---------------------------------------------------------------------------
// Search state (backend-independent)
// ---------------------------------------------------------------------------

/// Everything the steady-state search owns: population, operators, RNG,
/// and the run ledger. Kept separate from the dispatch backend so stepping
/// can borrow both halves simultaneously.
struct Search<P: Problem> {
    problem: Arc<P>,
    selection: Box<dyn Selection<P::Genome>>,
    variation: Variation<P::Genome>,
    replacement: ReplacementPolicy,
    rng: Rng64,
    /// Genomes handed back by folds, which later offspring are bred into.
    free: Vec<P::Genome>,
    /// Takes the crossover's second child, which steady-state drops.
    spare: Option<P::Genome>,
    population: Population<P::Genome>,
    ledger: RunLedger<P::Genome>,
    /// Results folded since the last generation boundary.
    folded_in_step: u64,
    /// Global 0-based fold sequence number (the arrival-log position).
    fold_seq: u64,
    /// Whether a fold since the last generation boundary improved the best.
    improved_in_step: bool,
}

impl<P: Problem> Search<P> {
    /// Breeds one offspring with `Ga`'s steady-state step, into a genome
    /// from the free list when there is one.
    fn breed(&mut self) -> P::Genome {
        self.variation.breed_steady(
            &self.population,
            self.problem.objective(),
            self.selection.as_ref(),
            self.free.pop(),
            &mut self.spare,
            &mut self.rng,
        )
    }

    /// Folds one arrived evaluation into the population — the async hot
    /// path. Never waits for anything.
    fn fold(&mut self, worker: u32, genome: P::Genome, fitness: f64, clock_micros: u64) {
        let objective = self.problem.objective();
        self.ledger.count_evaluations(1);
        self.folded_in_step += 1;
        self.improved_in_step |= self.ledger.offer(&genome, fitness);
        let mut incomer = Individual::evaluated(genome, fitness);
        self.replacement
            .insert(&mut self.population, &mut incomer, objective, &mut self.rng);
        self.free.push(incomer.genome);
        let seq = self.fold_seq;
        self.fold_seq += 1;
        let island = self.ledger.trace_island();
        self.ledger.emit(EventKind::AsyncFold {
            island,
            seq,
            worker,
            clock_micros,
        });
    }

    /// Closes one generation-equivalent (`pop_size` folds) and reports it.
    fn finish_generation(&mut self) -> StepReport {
        let improved = std::mem::take(&mut self.improved_in_step);
        self.folded_in_step = 0;
        let pop = self.population.stats(self.problem.objective());
        self.ledger
            .close_generation(&*self.problem, improved, pop.best, pop.mean)
    }
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// One in-flight virtual evaluation.
struct InFlight<G> {
    genome: G,
    done_at: f64,
}

/// Virtual-time dispatch over the streaming cluster simulator.
struct VirtualBackend<G> {
    sim: AsyncDispatchSim,
    cost_model: EvalCostModel,
    /// Seeded arrival-log stream, separate from the search RNG so the fold
    /// order replays identically from a checkpoint.
    cost_rng: Rng64,
    /// Virtual seconds at the last fold.
    clock: f64,
    /// One slot per node.
    in_flight: Vec<Option<InFlight<G>>>,
}

/// Master-side view of one long-lived worker thread.
struct WorkerSlot<G> {
    tx: Option<Sender<Task<G>>>,
    handle: Option<JoinHandle<()>>,
    /// `(task id, genome)` currently on this worker; results are matched by
    /// task id so a stale report (after a restore) can never fold as the
    /// wrong genome.
    in_flight: Option<(u64, G)>,
}

/// Real-thread dispatch over the resilient worker loop.
struct ThreadedBackend<P: Problem> {
    slots: Vec<WorkerSlot<P::Genome>>,
    reports: Receiver<Report>,
    started: Instant,
    /// Genomes awaiting (re)dispatch: restored checkpoint backlog and
    /// requeues after an injected worker panic.
    backlog: VecDeque<P::Genome>,
    next_task: u64,
}

impl<P: Problem> Drop for ThreadedBackend<P> {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            slot.tx = None;
        }
        for slot in &mut self.slots {
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

enum Backend<P: Problem> {
    Virtual(VirtualBackend<P::Genome>),
    Threaded(ThreadedBackend<P>),
}

// --- virtual stepping ------------------------------------------------------

impl<P: Problem> Search<P> {
    /// Keeps every simulated node loaded with exactly one offspring.
    fn fill_virtual(&mut self, v: &mut VirtualBackend<P::Genome>) {
        for node in 0..v.in_flight.len() {
            if v.in_flight[node].is_none() {
                let genome = self.breed();
                let cost = v.cost_model.sample(&mut v.cost_rng);
                let done_at = v.sim.dispatch(node, cost, v.clock);
                v.in_flight[node] = Some(InFlight { genome, done_at });
            }
        }
    }

    /// Folds the earliest arrival (lowest node index on ties) and advances
    /// the virtual clock to it.
    fn fold_one_virtual(&mut self, v: &mut VirtualBackend<P::Genome>) {
        let mut earliest: Option<(usize, f64)> = None;
        for (node, slot) in v.in_flight.iter().enumerate() {
            if let Some(t) = slot {
                let better = match earliest {
                    None => true,
                    Some((_, best)) => t.done_at < best,
                };
                if better {
                    earliest = Some((node, t.done_at));
                }
            }
        }
        if let Some((node, _)) = earliest {
            if let Some(InFlight { genome, done_at }) = v.in_flight[node].take() {
                v.clock = v.clock.max(done_at);
                let fitness = self.problem.evaluate(&genome);
                let micros = (v.clock * 1e6) as u64;
                self.fold(node as u32, genome, fitness, micros);
            }
        }
    }

    fn step_virtual(&mut self, v: &mut VirtualBackend<P::Genome>) -> StepReport {
        let target = self.population.len() as u64;
        while self.folded_in_step < target {
            self.fill_virtual(v);
            self.fold_one_virtual(v);
        }
        self.finish_generation()
    }
}

// --- threaded stepping -----------------------------------------------------

impl<P: Problem> Search<P> {
    /// Hands one offspring to every idle live worker. Backlogged genomes
    /// (restored checkpoints, panic requeues) go out before fresh breeding.
    fn fill_threaded(&mut self, t: &mut ThreadedBackend<P>) {
        for slot in &mut t.slots {
            if slot.tx.is_none() || slot.in_flight.is_some() {
                continue;
            }
            let genome = t.backlog.pop_front().unwrap_or_else(|| self.breed());
            let id = t.next_task;
            t.next_task += 1;
            let task = Task {
                batch: 0,
                id,
                genome: genome.clone(),
            };
            let sent = slot.tx.as_ref().is_some_and(|tx| tx.send(task).is_ok());
            if sent {
                slot.in_flight = Some((id, genome));
            } else {
                // Worker thread is gone; requeue and retire the slot.
                slot.tx = None;
                t.backlog.push_back(genome);
            }
        }
    }

    fn handle_report(&mut self, t: &mut ThreadedBackend<P>, report: Report) {
        match report {
            Report::Done {
                worker,
                task,
                fitness,
                ..
            } => {
                let matched = t.slots.get_mut(worker).and_then(|slot| {
                    slot.in_flight
                        .take_if(|(id, _)| *id == task)
                        .map(|(_, genome)| genome)
                });
                if let Some(genome) = matched {
                    let micros = t.started.elapsed().as_micros() as u64;
                    self.fold(worker as u32, genome, fitness, micros);
                }
            }
            Report::Panicked { worker, task, .. } => {
                if let Some(slot) = t.slots.get_mut(worker) {
                    if let Some((_, genome)) = slot.in_flight.take_if(|(id, _)| *id == task) {
                        t.backlog.push_back(genome);
                    }
                }
            }
            Report::Heartbeat { .. } => {}
        }
    }

    /// Evaluates one backlogged (or fresh) offspring on the master — the
    /// degradation path when every worker thread has exited.
    fn fold_inline(&mut self, t: &mut ThreadedBackend<P>) {
        let genome = t.backlog.pop_front().unwrap_or_else(|| self.breed());
        let fitness = self.problem.evaluate(&genome);
        let micros = t.started.elapsed().as_micros() as u64;
        self.fold(master_worker_id(t.slots.len()), genome, fitness, micros);
    }

    fn step_threaded(&mut self, t: &mut ThreadedBackend<P>) -> StepReport {
        let target = self.population.len() as u64;
        while self.folded_in_step < target {
            self.fill_threaded(t);
            if t.slots.iter().all(|s| s.tx.is_none()) {
                self.fold_inline(t);
                continue;
            }
            match t.reports.recv_timeout(DEFAULT_HEARTBEAT) {
                Ok(report) => self.handle_report(t, report),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    for slot in &mut t.slots {
                        slot.tx = None;
                    }
                }
            }
        }
        self.finish_generation()
    }

    /// Non-blocking: folds whatever has already arrived, tops the workers
    /// back up, and reports a generation boundary when one closes.
    fn poll_threaded(&mut self, t: &mut ThreadedBackend<P>) -> PollReport {
        let target = self.population.len() as u64;
        let before = self.fold_seq;
        self.fill_threaded(t);
        if t.slots.iter().all(|s| s.tx.is_none()) && self.folded_in_step < target {
            self.fold_inline(t);
        }
        while self.folded_in_step < target {
            match t.reports.try_recv() {
                Ok(report) => self.handle_report(t, report),
                Err(_) => break,
            }
        }
        self.fill_threaded(t);
        let report = if self.folded_in_step >= target {
            Some(self.finish_generation())
        } else {
            None
        };
        PollReport {
            folded: self.fold_seq - before,
            report,
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Asynchronous steady-state master–slave GA (see the module docs).
///
/// Build one with [`AsyncSteadyStateGa::builder`], then drive it like any
/// other [`Engine`]: `step()` is one generation-equivalent (`pop_size`
/// folds), `poll_step()` is the barrier-free increment.
pub struct AsyncSteadyStateGa<P: Problem> {
    search: Search<P>,
    backend: Backend<P>,
}

impl<P: Problem> AsyncSteadyStateGa<P> {
    /// Starts a builder over `problem`.
    #[must_use]
    pub fn builder(problem: P) -> AsyncSteadyBuilder<P> {
        AsyncSteadyBuilder::new(problem)
    }

    /// Runs until the termination rule fires via the shared [`Driver`].
    ///
    /// # Errors
    /// [`ConfigError::UnboundedTermination`] when the rule has no criteria.
    pub fn run(
        &mut self,
        termination: &Termination,
    ) -> Result<RunOutcome<Individual<P::Genome>>, ConfigError> {
        Driver::new(termination.clone()).run(self)
    }

    /// Counters (generation-equivalents completed, evaluations folded
    /// including the initial population), best individual ever folded,
    /// and recorder.
    #[must_use]
    pub fn ledger(&self) -> &RunLedger<P::Genome> {
        &self.search.ledger
    }

    /// Mutable ledger access, to attach a recorder or set the island id
    /// stamped on events.
    pub fn ledger_mut(&mut self) -> &mut RunLedger<P::Genome> {
        &mut self.search.ledger
    }

    /// The current population.
    #[must_use]
    pub fn population(&self) -> &Population<P::Genome> {
        &self.search.population
    }

    /// Virtual seconds consumed (virtual backend); `None` when threaded.
    #[must_use]
    pub fn virtual_clock(&self) -> Option<f64> {
        match &self.backend {
            Backend::Virtual(v) => Some(v.clock),
            Backend::Threaded(_) => None,
        }
    }

    /// Live worker threads (threaded backend); `None` when virtual.
    #[must_use]
    pub fn live_workers(&self) -> Option<usize> {
        match &self.backend {
            Backend::Threaded(t) => Some(t.slots.iter().filter(|s| s.tx.is_some()).count()),
            Backend::Virtual(_) => None,
        }
    }
}

impl<P: Problem> Incumbent for AsyncSteadyStateGa<P> {
    type Best = Individual<P::Genome>;

    fn best(&self) -> Self::Best {
        self.search.ledger.best_ever().clone()
    }
}

impl<P: Problem> Engine for AsyncSteadyStateGa<P> {
    fn engine_id(&self) -> &'static str {
        "async-steady"
    }

    fn step(&mut self) -> StepReport {
        match &mut self.backend {
            Backend::Virtual(v) => self.search.step_virtual(v),
            Backend::Threaded(t) => self.search.step_threaded(t),
        }
    }

    fn poll_step(&mut self) -> PollReport {
        match &mut self.backend {
            // Virtual arrivals are always "ready" (the clock only moves
            // when a result folds), so a poll completes one full
            // generation-equivalent, same as `step`.
            Backend::Virtual(v) => {
                let before = self.search.fold_seq;
                let report = self.search.step_virtual(v);
                PollReport {
                    folded: self.search.fold_seq - before,
                    report: Some(report),
                }
            }
            Backend::Threaded(t) => self.search.poll_threaded(t),
        }
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        self.search.ledger.progress(&*self.search.problem, elapsed)
    }

    fn clock(&self) -> Clock {
        match &self.backend {
            Backend::Virtual(v) => Clock::Virtual(Duration::from_secs_f64(v.clock)),
            Backend::Threaded(_) => Clock::Wall,
        }
    }

    fn record_run_started(&mut self) {
        let backend = match &self.backend {
            Backend::Virtual(_) => "virtual",
            Backend::Threaded(_) => "threaded",
        };
        let s = &mut self.search;
        s.ledger
            .record_run_started(&*s.problem, || format!("async-steady-{backend}"));
    }

    fn record_run_finished(&mut self) {
        let s = &mut self.search;
        s.ledger.record_run_finished(&*s.problem);
    }

    fn snapshot(&self) -> Snapshot {
        let s = &self.search;
        let mut w = SnapshotWriter::new();
        s.ledger.encode(&mut w);
        w.put_u64(s.folded_in_step);
        w.put_u64(s.fold_seq);
        w.put_bool(s.improved_in_step);
        w.put_rng(&s.rng);
        Individual::encode_all(s.population.members(), &mut w);
        match &self.backend {
            Backend::Virtual(v) => {
                w.put_u8(0);
                w.put_rng(&v.cost_rng);
                w.put_f64(v.clock);
                let (free_at, link_free) = v.sim.export_state();
                w.put_usize(free_at.len());
                for t in free_at {
                    w.put_f64(t);
                }
                w.put_f64(link_free);
                for slot in &v.in_flight {
                    match slot {
                        Some(task) => {
                            w.put_bool(true);
                            task.genome.encode(&mut w);
                            w.put_f64(task.done_at);
                        }
                        None => w.put_bool(false),
                    }
                }
            }
            Backend::Threaded(t) => {
                w.put_u8(1);
                // Outstanding work is checkpointed as a redispatch backlog:
                // in-flight genomes (slot order) then the queued backlog.
                let outstanding: Vec<&P::Genome> = t
                    .slots
                    .iter()
                    .filter_map(|s| s.in_flight.as_ref().map(|(_, g)| g))
                    .chain(t.backlog.iter())
                    .collect();
                w.put_usize(outstanding.len());
                for genome in outstanding {
                    genome.encode(&mut w);
                }
            }
        }
        Snapshot::new("async-steady", w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for("async-steady")?;
        let ledger = RunLedger::decode(&mut r)?;
        let folded_in_step = r.take_u64()?;
        let fold_seq = r.take_u64()?;
        let improved_in_step = r.take_bool()?;
        let rng = r.take_rng()?;
        let members = Individual::decode_all(&mut r, self.search.population.len())?;
        let kind = r.take_u8()?;
        match (&mut self.backend, kind) {
            (Backend::Virtual(v), 0) => {
                let cost_rng = r.take_rng()?;
                let clock = r.take_f64()?;
                let nodes = r.take_usize()?;
                if nodes != v.in_flight.len() {
                    return Err(SnapshotError::Invalid(format!(
                        "snapshot cluster of {nodes} nodes does not match the configured {}",
                        v.in_flight.len()
                    )));
                }
                let mut free_at = Vec::with_capacity(nodes);
                for _ in 0..nodes {
                    free_at.push(r.take_f64()?);
                }
                let link_free = r.take_f64()?;
                let mut in_flight = Vec::with_capacity(nodes);
                for _ in 0..nodes {
                    if r.take_bool()? {
                        let genome = P::Genome::decode(&mut r)?;
                        let done_at = r.take_f64()?;
                        in_flight.push(Some(InFlight { genome, done_at }));
                    } else {
                        in_flight.push(None);
                    }
                }
                r.finish()?;
                v.cost_rng = cost_rng;
                v.clock = clock;
                v.sim.import_state(free_at, link_free);
                v.in_flight = in_flight;
            }
            (Backend::Threaded(t), 1) => {
                let outstanding = r.take_count(1)?;
                let mut backlog = VecDeque::with_capacity(outstanding);
                for _ in 0..outstanding {
                    backlog.push_back(P::Genome::decode(&mut r)?);
                }
                r.finish()?;
                // Orphan any tasks currently on the workers: their reports
                // no longer match a slot id and will be dropped on arrival.
                for slot in &mut t.slots {
                    slot.in_flight = None;
                }
                t.backlog = backlog;
            }
            _ => {
                return Err(SnapshotError::Invalid(format!(
                    "snapshot backend kind {kind} does not match the configured backend"
                )));
            }
        }
        let s = &mut self.search;
        s.ledger.restore(ledger);
        s.folded_in_step = folded_in_step;
        s.fold_seq = fold_seq;
        s.improved_in_step = improved_in_step;
        s.rng = rng;
        s.population = Population::new(members);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

enum BackendConfig {
    Virtual {
        spec: ClusterSpec,
        cost: EvalCostModel,
    },
    Threaded {
        workers: usize,
        faults: Option<FaultPlan>,
        heartbeat: Duration,
    },
}

/// Builder for [`AsyncSteadyStateGa`]; see [`AsyncSteadyStateGa::builder`].
pub struct AsyncSteadyBuilder<P: Problem> {
    problem: Arc<P>,
    seed: u64,
    pop_size: usize,
    crossover_rate: f64,
    replacement: ReplacementPolicy,
    selection: Option<Box<dyn Selection<P::Genome>>>,
    crossover: Option<Box<dyn Crossover<P::Genome>>>,
    mutation: Option<Box<dyn Mutation<P::Genome>>>,
    backend: BackendConfig,
    recorder: Option<Box<dyn Recorder>>,
}

impl<P: Problem> AsyncSteadyBuilder<P> {
    fn new(problem: P) -> Self {
        Self {
            problem: Arc::new(problem),
            seed: 0,
            pop_size: 100,
            crossover_rate: 0.9,
            replacement: ReplacementPolicy::WorstIfBetter,
            selection: None,
            crossover: None,
            mutation: None,
            backend: BackendConfig::Virtual {
                spec: ClusterSpec {
                    speeds: vec![1.0; 4],
                    network: pga_cluster::NetworkProfile::SharedMemory,
                },
                cost: EvalCostModel::Fixed(1e-3),
            },
            recorder: None,
        }
    }

    /// RNG seed (drives population init, variation, and the arrival log).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Population size (and folds per generation-equivalent).
    #[must_use]
    pub fn pop_size(mut self, n: usize) -> Self {
        self.pop_size = n;
        self
    }

    /// Probability an offspring comes from crossover rather than cloning.
    #[must_use]
    pub fn crossover_rate(mut self, rate: f64) -> Self {
        self.crossover_rate = rate;
        self
    }

    /// Steady-state replacement policy for folded results.
    #[must_use]
    pub fn replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Parent selection operator.
    #[must_use]
    pub fn selection(mut self, s: impl Selection<P::Genome> + 'static) -> Self {
        self.selection = Some(Box::new(s));
        self
    }

    /// Crossover operator.
    #[must_use]
    pub fn crossover(mut self, c: impl Crossover<P::Genome> + 'static) -> Self {
        self.crossover = Some(Box::new(c));
        self
    }

    /// Mutation operator.
    #[must_use]
    pub fn mutation(mut self, m: impl Mutation<P::Genome> + 'static) -> Self {
        self.mutation = Some(Box::new(m));
        self
    }

    /// Virtual backend: evaluations dispatched through the streaming
    /// cluster simulator with per-task costs from `cost`. Deterministic;
    /// the engine reports [`Clock::Virtual`].
    #[must_use]
    pub fn virtual_cluster(mut self, spec: ClusterSpec, cost: EvalCostModel) -> Self {
        self.backend = BackendConfig::Virtual { spec, cost };
        self
    }

    /// Threaded backend: `workers` long-lived evaluation threads (the
    /// resilient worker loop). Fold order follows real arrival order.
    #[must_use]
    pub fn threads(mut self, workers: usize) -> Self {
        self.backend = BackendConfig::Threaded {
            workers,
            faults: None,
            heartbeat: DEFAULT_HEARTBEAT,
        };
        self
    }

    /// Seeded fault injection for the threaded backend (stalls via
    /// `delay_per_task`, deaths, panics). Applied at [`Self::build`]; calls
    /// before [`Self::threads`] are overwritten by it.
    #[must_use]
    pub fn thread_faults(mut self, plan: FaultPlan) -> Self {
        if let BackendConfig::Threaded { faults, .. } = &mut self.backend {
            *faults = Some(plan);
        }
        self
    }

    /// Attaches an event recorder from the start of the run.
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Validates the configuration and builds the engine (evaluating the
    /// initial population on the master).
    ///
    /// # Errors
    /// [`ConfigError::InvalidParameter`] / [`ConfigError::MissingComponent`]
    /// on bad sizes, rates, missing operators, worker count 0, or a fault
    /// plan that does not cover every worker.
    pub fn build(self) -> Result<AsyncSteadyStateGa<P>, ConfigError> {
        if self.pop_size < 2 {
            return Err(ConfigError::InvalidParameter {
                name: "pop_size",
                message: format!("must be at least 2, got {}", self.pop_size),
            });
        }
        let selection = self
            .selection
            .ok_or(ConfigError::MissingComponent("selection"))?;
        let variation = Variation::new(self.crossover, self.mutation, self.crossover_rate)?;

        let mut rng = Rng64::new(self.seed);
        let mut members = Vec::with_capacity(self.pop_size);
        for _ in 0..self.pop_size {
            let genome = self.problem.random_genome(&mut rng);
            let fitness = self.problem.evaluate(&genome);
            members.push(Individual::evaluated(genome, fitness));
        }
        let mut population = Population::new(members);
        population.refresh_fitness();
        let best_ever = population.best(self.problem.objective()).clone();

        let backend = match self.backend {
            BackendConfig::Virtual { spec, cost } => {
                let nodes = spec.len();
                Backend::Virtual(VirtualBackend {
                    sim: AsyncDispatchSim::new(spec),
                    cost_model: cost,
                    cost_rng: Rng64::new(self.seed ^ COST_STREAM_SALT),
                    clock: 0.0,
                    in_flight: (0..nodes).map(|_| None).collect(),
                })
            }
            BackendConfig::Threaded {
                workers,
                faults,
                heartbeat,
            } => {
                if workers == 0 {
                    return Err(ConfigError::InvalidParameter {
                        name: "workers",
                        message: "must spawn at least one worker".into(),
                    });
                }
                let plan = faults.unwrap_or_else(|| FaultPlan::none(workers));
                if plan.len() != workers {
                    return Err(ConfigError::InvalidParameter {
                        name: "faults",
                        message: format!(
                            "fault plan covers {} workers, engine has {workers}",
                            plan.len()
                        ),
                    });
                }
                let (reports_tx, reports_rx) = unbounded();
                let mut slots = Vec::with_capacity(workers);
                for id in 0..workers {
                    let (tx, rx) = unbounded();
                    let handle = spawn_worker(
                        id,
                        Arc::clone(&self.problem),
                        plan.fault(id).clone(),
                        rx,
                        reports_tx.clone(),
                        heartbeat,
                    );
                    slots.push(WorkerSlot {
                        tx: Some(tx),
                        handle: Some(handle),
                        in_flight: None,
                    });
                }
                drop(reports_tx);
                Backend::Threaded(ThreadedBackend {
                    slots,
                    reports: reports_rx,
                    started: Instant::now(),
                    backlog: VecDeque::new(),
                    next_task: 0,
                })
            }
        };

        let ledger = RunLedger::new(
            &*self.problem,
            self.seed,
            self.pop_size as u64,
            best_ever,
            self.recorder,
        );
        Ok(AsyncSteadyStateGa {
            search: Search {
                problem: self.problem,
                selection,
                variation,
                replacement: self.replacement,
                rng,
                free: Vec::new(),
                spare: None,
                population,
                ledger,
                folded_in_step: 0,
                fold_seq: 0,
                improved_in_step: false,
            },
            backend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_core::ops::{BitFlip, Tournament, Uniform};
    use pga_core::repr::BitString;
    use pga_core::{Objective, Termination};
    use pga_observe::RingRecorder;

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

    fn virtual_engine(seed: u64) -> AsyncSteadyStateGa<OneMax> {
        AsyncSteadyStateGa::builder(OneMax(48))
            .seed(seed)
            .pop_size(32)
            .selection(Tournament::binary())
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(48))
            .virtual_cluster(
                ClusterSpec::heterogeneous(4, 3.0, 9, pga_cluster::NetworkProfile::FastEthernet)
                    .expect("spec"),
                EvalCostModel::bimodal(0.01, 0.2, 0.2).expect("model"),
            )
            .build()
            .expect("engine")
    }

    #[test]
    fn virtual_runs_are_deterministic() {
        let mut a = virtual_engine(7);
        let mut b = virtual_engine(7);
        for _ in 0..20 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra.best_ever.to_bits(), rb.best_ever.to_bits());
            assert_eq!(ra.evaluations, rb.evaluations);
        }
        assert_eq!(
            a.virtual_clock().expect("virtual").to_bits(),
            b.virtual_clock().expect("virtual").to_bits()
        );
    }

    #[test]
    fn virtual_clock_advances_and_engine_reports_it() {
        let mut e = virtual_engine(3);
        e.step();
        let clock = e.virtual_clock().expect("virtual");
        assert!(clock > 0.0);
        match e.clock() {
            Clock::Virtual(d) => assert!((d.as_secs_f64() - clock).abs() < 1e-9),
            Clock::Wall => panic!("virtual backend must report a virtual clock"),
        }
    }

    #[test]
    fn virtual_poll_step_reports_folded_work() {
        let mut e = virtual_engine(5);
        let poll = e.poll_step();
        assert_eq!(poll.folded, 32);
        assert_eq!(poll.report.expect("boundary").generation, 1);
    }

    #[test]
    fn virtual_search_improves() {
        let mut e = virtual_engine(11);
        let start = e.ledger().best_ever().fitness();
        for _ in 0..60 {
            e.step();
        }
        assert!(e.ledger().best_ever().fitness() > start);
    }

    #[test]
    fn threaded_backend_folds_everything() {
        let mut e = AsyncSteadyStateGa::builder(OneMax(32))
            .seed(1)
            .pop_size(24)
            .selection(Tournament::binary())
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(32))
            .threads(4)
            .build()
            .expect("engine");
        for gen in 1..=10 {
            let report = e.step();
            assert_eq!(report.generation, gen);
            assert_eq!(report.evaluations, 24 + gen * 24);
        }
        assert_eq!(e.live_workers(), Some(4));
    }

    #[test]
    fn threaded_run_reaches_optimum() {
        let mut e = AsyncSteadyStateGa::builder(OneMax(24))
            .seed(2)
            .pop_size(40)
            .selection(Tournament::binary())
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(24))
            .threads(3)
            .build()
            .expect("engine");
        let outcome = e
            .run(&Termination::new().until_optimum().max_generations(400))
            .expect("bounded");
        assert!(outcome.hit_optimum, "24-bit OneMax should be solved");
    }

    #[test]
    fn recorder_sees_async_folds() {
        let ring = RingRecorder::new(4096);
        let mut e = virtual_engine(13);
        e.ledger_mut().set_recorder(ring.clone());
        e.record_run_started();
        e.step();
        e.record_run_finished();
        let folds = ring
            .events()
            .iter()
            .filter(|ev| matches!(ev.kind, EventKind::AsyncFold { .. }))
            .count();
        assert_eq!(folds, 32, "one AsyncFold per folded evaluation");
    }

    #[test]
    fn builder_validates() {
        assert!(AsyncSteadyStateGa::builder(OneMax(8))
            .pop_size(1)
            .selection(Tournament::binary())
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(8))
            .build()
            .is_err());
        assert!(AsyncSteadyStateGa::builder(OneMax(8))
            .pop_size(10)
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(8))
            .build()
            .is_err());
        assert!(AsyncSteadyStateGa::builder(OneMax(8))
            .pop_size(10)
            .selection(Tournament::binary())
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(8))
            .threads(0)
            .build()
            .is_err());
    }
}
