//! Master–slave evolution against the simulated cluster.
//!
//! The GA's *search* runs for real (fitness values are exact); only *time*
//! is simulated: each generation's evaluation batch is dispatched through
//! [`MasterSlaveSim`] with a persistent virtual clock, so node failures from
//! a [`FailurePlan`] hit mid-run, cost reassignments, and degrade capacity —
//! but never corrupt the population. This is the fault-tolerance claim of
//! Gagné et al. (2003) reproduced as experiment E07.

use pga_cluster::{ClusterSpec, FailurePlan, MasterSlaveSim};
use pga_core::{
    Clock, ConfigError, Driver, Engine, Evaluator, Ga, Incumbent, Individual, Problem, Progress,
    Snapshot, SnapshotError, SnapshotWriter, StepReport, StopReason, Termination,
};
use pga_observe::{Event, EventKind, Recorder, Time};
use std::time::Duration;

/// Outcome of a virtual-clock master–slave run.
#[derive(Clone, Debug)]
pub struct VirtualRunReport {
    /// Final virtual time (seconds) when the run finished.
    pub virtual_seconds: f64,
    /// Generations completed.
    pub generations: u64,
    /// Real fitness evaluations performed.
    pub evaluations: u64,
    /// Best fitness reached.
    pub best_fitness: f64,
    /// Total task reassignments caused by failures.
    pub reassignments: usize,
    /// Nodes dead by the end of the run.
    pub dead_nodes: usize,
    /// `true` when the run hit the problem optimum.
    pub hit_optimum: bool,
    /// `true` when every node died before the generation budget.
    pub cluster_died: bool,
}

/// Drives a [`Ga`] while accounting evaluation time on a simulated cluster.
pub struct SimulatedMasterSlaveGa<P: Problem, E: Evaluator<P>> {
    ga: Ga<P, E>,
    sim: MasterSlaveSim,
    eval_cost_s: f64,
    clock: f64,
    reassignments: usize,
    cluster_size: usize,
    recorder: Option<Box<dyn Recorder>>,
    node_failure_seen: Vec<bool>,
    batch: u64,
    halted: bool,
}

impl<P: Problem, E: Evaluator<P>> SimulatedMasterSlaveGa<P, E> {
    /// Wraps an engine. `eval_cost_s` is the cost of one fitness evaluation
    /// on a speed-1.0 node; the initial population's evaluation is charged
    /// immediately.
    ///
    /// # Errors
    /// Rejects a non-positive `eval_cost_s`.
    pub fn new(
        ga: Ga<P, E>,
        spec: ClusterSpec,
        failures: FailurePlan,
        eval_cost_s: f64,
    ) -> Result<Self, ConfigError> {
        Self::build(ga, spec, failures, eval_cost_s, None)
    }

    /// Like [`new`](Self::new), but every batch, failure, and reassignment
    /// is reported to `recorder` as sim-time-stamped events. The recorder is
    /// attached *before* the initial population's evaluation is charged, so
    /// the trace covers the whole virtual timeline.
    ///
    /// # Errors
    /// Rejects a non-positive `eval_cost_s`.
    pub fn new_with_recorder(
        ga: Ga<P, E>,
        spec: ClusterSpec,
        failures: FailurePlan,
        eval_cost_s: f64,
        recorder: impl Recorder + 'static,
    ) -> Result<Self, ConfigError> {
        Self::build(ga, spec, failures, eval_cost_s, Some(Box::new(recorder)))
    }

    fn build(
        ga: Ga<P, E>,
        spec: ClusterSpec,
        failures: FailurePlan,
        eval_cost_s: f64,
        recorder: Option<Box<dyn Recorder>>,
    ) -> Result<Self, ConfigError> {
        if eval_cost_s <= 0.0 || !eval_cost_s.is_finite() {
            return Err(ConfigError::InvalidParameter {
                name: "eval_cost_s",
                message: format!("evaluation cost must be positive, got {eval_cost_s}"),
            });
        }
        let cluster_size = spec.len();
        let sim = MasterSlaveSim::new(spec, failures);
        let initial_evals = ga.ledger().evaluations();
        let mut s = Self {
            ga,
            sim,
            eval_cost_s,
            clock: 0.0,
            reassignments: 0,
            cluster_size,
            recorder,
            node_failure_seen: vec![false; cluster_size],
            batch: 0,
            halted: false,
        };
        s.emit(Time::Sim(0.0), |ga| EventKind::RunStarted {
            island: 0,
            engine: "master-slave-sim".into(),
            problem: ga.problem().name(),
            seed: ga.ledger().seed(),
        });
        s.charge_batch(initial_evals);
        Ok(s)
    }

    fn emit(&mut self, time: Time, kind: impl FnOnce(&Ga<P, E>) -> EventKind) {
        if let Some(rec) = &mut self.recorder {
            rec.record(&Event::at(time, kind(&self.ga)));
        }
    }

    /// Current virtual time in simulated seconds (the [`Engine::clock`]
    /// value as a plain number).
    #[must_use]
    pub fn sim_seconds(&self) -> f64 {
        self.clock
    }

    /// The wrapped engine.
    #[must_use]
    pub fn ga(&self) -> &Ga<P, E> {
        &self.ga
    }

    fn charge_batch(&mut self, evals: u64) -> bool {
        if evals == 0 {
            return true;
        }
        let start = self.clock;
        let tasks = vec![self.eval_cost_s; evals as usize];
        let report = self.sim.run_batch_at(self.clock, &tasks);
        self.clock = report.makespan;
        self.reassignments += report.reassignments;
        if self.recorder.is_some() {
            // `run_batch_at` drains its whole event queue, so a node that
            // fails at absolute time T shows up in the trace of every batch
            // started before T, including batches that finish before T is
            // reached. Report each failure once, and only after the virtual
            // clock has actually passed it.
            for event in pga_cluster::observe_events(&report.trace) {
                if let EventKind::NodeFailed { node } = event.kind {
                    if let Time::Sim(t) = event.time {
                        if t > self.clock {
                            continue;
                        }
                    }
                    let seen = &mut self.node_failure_seen[node as usize];
                    if *seen {
                        continue;
                    }
                    *seen = true;
                }
                if let Some(rec) = &mut self.recorder {
                    rec.record(&event);
                }
            }
            self.batch += 1;
            let batch = self.batch;
            let micros = ((self.clock - start) * 1e6).round() as u64;
            self.emit(Time::Sim(self.clock), |_| EventKind::EvaluationBatch {
                island: 0,
                batch,
                size: evals,
                fresh: report.completed as u64,
                micros,
            });
        }
        report.completed == evals as usize
    }

    /// Nodes dead at the current virtual time.
    #[must_use]
    pub fn dead_nodes(&self) -> usize {
        (0..self.cluster_size)
            .filter(|&i| self.sim.failure_time(i).is_some_and(|t| t <= self.clock))
            .count()
    }

    /// Runs under `termination` through the shared [`Driver`]. The engine
    /// reports a [`Clock::Virtual`] time base, so wall-clock budgets
    /// (`max_wall_clock`) fire on *simulated* seconds, not host time.
    /// Total cluster death surfaces as [`StopReason::Halted`] /
    /// [`VirtualRunReport::cluster_died`].
    ///
    /// # Errors
    /// [`ConfigError::UnboundedTermination`] when `termination` has no
    /// criteria.
    pub fn run(mut self, termination: &Termination) -> Result<VirtualRunReport, ConfigError> {
        let outcome = Driver::new(termination.clone()).run(&mut self)?;
        Ok(VirtualRunReport {
            virtual_seconds: self.clock,
            generations: self.ga.ledger().generation(),
            evaluations: self.ga.ledger().evaluations(),
            best_fitness: outcome.best_fitness,
            reassignments: self.reassignments,
            dead_nodes: self.dead_nodes(),
            hit_optimum: outcome.hit_optimum,
            cluster_died: outcome.stop == StopReason::Halted,
        })
    }
}

impl<P: Problem, E: Evaluator<P>> Incumbent for SimulatedMasterSlaveGa<P, E> {
    type Best = Individual<P::Genome>;

    fn best(&self) -> Individual<P::Genome> {
        self.ga.ledger().best_ever().clone()
    }
}

impl<P: Problem, E: Evaluator<P>> Engine for SimulatedMasterSlaveGa<P, E> {
    fn engine_id(&self) -> &'static str {
        "master-slave-sim"
    }

    /// Advances one generation, charging its evaluations to the virtual
    /// clock. When the cluster can no longer complete a batch (all nodes
    /// dead) the engine marks itself halted — see [`Engine::halted`].
    fn step(&mut self) -> StepReport {
        let before = self.ga.ledger().evaluations();
        let stats = self.ga.step();
        let evals = self.ga.ledger().evaluations() - before;
        if !self.charge_batch(evals) {
            self.halted = true;
        }
        self.emit(Time::Sim(self.clock), |_| EventKind::GenerationCompleted {
            island: 0,
            generation: stats.generation,
            evaluations: stats.evaluations,
            best: stats.best,
            mean: stats.mean,
            best_ever: stats.best_ever,
        });
        stats
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        // The inner Ga tracks search progress; only the time base differs.
        Engine::progress(&self.ga, elapsed)
    }

    fn clock(&self) -> Clock {
        Clock::Virtual(Duration::from_secs_f64(self.clock))
    }

    fn halted(&self) -> bool {
        self.halted
    }

    // `record_run_started` stays the default no-op: the sim emits its
    // `RunStarted` at construction, before the initial batch is charged.

    fn record_run_finished(&mut self) {
        let best = self.ga.ledger().best_ever().fitness();
        self.emit(Time::Sim(self.clock), |ga| EventKind::RunFinished {
            island: 0,
            generations: ga.ledger().generation(),
            evaluations: ga.ledger().evaluations(),
            best,
            hit_optimum: ga.problem().is_optimal(best),
        });
        if let Some(rec) = &mut self.recorder {
            rec.flush();
        }
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        let nested = Engine::snapshot(&self.ga);
        w.put_str(nested.engine());
        w.put_bytes(nested.payload());
        w.put_f64(self.clock);
        w.put_u64(self.reassignments as u64);
        w.put_u64(self.batch);
        w.put_bool(self.halted);
        w.put_usize(self.node_failure_seen.len());
        for &seen in &self.node_failure_seen {
            w.put_bool(seen);
        }
        Snapshot::new(self.engine_id(), w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for(self.engine_id())?;
        let engine = r.take_str()?;
        let payload = r.take_bytes()?.to_vec();
        let clock = r.take_f64()?;
        let reassignments = r.take_u64()?;
        let batch = r.take_u64()?;
        let halted = r.take_bool()?;
        let n = r.take_usize()?;
        if n != self.cluster_size {
            return Err(SnapshotError::Invalid(format!(
                "snapshot has {n} nodes, cluster has {}",
                self.cluster_size
            )));
        }
        let mut node_failure_seen = Vec::with_capacity(n);
        for _ in 0..n {
            node_failure_seen.push(r.take_bool()?);
        }
        r.finish()?;
        Engine::restore(&mut self.ga, &Snapshot::new(engine, payload))?;
        self.clock = clock;
        self.reassignments = reassignments as usize;
        self.batch = batch;
        self.halted = halted;
        self.node_failure_seen = node_failure_seen;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_cluster::NetworkProfile;
    use pga_core::ops::{BitFlip, OnePoint, Tournament};
    use pga_core::{BitString, Objective, Rng64, Scheme};

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

    fn stop(max_generations: u64) -> Termination {
        Termination::new()
            .until_optimum()
            .max_generations(max_generations)
    }

    fn engine(seed: u64) -> Ga<OneMax> {
        Ga::builder(OneMax(32))
            .seed(seed)
            .pop_size(30)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(32))
            .scheme(Scheme::Generational { elitism: 1 })
            .build()
            .unwrap()
    }

    #[test]
    fn more_nodes_finish_faster_in_virtual_time() {
        let run = |nodes: usize| {
            let spec = ClusterSpec::homogeneous(nodes, NetworkProfile::SharedMemory).unwrap();
            SimulatedMasterSlaveGa::new(engine(1), spec, FailurePlan::none(nodes), 0.01)
                .unwrap()
                .run(&stop(50))
                .unwrap()
        };
        let one = run(1);
        let eight = run(8);
        // Identical search (same seed), so same generations/evaluations...
        assert_eq!(one.generations, eight.generations);
        assert_eq!(one.evaluations, eight.evaluations);
        assert_eq!(one.best_fitness, eight.best_fitness);
        // ...but ~8x less virtual time.
        let speedup = one.virtual_seconds / eight.virtual_seconds;
        assert!(speedup > 6.0, "speedup {speedup}");
    }

    #[test]
    fn failures_slow_but_do_not_corrupt_search() {
        let nodes = 8;
        let spec = ClusterSpec::homogeneous(nodes, NetworkProfile::SharedMemory).unwrap();
        // Half the nodes die early.
        let failures = FailurePlan::at(vec![
            Some(0.1),
            Some(0.2),
            Some(0.3),
            Some(0.4),
            None,
            None,
            None,
            None,
        ]);
        let faulty = SimulatedMasterSlaveGa::new(engine(2), spec.clone(), failures, 0.01)
            .unwrap()
            .run(&stop(50))
            .unwrap();
        let healthy = SimulatedMasterSlaveGa::new(engine(2), spec, FailurePlan::none(nodes), 0.01)
            .unwrap()
            .run(&stop(50))
            .unwrap();
        // Search result identical (same seed, search unaffected by failures).
        assert_eq!(faulty.best_fitness, healthy.best_fitness);
        assert_eq!(faulty.generations, healthy.generations);
        // But the faulty run is slower and saw reassignments.
        assert!(faulty.virtual_seconds > healthy.virtual_seconds);
        assert_eq!(faulty.dead_nodes, 4);
        assert!(!faulty.cluster_died);
    }

    #[test]
    fn faulty_run_traces_each_failure_once() {
        use pga_observe::RingRecorder;
        let nodes = 8;
        let spec = ClusterSpec::homogeneous(nodes, NetworkProfile::SharedMemory).unwrap();
        let failures = FailurePlan::at(vec![
            Some(0.1),
            Some(0.2),
            Some(0.3),
            Some(0.4),
            None,
            None,
            None,
            None,
        ]);
        let ring = RingRecorder::new(100_000);
        let report = SimulatedMasterSlaveGa::new_with_recorder(
            engine(2),
            spec,
            failures,
            0.01,
            ring.clone(),
        )
        .unwrap()
        .run(&stop(50))
        .unwrap();
        let events = ring.events();
        assert_eq!(events.first().unwrap().kind.name(), "run_started");
        assert_eq!(events.last().unwrap().kind.name(), "run_finished");
        assert!(
            events.iter().all(|e| matches!(e.time, Time::Sim(_))),
            "every event must carry a simulated timestamp"
        );
        let failed: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::NodeFailed { node } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), report.dead_nodes, "one event per dead node");
        let mut unique = failed.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), failed.len(), "duplicate NodeFailed events");
        let requeues = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TaskReassigned { .. }))
            .count();
        assert_eq!(requeues, report.reassignments);
        let generations = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GenerationCompleted { .. }))
            .count() as u64;
        assert_eq!(generations, report.generations);
    }

    #[test]
    fn recorder_does_not_change_virtual_run() {
        use pga_observe::RingRecorder;
        let nodes = 4;
        let run = |record: bool| {
            let spec = ClusterSpec::homogeneous(nodes, NetworkProfile::FastEthernet).unwrap();
            let failures = FailurePlan::at(vec![Some(0.3), None, None, None]);
            if record {
                SimulatedMasterSlaveGa::new_with_recorder(
                    engine(9),
                    spec,
                    failures,
                    0.01,
                    RingRecorder::new(4096),
                )
                .unwrap()
                .run(&stop(30))
                .unwrap()
            } else {
                SimulatedMasterSlaveGa::new(engine(9), spec, failures, 0.01)
                    .unwrap()
                    .run(&stop(30))
                    .unwrap()
            }
        };
        let observed = run(true);
        let plain = run(false);
        assert_eq!(observed.generations, plain.generations);
        assert_eq!(observed.evaluations, plain.evaluations);
        assert_eq!(observed.best_fitness, plain.best_fitness);
        assert_eq!(observed.virtual_seconds, plain.virtual_seconds);
        assert_eq!(observed.reassignments, plain.reassignments);
    }

    #[test]
    fn total_cluster_death_is_reported() {
        let spec = ClusterSpec::homogeneous(2, NetworkProfile::SharedMemory).unwrap();
        let failures = FailurePlan::at(vec![Some(0.01), Some(0.02)]);
        let report = SimulatedMasterSlaveGa::new(engine(3), spec, failures, 0.01)
            .unwrap()
            .run(&stop(1000))
            .unwrap();
        assert!(report.cluster_died);
        assert!(report.generations < 1000);
    }
}
