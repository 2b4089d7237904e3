//! Deterministic single-threaded island stepper.

use crate::deme::Deme;
use crate::migration::{MigrationPolicy, SyncMode};
use crate::resilient::{ResiliencePolicy, ResilientOptions};
use pga_cluster::MigrationFaultPlan;
use pga_core::termination::{Progress, StopReason, Termination};
use pga_core::{
    ConfigError, Driver, Engine, Incumbent, Individual, Objective, RunOutcome, Snapshot,
    SnapshotError, StepReport,
};
use pga_observe::{Event, EventKind, SharedRecorder};
use pga_topology::Topology;
use std::time::Duration;

/// Per-island lifecycle summary attached to every [`IslandRun`].
///
/// The sequential engine reports the same [`StopReason`] for every island
/// and zero `dropped`/`resurrections` (nothing fails in-process); the
/// threaded engine fills in each island's own fate, including
/// [`StopReason::IslandLost`] for demes whose thread panicked and was not
/// resurrected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IslandStats {
    /// Why this island stopped.
    pub stop: StopReason,
    /// Generations this island completed.
    pub generations: u64,
    /// Fitness evaluations this island performed.
    pub evaluations: u64,
    /// Final best fitness on this island.
    pub best: f64,
    /// Migrants this island emitted onto its out-links.
    pub sent: u64,
    /// Immigrants this island accepted into its population.
    pub accepted: u64,
    /// Migrants lost on this island's out-links (scripted drop/cut, full
    /// bounded channel, or a dead peer).
    pub dropped: u64,
    /// Times this island was resurrected from a checkpoint after a panic.
    pub resurrections: u64,
}

/// Result of a completed island run (sequential or threaded engine).
#[derive(Clone, Debug)]
pub struct IslandRun<G> {
    /// Best individual across all islands.
    pub best: Individual<G>,
    /// Which island held the best.
    pub best_island: usize,
    /// Total evaluations summed over islands.
    pub total_evaluations: u64,
    /// Generations completed by each island.
    pub generations: Vec<u64>,
    /// Final best fitness per island.
    pub per_island_best: Vec<f64>,
    /// `true` when the run reached the problem optimum.
    pub hit_optimum: bool,
    /// Why the run stopped (aggregate; see [`IslandStats::stop`] for each
    /// island's own reason).
    pub stop: StopReason,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Migrants sent across the whole run.
    pub migrants_sent: u64,
    /// Migrants accepted by destination demes.
    pub migrants_accepted: u64,
    /// Per-island stop reasons and lifecycle statistics.
    pub islands: Vec<IslandStats>,
    /// Heartbeat timeouts observed by the supervisor (threaded engine
    /// only; always zero for the sequential stepper).
    pub heartbeat_misses: u64,
    /// Per-island per-generation statistics (when recording was enabled).
    pub histories: Vec<Vec<StepReport>>,
}

/// A set of demes evolving under one topology and migration policy,
/// stepped deterministically in round-robin order on the calling thread.
///
/// Generic over the deme engine: panmictic [`pga_core::Ga`] islands,
/// cellular grids (via `pga-cellular`'s `Deme` impl), or heterogeneous
/// mixes through `Box<dyn Deme<Genome = G>>` — the survey's *hybrid* model.
///
/// Under synchronous migration this engine is *search-equivalent* to the
/// threaded engine ([`crate::run_threaded`]): both apply the same migrants
/// at the same generation boundaries, so evaluations-to-solution agree and
/// only wall-clock time differs (verified by an integration test).
pub struct Archipelago<D: Deme> {
    islands: Vec<D>,
    adjacency: Vec<Vec<usize>>,
    policy: MigrationPolicy,
    record_history: bool,
    generation: u64,
    migrants_sent: u64,
    migrants_accepted: u64,
    per_island_sent: Vec<u64>,
    per_island_accepted: Vec<u64>,
    stagnant_generations: u64,
    best_seen: Option<f64>,
    histories: Vec<Vec<StepReport>>,
    /// Per-island inbox arenas, recycled across migration epochs.
    inbox_bufs: Vec<Vec<Individual<<D as Deme>::Genome>>>,
    /// In-flight migrants under [`SyncMode::Overlap`]: batches posted at an
    /// epoch boundary land here and are drained at the *next* generation's
    /// replacement point, modelling transit latency deterministically.
    pending: Vec<Vec<Individual<<D as Deme>::Genome>>>,
}

/// Fluent configuration for island runs — the builder façade matching
/// `GaBuilder`/`CellularGaBuilder`. One builder serves both engines:
/// [`build`](ArchipelagoBuilder::build) assembles the deterministic
/// sequential [`Archipelago`], while
/// [`run_threaded`](ArchipelagoBuilder::run_threaded) launches the same
/// configuration on one thread per island ([`crate::run_threaded`]).
pub struct ArchipelagoBuilder<D: Deme> {
    islands: Vec<D>,
    topology: Topology,
    policy: MigrationPolicy,
    history: bool,
    faults: MigrationFaultPlan,
    resilience: ResiliencePolicy,
    supervisor: Option<SharedRecorder>,
}

impl<D: Deme> Default for ArchipelagoBuilder<D> {
    fn default() -> Self {
        Self {
            islands: Vec::new(),
            topology: Topology::RingUni,
            policy: MigrationPolicy::default(),
            history: false,
            faults: MigrationFaultPlan::default(),
            resilience: ResiliencePolicy::default(),
            supervisor: None,
        }
    }
}

impl<D: Deme> ArchipelagoBuilder<D> {
    /// Adds one island.
    #[must_use]
    pub fn island(mut self, deme: D) -> Self {
        self.islands.push(deme);
        self
    }

    /// Adds a batch of islands.
    #[must_use]
    pub fn islands(mut self, demes: impl IntoIterator<Item = D>) -> Self {
        self.islands.extend(demes);
        self
    }

    /// Migration topology (default: unidirectional ring).
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Migration policy (default: [`MigrationPolicy::default`]).
    #[must_use]
    pub fn policy(mut self, policy: MigrationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Records per-generation statistics for every island (E11 traces).
    #[must_use]
    pub fn history(mut self, record: bool) -> Self {
        self.history = record;
        self
    }

    /// Scripts deterministic island panics and migration-link faults for
    /// the threaded engine (default: benign). Only
    /// [`run_threaded`](Self::run_threaded) honours the plan —
    /// [`build`](Self::build) rejects a non-benign one, since the
    /// sequential stepper has no threads to kill.
    #[must_use]
    pub fn fault_plan(mut self, faults: MigrationFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Supervision and recovery policy for the threaded engine:
    /// heartbeat cadence, bounded-channel capacity, and checkpoint-based
    /// resurrection (default: [`ResiliencePolicy::default`], no
    /// resurrection).
    #[must_use]
    pub fn resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Recorder receiving the supervisor's lifecycle events
    /// (`island_lost`, `island_resurrected`, `migrant_batch_dropped`, …)
    /// from the threaded engine.
    #[must_use]
    pub fn supervisor(mut self, recorder: SharedRecorder) -> Self {
        self.supervisor = Some(recorder);
        self
    }

    /// Validates the configuration and assembles the sequential stepper.
    ///
    /// # Errors
    /// [`ConfigError::InvalidParameter`] when no islands were added, the
    /// topology rejects the island count, or a non-benign
    /// [`fault_plan`](Self::fault_plan) was configured (fault injection
    /// needs the threaded engine).
    pub fn build(self) -> Result<Archipelago<D>, ConfigError> {
        if !self.faults.is_benign() {
            return Err(ConfigError::InvalidParameter {
                name: "fault_plan",
                message: "fault injection requires the threaded engine (run_threaded)".into(),
            });
        }
        Archipelago::new(self.islands, self.topology, self.policy)
            .map(|a| a.with_history(self.history))
    }

    /// Validates the configuration and runs it on one thread per island
    /// (see [`crate::run_threaded_resilient`] for the threading and
    /// fault-recovery semantics).
    ///
    /// # Errors
    /// As [`build`](Self::build), plus
    /// [`ConfigError::UnboundedTermination`] when `termination` has no
    /// criteria.
    pub fn run_threaded(
        self,
        termination: &Termination,
    ) -> Result<IslandRun<D::Genome>, ConfigError> {
        let options = ResilientOptions {
            faults: self.faults,
            resilience: self.resilience,
            supervisor: self.supervisor,
        };
        crate::threaded::run_threaded_resilient(
            self.islands,
            &self.topology,
            self.policy,
            termination,
            self.history,
            &options,
        )
    }
}

impl<D: Deme> Archipelago<D> {
    /// Starts configuring an island run — the canonical entry point (see
    /// [`ArchipelagoBuilder`]).
    #[must_use]
    pub fn builder() -> ArchipelagoBuilder<D> {
        ArchipelagoBuilder::default()
    }

    /// Assembles an archipelago. Fails when `islands` is empty or the
    /// topology rejects the island count.
    pub fn new(
        mut islands: Vec<D>,
        topology: Topology,
        policy: MigrationPolicy,
    ) -> Result<Self, ConfigError> {
        if islands.is_empty() {
            return Err(ConfigError::InvalidParameter {
                name: "islands",
                message: "need at least one island".into(),
            });
        }
        topology
            .validate(islands.len())
            .map_err(|e| ConfigError::InvalidParameter {
                name: "topology",
                message: e.to_string(),
            })?;
        let adjacency = topology.adjacency(islands.len());
        for (i, island) in islands.iter_mut().enumerate() {
            island.set_trace_island(i as u32);
        }
        let n = islands.len();
        Ok(Self {
            islands,
            adjacency,
            policy,
            record_history: false,
            generation: 0,
            migrants_sent: 0,
            migrants_accepted: 0,
            per_island_sent: vec![0; n],
            per_island_accepted: vec![0; n],
            stagnant_generations: 0,
            best_seen: None,
            histories: vec![Vec::new(); n],
            inbox_bufs: (0..n).map(|_| Vec::new()).collect(),
            pending: (0..n).map(|_| Vec::new()).collect(),
        })
    }

    /// Records per-generation statistics for every island (E11 traces).
    #[must_use]
    pub fn with_history(mut self, record: bool) -> Self {
        self.record_history = record;
        self
    }

    /// Island count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.islands.len()
    }

    /// `true` when there are no islands (constructor prevents this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.islands.is_empty()
    }

    /// Immutable access to the islands.
    #[must_use]
    pub fn islands(&self) -> &[D] {
        &self.islands
    }

    /// Runs until the shared termination rule fires (via the generic
    /// [`Driver`]) and returns island-level detail on top of the uniform
    /// outcome. Returns an error if the rule is unbounded.
    pub fn run(&mut self, termination: &Termination) -> Result<IslandRun<D::Genome>, ConfigError> {
        let outcome = Driver::new(termination.clone()).run(self)?;
        Ok(self.collect(outcome))
    }

    /// One synchronous migration across all edges; returns (sent, accepted).
    ///
    /// Each source picks its emigrants ONCE per epoch via
    /// [`Deme::emigrant_batches`] — one batch per outgoing edge, the last
    /// moved rather than cloned — and inboxes are per-island arenas reused
    /// across epochs, so steady-state migration does not allocate.
    fn migrate(&mut self) -> (u64, u64) {
        let n = self.islands.len();
        let policy = self.policy;
        let mut sent = 0u64;
        for src in 0..n {
            let targets = std::mem::take(&mut self.adjacency[src]);
            let batches =
                self.islands[src].emigrant_batches(policy.emigrant, policy.count, targets.len());
            for (&dst, migrants) in targets.iter().zip(batches) {
                sent += migrants.len() as u64;
                self.per_island_sent[src] += migrants.len() as u64;
                if !migrants.is_empty() {
                    let generation = self.islands[src].progress(Duration::ZERO).generations;
                    self.islands[src].record_event(&Event::new(EventKind::MigrationSent {
                        from: src as u32,
                        to: dst as u32,
                        generation,
                        count: migrants.len() as u64,
                    }));
                }
                self.inbox_bufs[dst].extend(migrants);
            }
            self.adjacency[src] = targets;
        }
        let mut accepted = 0u64;
        for dst in 0..n {
            let mut inbox = std::mem::take(&mut self.inbox_bufs[dst]);
            if !inbox.is_empty() {
                let offered = inbox.len() as u64;
                let here = self.islands[dst].immigrate_batch(&mut inbox, policy.replacement) as u64;
                accepted += here;
                self.per_island_accepted[dst] += here;
                let generation = self.islands[dst].progress(Duration::ZERO).generations;
                self.islands[dst].record_event(&Event::new(EventKind::MigrationReceived {
                    island: dst as u32,
                    generation,
                    offered,
                    accepted: here,
                }));
            }
            inbox.clear();
            self.inbox_bufs[dst] = inbox;
        }
        (sent, accepted)
    }

    /// Overlap-mode send half: emigrants picked exactly as in
    /// [`migrate`](Self::migrate) but posted into the per-island `pending`
    /// buffers instead of being delivered this step. Returns migrants sent.
    fn overlap_send(&mut self) -> u64 {
        let n = self.islands.len();
        let policy = self.policy;
        let mut sent = 0u64;
        for src in 0..n {
            let targets = std::mem::take(&mut self.adjacency[src]);
            let batches =
                self.islands[src].emigrant_batches(policy.emigrant, policy.count, targets.len());
            for (&dst, migrants) in targets.iter().zip(batches) {
                sent += migrants.len() as u64;
                self.per_island_sent[src] += migrants.len() as u64;
                if !migrants.is_empty() {
                    let generation = self.islands[src].progress(Duration::ZERO).generations;
                    self.islands[src].record_event(&Event::new(EventKind::MigrationSent {
                        from: src as u32,
                        to: dst as u32,
                        generation,
                        count: migrants.len() as u64,
                    }));
                }
                self.pending[dst].extend(migrants);
            }
            self.adjacency[src] = targets;
        }
        sent
    }

    /// Overlap-mode receive half: every island drains whatever is in flight
    /// for it at this replacement point (no rendezvous with senders).
    /// Returns migrants accepted.
    fn drain_pending(&mut self) -> u64 {
        let policy = self.policy;
        let mut accepted = 0u64;
        for dst in 0..self.islands.len() {
            if self.pending[dst].is_empty() {
                continue;
            }
            let mut inbox = std::mem::take(&mut self.pending[dst]);
            let offered = inbox.len() as u64;
            let here = self.islands[dst].immigrate_batch(&mut inbox, policy.replacement) as u64;
            accepted += here;
            self.per_island_accepted[dst] += here;
            let generation = self.islands[dst].progress(Duration::ZERO).generations;
            self.islands[dst].record_event(&Event::new(EventKind::AsyncImmigrantsDrained {
                island: dst as u32,
                generation,
                offered,
                accepted: here,
            }));
            inbox.clear();
            self.pending[dst] = inbox;
        }
        accepted
    }

    fn any_optimal(&self) -> bool {
        self.islands
            .iter()
            .any(|d| d.progress(Duration::ZERO).best_is_optimal)
    }

    fn total_evaluations(&self) -> u64 {
        self.islands
            .iter()
            .map(|d| d.progress(Duration::ZERO).evaluations)
            .sum()
    }

    fn objective(&self) -> Objective {
        self.islands[0].objective()
    }

    fn best_island(&self) -> usize {
        let objective = self.objective();
        let mut best = 0;
        for (i, isl) in self.islands.iter().enumerate() {
            if objective.better(
                isl.progress(Duration::ZERO).best_fitness,
                self.islands[best].progress(Duration::ZERO).best_fitness,
            ) {
                best = i;
            }
        }
        best
    }

    fn collect(&mut self, outcome: RunOutcome<Individual<D::Genome>>) -> IslandRun<D::Genome> {
        let best_island = self.best_island();
        // In-process lockstep: every island shares the run's stop reason
        // and nothing is ever dropped or resurrected.
        let islands = self
            .islands
            .iter()
            .enumerate()
            .map(|(i, isl)| {
                let progress = isl.progress(Duration::ZERO);
                IslandStats {
                    stop: outcome.stop,
                    generations: progress.generations,
                    evaluations: progress.evaluations,
                    best: progress.best_fitness,
                    sent: self.per_island_sent[i],
                    accepted: self.per_island_accepted[i],
                    dropped: 0,
                    resurrections: 0,
                }
            })
            .collect();
        IslandRun {
            best: outcome.best,
            best_island,
            total_evaluations: self.total_evaluations(),
            generations: self
                .islands
                .iter()
                .map(|d| d.progress(Duration::ZERO).generations)
                .collect(),
            per_island_best: self
                .islands
                .iter()
                .map(|i| i.progress(Duration::ZERO).best_fitness)
                .collect(),
            hit_optimum: outcome.hit_optimum,
            stop: outcome.stop,
            elapsed: outcome.elapsed,
            migrants_sent: self.migrants_sent,
            migrants_accepted: self.migrants_accepted,
            islands,
            heartbeat_misses: 0,
            histories: std::mem::take(&mut self.histories),
        }
    }
}

impl<D: Deme> Incumbent for Archipelago<D> {
    type Best = Individual<D::Genome>;

    fn best(&self) -> Self::Best {
        self.islands[self.best_island()].best_individual()
    }
}

/// The coarse-grained island model as a uniformly driven [`Engine`]: one
/// `step` is one generation on *every* island (round-robin = virtual
/// lockstep) plus, at epoch boundaries, one synchronous migration.
impl<D: Deme> Engine for Archipelago<D> {
    fn engine_id(&self) -> &'static str {
        "archipelago"
    }

    fn step(&mut self) -> StepReport {
        let mut best = f64::NAN;
        let mut mean_sum = 0.0;
        let objective = self.objective();
        for (i, island) in self.islands.iter_mut().enumerate() {
            let report = island.step();
            if best.is_nan() || objective.better(report.best, best) {
                best = report.best;
            }
            mean_sum += report.mean;
            if self.record_history {
                self.histories[i].push(report);
            }
        }
        self.generation += 1;

        // Migration phase. Synchronous/Asynchronous (the sequential
        // stepper is synchronous by construction): at epoch boundaries,
        // collect all emigrants first, then deliver, so this generation's
        // exchange is order-independent. Overlap: migrants posted at an
        // epoch boundary stay in flight for one generation and land at the
        // next replacement point — the deterministic analogue of the
        // threaded engine's barrier-free mid-epoch drains.
        if self.policy.sync == SyncMode::Overlap {
            self.migrants_accepted += self.drain_pending();
            if self.policy.migrates_at(self.generation) {
                self.migrants_sent += self.overlap_send();
            }
        } else if self.policy.migrates_at(self.generation) {
            let (sent, accepted) = self.migrate();
            self.migrants_sent += sent;
            self.migrants_accepted += accepted;
        }

        let best_ever = self.islands[self.best_island()]
            .progress(Duration::ZERO)
            .best_fitness;
        match self.best_seen {
            Some(seen) if !objective.better(best_ever, seen) => self.stagnant_generations += 1,
            _ => {
                self.best_seen = Some(best_ever);
                self.stagnant_generations = 0;
            }
        }
        StepReport {
            generation: self.generation,
            evaluations: self.total_evaluations(),
            best,
            mean: mean_sum / self.islands.len() as f64,
            best_ever,
        }
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        let evaluations = self.total_evaluations();
        Progress {
            generations: self.generation,
            evaluations,
            best_fitness: self.islands[self.best_island()]
                .progress(Duration::ZERO)
                .best_fitness,
            best_is_optimal: self.any_optimal(),
            stagnant_generations: self.stagnant_generations,
            elapsed,
            maximizing: self.objective() == Objective::Maximize,
            cost_units: evaluations as f64,
        }
    }

    fn record_run_started(&mut self) {
        for island in &mut self.islands {
            island.record_run_started();
        }
    }

    fn record_run_finished(&mut self) {
        for island in &mut self.islands {
            island.record_run_finished();
        }
    }

    /// Nests one deme snapshot per island. Recorded histories are *not*
    /// part of the snapshot: a resumed run's histories cover only the
    /// steps taken since the restore. Under [`SyncMode::Overlap`] the
    /// in-flight pending buffers are appended after the island records
    /// (the layout for the other modes is unchanged), so a restored run
    /// delivers exactly the migrants that were in transit.
    fn snapshot(&self) -> Snapshot {
        let mut w = pga_core::SnapshotWriter::new();
        w.put_u64(self.generation);
        w.put_u64(self.migrants_sent);
        w.put_u64(self.migrants_accepted);
        w.put_u64(self.stagnant_generations);
        w.put_opt_f64(self.best_seen);
        w.put_usize(self.islands.len());
        for (i, island) in self.islands.iter().enumerate() {
            w.put_u64(self.per_island_sent[i]);
            w.put_u64(self.per_island_accepted[i]);
            let nested = island.snapshot();
            w.put_str(nested.engine());
            w.put_bytes(nested.payload());
        }
        if self.policy.sync == SyncMode::Overlap {
            for inbox in &self.pending {
                Individual::encode_all(inbox, &mut w);
            }
        }
        Snapshot::new("archipelago", w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for("archipelago")?;
        let generation = r.take_u64()?;
        let migrants_sent = r.take_u64()?;
        let migrants_accepted = r.take_u64()?;
        let stagnant_generations = r.take_u64()?;
        let best_seen = r.take_opt_f64()?;
        let n = r.take_usize()?;
        if n != self.islands.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot has {n} islands, archipelago has {}",
                self.islands.len()
            )));
        }
        let mut nested = Vec::with_capacity(n);
        let mut per_island_sent = Vec::with_capacity(n);
        let mut per_island_accepted = Vec::with_capacity(n);
        for _ in 0..n {
            per_island_sent.push(r.take_u64()?);
            per_island_accepted.push(r.take_u64()?);
            let engine = r.take_str()?;
            let payload = r.take_bytes()?.to_vec();
            nested.push(Snapshot::new(engine, payload));
        }
        let mut pending = Vec::with_capacity(n);
        if self.policy.sync == SyncMode::Overlap {
            for _ in 0..n {
                let count = r.take_count(1)?;
                let mut inbox = Vec::with_capacity(count);
                for _ in 0..count {
                    inbox.push(Individual::decode(&mut r)?);
                }
                pending.push(inbox);
            }
        } else {
            pending = (0..n).map(|_| Vec::new()).collect();
        }
        r.finish()?;
        for (island, snap) in self.islands.iter_mut().zip(&nested) {
            island.restore(snap)?;
        }
        self.generation = generation;
        self.migrants_sent = migrants_sent;
        self.migrants_accepted = migrants_accepted;
        self.per_island_sent = per_island_sent;
        self.per_island_accepted = per_island_accepted;
        self.stagnant_generations = stagnant_generations;
        self.best_seen = best_seen;
        self.pending = pending;
        for h in &mut self.histories {
            h.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::{EmigrantSelection, SyncMode};
    use pga_core::ops::{BitFlip, OnePoint, ReplacementPolicy, Tournament};
    use pga_core::{BitString, Ga, Problem, Rng64, Scheme, SerialEvaluator};
    use std::sync::Arc;

    struct Trap {
        k: usize,
        blocks: usize,
    }
    impl Problem for Trap {
        type Genome = BitString;
        fn name(&self) -> String {
            "trap".into()
        }
        fn objective(&self) -> Objective {
            Objective::Maximize
        }
        fn evaluate(&self, g: &BitString) -> f64 {
            let mut total = 0usize;
            for b in 0..self.blocks {
                let u = (0..self.k).filter(|&i| g.get(b * self.k + i)).count();
                total += if u == self.k { self.k } else { self.k - 1 - u };
            }
            total as f64
        }
        fn random_genome(&self, rng: &mut Rng64) -> BitString {
            BitString::random(self.k * self.blocks, rng)
        }
        fn optimum(&self) -> Option<f64> {
            Some((self.k * self.blocks) as f64)
        }
    }

    fn islands(n: usize, base_seed: u64, pop: usize) -> Vec<Ga<Arc<Trap>, SerialEvaluator>> {
        let problem = Arc::new(Trap { k: 4, blocks: 8 });
        (0..n)
            .map(|i| {
                pga_core::GaBuilder::new(Arc::clone(&problem))
                    .seed(base_seed + i as u64)
                    .pop_size(pop)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(32))
                    .scheme(Scheme::Generational { elitism: 1 })
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn archipelago_solves_trap() {
        let mut arch = Archipelago::new(
            islands(4, 100, 50),
            Topology::RingUni,
            MigrationPolicy::default(),
        )
        .unwrap();
        let r = arch
            .run(&Termination::new().until_optimum().max_generations(400))
            .unwrap();
        assert!(r.hit_optimum, "best = {}", r.best.fitness());
        assert_eq!(r.stop, StopReason::TargetReached);
        assert!(r.migrants_sent > 0);
        assert!(r.total_evaluations > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut arch = Archipelago::new(
                islands(4, 5, 30),
                Topology::RingUni,
                MigrationPolicy::default(),
            )
            .unwrap();
            arch.run(&Termination::new().until_optimum().max_generations(60))
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best.fitness(), b.best.fitness());
        assert_eq!(a.total_evaluations, b.total_evaluations);
        assert_eq!(a.per_island_best, b.per_island_best);
        assert_eq!(a.migrants_sent, b.migrants_sent);
    }

    #[test]
    fn isolated_demes_never_migrate() {
        let mut arch = Archipelago::new(
            islands(4, 9, 20),
            Topology::Complete,
            MigrationPolicy::isolated(),
        )
        .unwrap();
        let r = arch.run(&Termination::new().max_generations(30)).unwrap();
        assert_eq!(r.migrants_sent, 0);
        assert_eq!(r.migrants_accepted, 0);
    }

    #[test]
    fn migration_spreads_good_genes() {
        let policy = MigrationPolicy {
            interval: 4,
            count: 2,
            emigrant: EmigrantSelection::Best,
            replacement: ReplacementPolicy::Worst,
            sync: SyncMode::Synchronous,
        };
        let mut arch = Archipelago::new(islands(4, 42, 40), Topology::Complete, policy).unwrap();
        let r = arch.run(&Termination::new().max_generations(200)).unwrap();
        let best = r.best.fitness();
        for &b in &r.per_island_best {
            assert!(best - b <= 2.0, "island fell behind: {b} vs {best}");
        }
    }

    #[test]
    fn evaluation_budget_stops_run() {
        let mut arch = Archipelago::new(
            islands(4, 3, 20),
            Topology::RingUni,
            MigrationPolicy::default(),
        )
        .unwrap();
        let r = arch
            .run(&Termination::new().max_evaluations(2_000))
            .unwrap();
        assert_eq!(r.stop, StopReason::MaxEvaluations);
        assert!(r.total_evaluations < 2_000 + 4 * 20 + 4 * 20);
    }

    #[test]
    fn history_recording() {
        let mut arch = Archipelago::new(
            islands(2, 7, 20),
            Topology::RingBi,
            MigrationPolicy::default(),
        )
        .unwrap()
        .with_history(true);
        let r = arch.run(&Termination::new().max_generations(10)).unwrap();
        assert_eq!(r.histories.len(), 2);
        assert_eq!(r.histories[0].len(), 10);
        assert_eq!(r.histories[0][9].generation, 10);
    }

    #[test]
    fn mixed_engine_archipelago_via_boxed_demes() {
        // Hybrid model: islands of different schemes in one archipelago.
        let problem = Arc::new(Trap { k: 4, blocks: 8 });
        let mk = |seed: u64, scheme: Scheme| -> Box<dyn crate::Deme<Genome = BitString>> {
            Box::new(
                pga_core::GaBuilder::new(Arc::clone(&problem))
                    .seed(seed)
                    .pop_size(30)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(32))
                    .scheme(scheme)
                    .build()
                    .unwrap(),
            )
        };
        let demes = vec![
            mk(1, Scheme::Generational { elitism: 1 }),
            mk(
                2,
                Scheme::SteadyState {
                    replacement: ReplacementPolicy::WorstIfBetter,
                },
            ),
            mk(3, Scheme::Generational { elitism: 2 }),
            mk(
                4,
                Scheme::SteadyState {
                    replacement: ReplacementPolicy::Worst,
                },
            ),
        ];
        let mut arch =
            Archipelago::new(demes, Topology::RingUni, MigrationPolicy::default()).unwrap();
        let r = arch
            .run(&Termination::new().until_optimum().max_generations(300))
            .unwrap();
        assert!(r.best.fitness() >= 28.0, "best = {}", r.best.fitness());
        assert!(r.migrants_sent > 0);
    }

    #[test]
    fn invalid_topology_is_rejected() {
        let e = Archipelago::new(
            islands(6, 0, 10),
            Topology::Hypercube,
            MigrationPolicy::default(),
        )
        .err()
        .unwrap();
        assert!(matches!(
            e,
            ConfigError::InvalidParameter {
                name: "topology",
                ..
            }
        ));
    }
}
