//! The deme abstraction: anything that can evolve one step and exchange
//! individuals can be an island.
//!
//! The survey's **hybrid** model (§1.2) combines parallelization grains —
//! e.g. a coarse-grained ring whose islands are themselves fine-grained
//! cellular GAs (Alba & Troya 2002 run generational, steady-state *and*
//! cellular islands). Abstracting the island as a [`Deme`] lets both
//! drivers ([`crate::Archipelago`] and [`crate::run_threaded`]) host any
//! engine: `pga-core`'s panmictic [`Ga`], `pga-cellular`'s grid engine
//! (via its `Deme` impl in that crate), or user-defined engines.

use crate::migration::EmigrantSelection;
use pga_core::ops::ReplacementPolicy;
use pga_core::{
    Engine, Evaluator, Ga, Genome, Individual, Objective, Problem, Snapshot, SnapshotError,
    StepReport,
};
use pga_observe::Event;

/// One island: an evolving population that can emit and absorb migrants.
///
/// Implementations must be `Send` so the threaded driver can move them onto
/// worker threads.
pub trait Deme: Send {
    /// Chromosome type exchanged with neighboring demes.
    type Genome: Genome;

    /// Advances one generation (or generation-equivalent) and reports
    /// statistics.
    fn step_deme(&mut self) -> StepReport;

    /// Optimization direction (must agree across an archipelago).
    fn objective(&self) -> Objective;

    /// Generations completed.
    fn generation(&self) -> u64;

    /// Evaluations spent.
    fn evaluations(&self) -> u64;

    /// Best individual ever observed.
    fn best_individual(&self) -> Individual<Self::Genome>;

    /// `true` when the deme's best reaches the problem's known optimum.
    fn is_optimal(&self) -> bool;

    /// Clones `count` emigrants chosen by `selection` (drawn from the
    /// deme's own random stream).
    fn emigrants(
        &mut self,
        selection: EmigrantSelection,
        count: usize,
    ) -> Vec<Individual<Self::Genome>>;

    /// Produces `copies` batches of the *same* `count` emigrants — one
    /// batch per outgoing edge. The picks are drawn once per call (not once
    /// per edge), so the deme's RNG consumption is independent of fan-out
    /// and of link liveness; the final batch moves the picked individuals
    /// (zero-copy hand-off of their genome word buffers into the migration
    /// channel) while earlier batches clone.
    fn emigrant_batches(
        &mut self,
        selection: EmigrantSelection,
        count: usize,
        copies: usize,
    ) -> Vec<Vec<Individual<Self::Genome>>> {
        // Always draw the picks, even for zero live edges, so seeded
        // trajectories do not depend on fault state.
        let batch = self.emigrants(selection, count);
        if copies == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(copies);
        for _ in 1..copies {
            out.push(batch.clone());
        }
        out.push(batch);
        out
    }

    /// Inserts evaluated immigrants under `policy`; returns how many were
    /// accepted.
    fn immigrate(
        &mut self,
        immigrants: Vec<Individual<Self::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize;

    /// Draining variant of [`immigrate`](Self::immigrate): consumes the
    /// batch in place and leaves `immigrants` empty, so drivers can recycle
    /// one inbox arena per island across migration epochs.
    fn immigrate_batch(
        &mut self,
        immigrants: &mut Vec<Individual<Self::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize {
        self.immigrate(std::mem::take(immigrants), policy)
    }

    /// Routes a driver-side observability event (migration bookkeeping)
    /// into the deme's recorder. Default: no-op, so engines without
    /// instrumentation remain valid demes.
    fn record_event(&mut self, _event: &Event) {}

    /// Assigns the island id the deme stamps on its own events. Default:
    /// no-op.
    fn set_trace_island(&mut self, _island: u32) {}

    /// Emits a `RunStarted` event through the deme's recorder, if any.
    /// Island drivers call this once before stepping begins. Default:
    /// no-op.
    fn record_run_started(&mut self) {}

    /// Emits a `RunFinished` event and flushes the deme's recorder, if
    /// any. Island drivers call this once after the stopping rule fires.
    /// Default: no-op.
    fn record_run_finished(&mut self) {}

    /// Checkpoints the deme's dynamic state (see `pga_core::snapshot`).
    /// Island snapshots nest one deme snapshot per island.
    fn snapshot_deme(&self) -> Snapshot;

    /// Restores a checkpoint taken from an identically configured deme.
    fn restore_deme(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError>;
}

impl<P: Problem, E: Evaluator<P>> Deme for Ga<P, E> {
    type Genome = P::Genome;

    fn step_deme(&mut self) -> StepReport {
        self.step()
    }

    fn objective(&self) -> Objective {
        Ga::objective(self)
    }

    fn generation(&self) -> u64 {
        Ga::generation(self)
    }

    fn evaluations(&self) -> u64 {
        Ga::evaluations(self)
    }

    fn best_individual(&self) -> Individual<P::Genome> {
        self.best_ever().clone()
    }

    fn is_optimal(&self) -> bool {
        self.problem().is_optimal(self.best_ever().fitness())
    }

    fn emigrants(
        &mut self,
        selection: EmigrantSelection,
        count: usize,
    ) -> Vec<Individual<P::Genome>> {
        let objective = Ga::objective(self);
        let mut rng = self.rng_mut().clone();
        let picks = selection.pick(self.population(), objective, count, &mut rng);
        *self.rng_mut() = rng;
        self.clone_members(&picks)
    }

    fn immigrate(
        &mut self,
        immigrants: Vec<Individual<P::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize {
        self.receive_immigrants(immigrants, policy)
    }

    fn immigrate_batch(
        &mut self,
        immigrants: &mut Vec<Individual<P::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize {
        self.receive_immigrants_from(immigrants, policy)
    }

    fn record_event(&mut self, event: &Event) {
        Ga::record_event(self, event);
    }

    fn set_trace_island(&mut self, island: u32) {
        Ga::set_trace_island(self, island);
    }

    fn record_run_started(&mut self) {
        Engine::record_run_started(self);
    }

    fn record_run_finished(&mut self) {
        Engine::record_run_finished(self);
    }

    fn snapshot_deme(&self) -> Snapshot {
        Engine::snapshot(self)
    }

    fn restore_deme(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        Engine::restore(self, snapshot)
    }
}

/// Boxed demes are demes, so heterogeneous archipelagos can mix engine
/// kinds: `Vec<Box<dyn Deme<Genome = BitString>>>`.
impl<G: Genome> Deme for Box<dyn Deme<Genome = G>> {
    type Genome = G;

    fn step_deme(&mut self) -> StepReport {
        (**self).step_deme()
    }
    fn objective(&self) -> Objective {
        (**self).objective()
    }
    fn generation(&self) -> u64 {
        (**self).generation()
    }
    fn evaluations(&self) -> u64 {
        (**self).evaluations()
    }
    fn best_individual(&self) -> Individual<G> {
        (**self).best_individual()
    }
    fn is_optimal(&self) -> bool {
        (**self).is_optimal()
    }
    fn emigrants(&mut self, selection: EmigrantSelection, count: usize) -> Vec<Individual<G>> {
        (**self).emigrants(selection, count)
    }
    fn emigrant_batches(
        &mut self,
        selection: EmigrantSelection,
        count: usize,
        copies: usize,
    ) -> Vec<Vec<Individual<G>>> {
        (**self).emigrant_batches(selection, count, copies)
    }
    fn immigrate(&mut self, immigrants: Vec<Individual<G>>, policy: ReplacementPolicy) -> usize {
        (**self).immigrate(immigrants, policy)
    }
    fn immigrate_batch(
        &mut self,
        immigrants: &mut Vec<Individual<G>>,
        policy: ReplacementPolicy,
    ) -> usize {
        (**self).immigrate_batch(immigrants, policy)
    }
    fn record_event(&mut self, event: &Event) {
        (**self).record_event(event);
    }
    fn set_trace_island(&mut self, island: u32) {
        (**self).set_trace_island(island);
    }
    fn record_run_started(&mut self) {
        (**self).record_run_started();
    }
    fn record_run_finished(&mut self) {
        (**self).record_run_finished();
    }
    fn snapshot_deme(&self) -> Snapshot {
        (**self).snapshot_deme()
    }
    fn restore_deme(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        (**self).restore_deme(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_core::ops::{BitFlip, OnePoint, Tournament};
    use pga_core::{BitString, GaBuilder, Rng64, Scheme};
    use std::sync::Arc;

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

    fn ga() -> Ga<Arc<OneMax>> {
        GaBuilder::new(Arc::new(OneMax(32)))
            .seed(1)
            .pop_size(20)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(32))
            .scheme(Scheme::Generational { elitism: 1 })
            .build()
            .unwrap()
    }

    #[test]
    fn ga_implements_deme() {
        let mut deme = ga();
        let s0 = Deme::evaluations(&deme);
        let stats = deme.step_deme();
        assert_eq!(stats.generation, 1);
        assert!(stats.evaluations > s0);
        assert!(stats.best >= stats.mean);
        let out = deme.emigrants(EmigrantSelection::Best, 2);
        assert_eq!(out.len(), 2);
        assert!(out[0].is_evaluated());
        let accepted = deme.immigrate(out, ReplacementPolicy::Worst);
        assert_eq!(accepted, 2);
    }

    #[test]
    fn boxed_deme_dispatches() {
        let mut demes: Vec<Box<dyn Deme<Genome = BitString>>> = vec![Box::new(ga())];
        let stats = demes[0].step_deme();
        assert_eq!(stats.generation, 1);
        assert!(!demes[0].is_optimal() || stats.best == 32.0);
    }
}
