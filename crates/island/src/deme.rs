//! The deme abstraction: any [`Engine`] that can exchange individuals
//! can be an island.
//!
//! The survey's **hybrid** model (§1.2) combines parallelization grains —
//! e.g. a coarse-grained ring whose islands are themselves fine-grained
//! cellular GAs (Alba & Troya 2002 run generational, steady-state *and*
//! cellular islands). Abstracting the island as a [`Deme`] lets both
//! drivers ([`crate::Archipelago`] and [`crate::run_threaded`]) host any
//! engine: `pga-core`'s panmictic [`Ga`], `pga-cellular`'s grid engine
//! (via its `Deme` impl in that crate), or user-defined engines.
//!
//! `Deme` extends [`Engine`] with migration only. Drivers step, checkpoint
//! and restore a deme, and emit its run lifecycle events, through
//! `Engine`; they read its generation and evaluation counts from
//! [`Engine::progress`].

use crate::migration::EmigrantSelection;
use pga_core::ops::ReplacementPolicy;
use pga_core::{Engine, Evaluator, Ga, Genome, Individual, Objective, Problem};
use pga_observe::Event;

/// One island: an evolving population that can emit and absorb migrants.
///
/// Implementations must be `Send` so the threaded driver can move them onto
/// worker threads.
pub trait Deme: Engine + Send {
    /// Chromosome type exchanged with neighboring demes.
    type Genome: Genome;

    /// Optimization direction (must agree across an archipelago).
    fn objective(&self) -> Objective;

    /// Best individual ever observed.
    fn best_individual(&self) -> Individual<Self::Genome>;

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
}

impl<P: Problem, E: Evaluator<P>> Deme for Ga<P, E> {
    type Genome = P::Genome;

    fn objective(&self) -> Objective {
        Ga::objective(self)
    }

    fn best_individual(&self) -> Individual<P::Genome> {
        self.ledger().best_ever().clone()
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
        self.ledger_mut().record_event(event);
    }

    fn set_trace_island(&mut self, island: u32) {
        self.ledger_mut().set_trace_island(island);
    }
}

/// Boxed demes are demes, so heterogeneous archipelagos can mix engine
/// kinds: `Vec<Box<dyn Deme<Genome = BitString>>>`. The box is an
/// [`Engine`] through `pga-core`'s blanket impl; this forwards migration.
impl<D: Deme + ?Sized> Deme for Box<D> {
    type Genome = D::Genome;

    fn objective(&self) -> Objective {
        (**self).objective()
    }
    fn best_individual(&self) -> Individual<D::Genome> {
        (**self).best_individual()
    }
    fn emigrants(
        &mut self,
        selection: EmigrantSelection,
        count: usize,
    ) -> Vec<Individual<D::Genome>> {
        (**self).emigrants(selection, count)
    }
    fn emigrant_batches(
        &mut self,
        selection: EmigrantSelection,
        count: usize,
        copies: usize,
    ) -> Vec<Vec<Individual<D::Genome>>> {
        (**self).emigrant_batches(selection, count, copies)
    }
    fn immigrate(
        &mut self,
        immigrants: Vec<Individual<D::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize {
        (**self).immigrate(immigrants, policy)
    }
    fn immigrate_batch(
        &mut self,
        immigrants: &mut Vec<Individual<D::Genome>>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_core::ops::{BitFlip, OnePoint, Tournament};
    use pga_core::{BitString, GaBuilder, Rng64, Scheme};
    use std::sync::Arc;
    use std::time::Duration;

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
        let s0 = deme.progress(Duration::ZERO).evaluations;
        let stats = deme.step();
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
        let stats = demes[0].step();
        assert_eq!(stats.generation, 1);
        assert!(!demes[0].progress(Duration::ZERO).best_is_optimal || stats.best == 32.0);
    }
}
