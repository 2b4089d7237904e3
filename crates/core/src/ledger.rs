//! The run ledger: the bookkeeping every generational engine shares.
//!
//! Harada–Alba–Luque (arXiv:2106.09922) compare parallel GAs on equal
//! work counted in fitness evaluations, so the evaluation count, the
//! best-ever individual and the stagnation rule must mean the same thing
//! in every engine family. [`RunLedger`] holds them once: the panmictic
//! [`Ga`](crate::Ga), the cellular grid, the compact GA and its sharded
//! form, and the asynchronous steady-state master–slave engine each keep
//! a ledger beside their population or model, and report through it.
//!
//! The ledger owns
//! * the generation and evaluation counters, the best individual ever
//!   seen and the stagnation count ([`RunLedger::progress`]);
//! * the optional recorder, the island id stamped on events, and the
//!   seed reported in `RunStarted`;
//! * the "generation closed" tail every engine ends a step with
//!   ([`RunLedger::close_generation`]): the stagnation rule, the
//!   `GenerationCompleted` event, and the one-time `CheckpointHit` when
//!   the best first reaches the optimum;
//! * the leading block of the engine's snapshot payload
//!   ([`RunLedger::encode`]): generation, evaluations, stagnation, the
//!   optimum-traced flag and the best individual, in that order. Each
//!   engine writes its own state after it.
//!
//! **Stagnation rule.** A generation whose offers improved the best
//! resets the count to 0, and any other generation adds one. An improving
//! immigrant resets it at once ([`RunLedger::offer_immigrant`]): progress
//! is progress regardless of its source.

use std::time::Duration;

use pga_observe::{Event, EventKind, Recorder, Stopwatch};

use crate::driver::StepReport;
use crate::individual::Individual;
use crate::problem::{Objective, Problem};
use crate::repr::Genome;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use crate::termination::Progress;

/// Run counters, best-ever individual, stagnation and event recorder of
/// one engine; see the [module docs](self).
pub struct RunLedger<G> {
    counters: Counters<G>,
    objective: Objective,
    seed: u64,
    trace_island: u32,
    recorder: Option<Box<dyn Recorder>>,
}

/// The snapshotted part of a [`RunLedger`], decoded by
/// [`RunLedger::decode`] and applied by [`RunLedger::restore`]. Engines
/// decode their whole payload before applying any of it, so a rejected
/// snapshot leaves the engine untouched.
pub struct LedgerBlock<G>(Counters<G>);

struct Counters<G> {
    generation: u64,
    evaluations: u64,
    stagnant_generations: u64,
    optimum_traced: bool,
    best_ever: Individual<G>,
}

impl<G: Genome> RunLedger<G> {
    /// A ledger at generation 0 for a run on `problem` started from
    /// `seed`, with `evaluations` already spent building the initial
    /// population and `best_ever` its best member.
    pub fn new<P: Problem + ?Sized>(
        problem: &P,
        seed: u64,
        evaluations: u64,
        best_ever: Individual<G>,
        recorder: Option<Box<dyn Recorder>>,
    ) -> Self {
        Self {
            counters: Counters {
                generation: 0,
                evaluations,
                stagnant_generations: 0,
                optimum_traced: false,
                best_ever,
            },
            objective: problem.objective(),
            seed,
            trace_island: 0,
            recorder,
        }
    }

    /// Generations completed.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.counters.generation
    }

    /// Fitness evaluations spent.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.counters.evaluations
    }

    /// Best individual ever observed.
    #[must_use]
    pub fn best_ever(&self) -> &Individual<G> {
        &self.counters.best_ever
    }

    /// The RNG seed the engine was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Island id stamped on this engine's events.
    #[must_use]
    pub fn trace_island(&self) -> u32 {
        self.trace_island
    }

    /// Sets the island id stamped on this engine's events (0 unless a
    /// parallel driver assigns one).
    pub fn set_trace_island(&mut self, island: u32) {
        self.trace_island = island;
    }

    /// Attaches an observability recorder, replacing any existing one.
    ///
    /// Recorders only observe: attaching or detaching one never changes
    /// an RNG stream, the search trajectory or the snapshot bytes.
    pub fn set_recorder(&mut self, recorder: impl Recorder + 'static) {
        self.recorder = Some(Box::new(recorder));
    }

    /// Detaches and returns the recorder, if any.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// `true` when a recorder is attached.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Routes an event (e.g. island migration bookkeeping) through the
    /// recorder. No-op when none is attached.
    pub fn record_event(&mut self, event: &Event) {
        if let Some(r) = &mut self.recorder {
            r.record(event);
        }
    }

    /// Records an event of `kind` stamped now. No-op without a recorder.
    pub fn emit(&mut self, kind: EventKind) {
        if let Some(r) = &mut self.recorder {
            r.record(&Event::new(kind));
        }
    }

    /// Emits `EvaluationBatch` for the generation being bred: `size`
    /// offspring, `fresh` of them evaluated, timed by `sw` (which runs
    /// only while a recorder is attached).
    pub fn record_batch(&mut self, sw: &Stopwatch, size: usize, fresh: u64) {
        if let Some(micros) = sw.elapsed_micros() {
            self.emit(EventKind::EvaluationBatch {
                island: self.trace_island,
                batch: self.counters.generation + 1,
                size: size as u64,
                fresh,
                micros,
            });
        }
    }

    /// Adds `count` spent fitness evaluations.
    pub fn count_evaluations(&mut self, count: u64) {
        self.counters.evaluations += count;
    }

    /// Offers an evaluated genome as the new best-ever; it is kept (and
    /// `true` returned) only when strictly better.
    pub fn offer(&mut self, genome: &G, fitness: f64) -> bool {
        let better = self
            .objective
            .better(fitness, self.counters.best_ever.fitness());
        if better {
            // Copied into the kept genome's buffer, not a fresh clone.
            let best = &mut self.counters.best_ever;
            best.genome.clone_from(genome);
            best.fitness = Some(fitness);
        }
        better
    }

    /// [`offer`](Self::offer) for an immigrant: an improving one also
    /// resets the stagnation count at once.
    pub fn offer_immigrant(&mut self, immigrant: &Individual<G>) -> bool {
        let better = self.offer(&immigrant.genome, immigrant.fitness());
        if better {
            self.counters.stagnant_generations = 0;
        }
        better
    }

    /// Closes one generation: counts it, applies the stagnation rule
    /// (`improved` says whether any offer of this generation was kept),
    /// emits `GenerationCompleted` and, the first time the best is
    /// optimal, `CheckpointHit`. `best` and `mean` summarise the current
    /// population. Returns the step's report.
    pub fn close_generation<P: Problem + ?Sized>(
        &mut self,
        problem: &P,
        improved: bool,
        best: f64,
        mean: f64,
    ) -> StepReport {
        let c = &mut self.counters;
        c.generation += 1;
        if improved {
            c.stagnant_generations = 0;
        } else {
            c.stagnant_generations += 1;
        }
        let report = StepReport {
            generation: c.generation,
            evaluations: c.evaluations,
            best,
            mean,
            best_ever: c.best_ever.fitness(),
        };
        let island = self.trace_island;
        self.emit(EventKind::GenerationCompleted {
            island,
            generation: report.generation,
            evaluations: report.evaluations,
            best,
            mean,
            best_ever: report.best_ever,
        });
        // Tracked unconditionally so snapshot bytes do not depend on
        // whether a recorder is attached; `emit` no-ops without one.
        if !self.counters.optimum_traced && problem.is_optimal(report.best_ever) {
            self.counters.optimum_traced = true;
            self.emit(EventKind::CheckpointHit {
                island,
                generation: report.generation,
                best: report.best_ever,
            });
        }
        report
    }

    /// Progress for termination checks, with evaluations as the cost.
    pub fn progress<P: Problem + ?Sized>(&self, problem: &P, elapsed: Duration) -> Progress {
        let c = &self.counters;
        let best = c.best_ever.fitness();
        Progress {
            generations: c.generation,
            evaluations: c.evaluations,
            best_fitness: best,
            best_is_optimal: problem.is_optimal(best),
            stagnant_generations: c.stagnant_generations,
            elapsed,
            maximizing: self.objective == Objective::Maximize,
            cost_units: c.evaluations as f64,
        }
    }

    /// Emits `RunStarted` naming the engine as `engine()` reports it.
    pub fn record_run_started<P: Problem + ?Sized>(
        &mut self,
        problem: &P,
        engine: impl FnOnce() -> String,
    ) {
        if self.recorder.is_some() {
            self.emit(EventKind::RunStarted {
                island: self.trace_island,
                engine: engine(),
                problem: problem.name(),
                seed: self.seed,
            });
        }
    }

    /// Emits `RunFinished` and flushes the recorder.
    pub fn record_run_finished<P: Problem + ?Sized>(&mut self, problem: &P) {
        let c = &self.counters;
        let best = c.best_ever.fitness();
        if let Some(r) = &mut self.recorder {
            r.record(&Event::new(EventKind::RunFinished {
                island: self.trace_island,
                generations: c.generation,
                evaluations: c.evaluations,
                best,
                hit_optimum: problem.is_optimal(best),
            }));
            r.flush();
        }
    }

    /// Writes the ledger block that leads every ledger engine's payload.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        let c = &self.counters;
        w.put_u64(c.generation);
        w.put_u64(c.evaluations);
        w.put_u64(c.stagnant_generations);
        w.put_bool(c.optimum_traced);
        c.best_ever.encode(w);
    }

    /// Reads a block written by [`encode`](Self::encode).
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<LedgerBlock<G>, SnapshotError> {
        Ok(LedgerBlock(Counters {
            generation: r.take_u64()?,
            evaluations: r.take_u64()?,
            stagnant_generations: r.take_u64()?,
            optimum_traced: r.take_bool()?,
            best_ever: Individual::decode(r)?,
        }))
    }

    /// Applies a decoded block. The recorder, trace island and seed are
    /// configuration, not state, and stay as they are.
    pub fn restore(&mut self, block: LedgerBlock<G>) {
        self.counters = block.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::BitString;
    use crate::rng::Rng64;

    struct Ones;
    impl Problem for Ones {
        type Genome = BitString;
        fn name(&self) -> String {
            "ones".into()
        }
        fn objective(&self) -> Objective {
            Objective::Maximize
        }
        fn evaluate(&self, g: &BitString) -> f64 {
            g.count_ones() as f64
        }
        fn random_genome(&self, rng: &mut Rng64) -> BitString {
            BitString::random(8, rng)
        }
        fn optimum(&self) -> Option<f64> {
            Some(8.0)
        }
    }

    #[test]
    fn stagnation_resets_on_improving_generations_and_immigrants() {
        let first = Individual::evaluated(BitString::zeros(8), 0.0);
        let mut l = RunLedger::new(&Ones, 5, 10, first, None);
        let stagnation =
            |l: &RunLedger<BitString>| l.progress(&Ones, Duration::ZERO).stagnant_generations;
        l.close_generation(&Ones, false, 0.0, 0.0);
        l.close_generation(&Ones, false, 0.0, 0.0);
        assert_eq!(stagnation(&l), 2);
        assert!(l.offer(&BitString::ones(8), 3.0));
        assert!(
            !l.offer(&BitString::ones(8), 3.0),
            "only strictly better is kept"
        );
        l.close_generation(&Ones, true, 3.0, 1.0);
        assert_eq!(stagnation(&l), 0);
        l.close_generation(&Ones, false, 3.0, 1.0);
        assert_eq!(stagnation(&l), 1);
        assert!(l.offer_immigrant(&Individual::evaluated(BitString::ones(8), 4.0)));
        assert_eq!(stagnation(&l), 0);
        assert!(!l.offer_immigrant(&Individual::evaluated(BitString::zeros(8), 1.0)));
        assert_eq!(l.best_ever().fitness(), 4.0);
    }
}
