//! The sequential GA engine: panmictic generational and steady-state loops.
//!
//! This engine is also the building block of the parallel models: an island
//! is one `Ga` per thread, a master–slave PGA is one `Ga` with a parallel
//! [`Evaluator`], and the hierarchical model stacks islands in layers.

use std::sync::Arc;
use std::time::Duration;

use pga_observe::{Recorder, Stopwatch};

use crate::driver::{Driver, Engine, Incumbent, RunOutcome, StepReport};
use crate::error::ConfigError;
use crate::eval::{Evaluator, SerialEvaluator};
use crate::individual::Individual;
use crate::ledger::RunLedger;
use crate::ops::{Crossover, Mutation, ReplacementPolicy, Selection, Variation};
use crate::population::Population;
use crate::problem::{Objective, Problem};
use crate::rng::Rng64;
use crate::snapshot::{Snapshot, SnapshotError, SnapshotWriter};
use crate::termination::{Progress, Termination};

/// Panmictic evolution scheme (Alba & Troya 2002 terminology).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Full generational replacement, preserving the best `elitism` members.
    Generational {
        /// Number of elites copied unchanged into the next generation.
        elitism: usize,
    },
    /// Steady-state: one offspring at a time enters via a replacement policy.
    SteadyState {
        /// How offspring enter the population.
        replacement: ReplacementPolicy,
    },
}

impl Scheme {
    /// Short name for harness tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Generational { .. } => "generational",
            Self::SteadyState { .. } => "steady-state",
        }
    }
}

/// A sequential genetic algorithm over problem `P` with evaluator `E`.
pub struct Ga<P: Problem, E: Evaluator<P> = SerialEvaluator> {
    problem: Arc<P>,
    evaluator: E,
    selection: Box<dyn Selection<P::Genome>>,
    variation: Variation<P::Genome>,
    scheme: Scheme,
    keep_history: bool,
    rng: Rng64,
    population: Population<P::Genome>,
    ledger: RunLedger<P::Genome>,
    // Breeding arenas, never part of snapshots: the retired generation
    // (whose genomes the next one is bred into), the parent and elite
    // index buffers, the steady-state child (the member it last retired,
    // or itself when rejected), and the spare genome that takes an unkept
    // second child. After the first step a step allocates nothing.
    offspring_buf: Vec<Individual<P::Genome>>,
    parents_buf: Vec<usize>,
    elites_buf: Vec<usize>,
    child: Option<P::Genome>,
    spare: Option<P::Genome>,
}

impl<P: Problem> Ga<P, SerialEvaluator> {
    /// Starts configuring an engine for `problem`.
    #[must_use]
    pub fn builder(problem: P) -> GaBuilder<P, SerialEvaluator> {
        GaBuilder::new(problem)
    }
}

impl<P: Problem, E: Evaluator<P>> Ga<P, E> {
    /// The optimization direction of the underlying problem.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.problem.objective()
    }

    /// The shared problem instance.
    #[must_use]
    pub fn problem(&self) -> &Arc<P> {
        &self.problem
    }

    /// The evaluation backend (e.g. to read pool telemetry after a run).
    #[must_use]
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Current population (always fully evaluated between steps).
    #[must_use]
    pub fn population(&self) -> &Population<P::Genome> {
        &self.population
    }

    /// Counters, best individual ever observed (elitism-independent),
    /// and recorder.
    #[must_use]
    pub fn ledger(&self) -> &RunLedger<P::Genome> {
        &self.ledger
    }

    /// Mutable ledger access, to attach a recorder or set the island id
    /// stamped on events.
    pub fn ledger_mut(&mut self) -> &mut RunLedger<P::Genome> {
        &mut self.ledger
    }

    /// Mutable access to the engine RNG (used by the island driver to keep
    /// migration draws on the island's own stream).
    pub fn rng_mut(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    /// Runs until the termination rule fires via the shared [`Driver`],
    /// honoring the builder's `keep_history` flag. Returns an error if the
    /// rule is unbounded.
    pub fn run(
        &mut self,
        termination: &Termination,
    ) -> Result<RunOutcome<Individual<P::Genome>>, ConfigError> {
        Driver::new(termination.clone())
            .keep_history(self.keep_history)
            .run(self)
    }

    /// Clones the members at `indices` for emigration. Fitness travels with
    /// the genome so the receiving island does not re-evaluate.
    #[must_use]
    pub fn clone_members(&self, indices: &[usize]) -> Vec<Individual<P::Genome>> {
        indices
            .iter()
            .map(|&i| self.population.members()[i].clone())
            .collect()
    }

    /// Inserts evaluated immigrants using `policy`; returns how many were
    /// accepted. Used by the island driver at migration points.
    pub fn receive_immigrants(
        &mut self,
        mut immigrants: Vec<Individual<P::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize {
        self.receive_immigrants_from(&mut immigrants, policy)
    }

    /// Draining variant of [`receive_immigrants`](Self::receive_immigrants):
    /// moves the individuals out of `immigrants` and leaves the vector empty
    /// so the caller can recycle it as an inbox arena across epochs.
    pub fn receive_immigrants_from(
        &mut self,
        immigrants: &mut Vec<Individual<P::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize {
        let objective = self.problem.objective();
        let mut accepted = 0;
        for mut im in immigrants.drain(..) {
            debug_assert!(im.is_evaluated(), "immigrants must carry fitness");
            self.ledger.offer_immigrant(&im);
            if policy
                .insert(&mut self.population, &mut im, objective, &mut self.rng)
                .is_some()
            {
                accepted += 1;
            }
        }
        accepted
    }

    /// One full generational step with elitism.
    ///
    /// The next generation is written over the retired one (`offspring_buf`,
    /// the members the previous step swapped out): elites are copied and
    /// offspring bred into its genomes in place, the parent and elite picks
    /// go to recycled index buffers, and the arena is swapped into the
    /// population wholesale. Only the first step, which finds the arena
    /// empty, allocates.
    fn step_generational(&mut self, elitism: usize) -> bool {
        let objective = self.problem.objective();
        let n = self.population.len();
        let mut next = std::mem::take(&mut self.offspring_buf);
        next.truncate(n);
        let mut elites = std::mem::take(&mut self.elites_buf);
        self.population
            .top_k_indices_into(objective, elitism, &mut elites);
        for (slot, &i) in elites.iter().enumerate() {
            let elite = &self.population.members()[i];
            ensure_slot(&mut next, slot, elite);
            next[slot].clone_from(elite);
        }
        let bred_from = elites.len();
        self.elites_buf = elites;

        let mut parents = std::mem::take(&mut self.parents_buf);
        self.selection.select_many_into(
            &self.population,
            objective,
            n - bred_from + 1,
            &mut self.rng,
            &mut parents,
        );
        let mut pi = 0;
        for slot in (bred_from..n).step_by(2) {
            let pa = &self.population[parents[pi % parents.len()]];
            let pb = &self.population[parents[(pi + 1) % parents.len()]];
            pi += 2;
            // Both children are bred into arena slots, except that the
            // second child of an odd generation's last pair goes to the
            // spare genome and is dropped.
            let second = slot + 1 < n;
            ensure_slot(&mut next, slot, pa);
            let (c, d) = if second {
                ensure_slot(&mut next, slot + 1, pb);
                let (lo, hi) = next.split_at_mut(slot + 1);
                (&mut lo[slot].genome, &mut hi[0].genome)
            } else {
                let spare = self.spare.get_or_insert_with(|| pb.genome.clone());
                (&mut next[slot].genome, spare)
            };
            self.variation
                .vary_into(&pa.genome, &pb.genome, c, d, second, &mut self.rng);
            if second {
                next[slot + 1].invalidate();
            }
            next[slot].invalidate();
        }
        self.parents_buf = parents;
        let sw = Stopwatch::started_if(self.ledger.is_recording());
        let fresh = self.evaluator.evaluate_batch(&self.problem, &mut next);
        self.ledger.count_evaluations(fresh);
        self.ledger.record_batch(&sw, n, fresh);
        // Swap the evaluated offspring in; the retiring members land in
        // `next` and are the arena the next generation is written over.
        self.population.swap_members(&mut next);
        self.offspring_buf = next;
        let best = self.population.best(objective);
        self.ledger.offer(&best.genome, best.fitness())
    }

    /// `count` steady-state offspring insertions. No generation closes, so
    /// the generation and stagnation counts stay as they are.
    pub fn step_offspring(&mut self, count: usize) {
        let replacement = match self.scheme {
            Scheme::SteadyState { replacement } => replacement,
            Scheme::Generational { .. } => ReplacementPolicy::WorstIfBetter,
        };
        self.step_steady_state(count, replacement);
    }

    /// Each child is bred into the genome the previous insertion handed
    /// back, so only a run's first breeding allocates.
    fn step_steady_state(&mut self, count: usize, replacement: ReplacementPolicy) -> bool {
        let objective = self.problem.objective();
        let mut improved = false;
        let sw = Stopwatch::started_if(self.ledger.is_recording());
        let mut fresh_total = 0u64;
        for _ in 0..count {
            let genome = self.variation.breed_steady(
                &self.population,
                objective,
                self.selection.as_ref(),
                self.child.take(),
                &mut self.spare,
                &mut self.rng,
            );
            let mut child = Individual::unevaluated(genome);
            let fresh = self
                .evaluator
                .evaluate_batch(&self.problem, std::slice::from_mut(&mut child));
            self.ledger.count_evaluations(fresh);
            fresh_total += fresh;
            improved |= self.ledger.offer(&child.genome, child.fitness());
            replacement.insert(&mut self.population, &mut child, objective, &mut self.rng);
            self.child = Some(child.genome);
        }
        // One event per generation-equivalent; the scope also covers the
        // variation operators interleaved with each single-child evaluation.
        self.ledger.record_batch(&sw, count, fresh_total);
        improved
    }
}

/// Makes `arena[slot]` exist: slots are filled in order, so a short
/// arena (only the first generational step finds one) grows by a clone
/// of `like`, which the caller then overwrites.
fn ensure_slot<G: Clone>(arena: &mut Vec<Individual<G>>, slot: usize, like: &Individual<G>) {
    if arena.len() <= slot {
        arena.push(like.clone());
    }
}

/// The panmictic GA as a uniformly driven [`Engine`]: one `step` is one
/// generation (or a generation-equivalent of steady-state offspring).
impl<P: Problem, E: Evaluator<P>> Incumbent for Ga<P, E> {
    type Best = Individual<P::Genome>;

    fn best(&self) -> Self::Best {
        self.ledger.best_ever().clone()
    }
}

impl<P: Problem, E: Evaluator<P>> Engine for Ga<P, E> {
    fn engine_id(&self) -> &'static str {
        "ga"
    }

    /// Advances one generation (generational scheme) or one generation
    /// equivalent of `pop_size` offspring (steady-state scheme).
    fn step(&mut self) -> StepReport {
        let improved = match self.scheme {
            Scheme::Generational { elitism } => self.step_generational(elitism),
            Scheme::SteadyState { replacement } => {
                let n = self.population.len();
                self.step_steady_state(n, replacement)
            }
        };
        let pop = self.population.stats(self.problem.objective());
        self.ledger
            .close_generation(&*self.problem, improved, pop.best, pop.mean)
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        self.ledger.progress(&*self.problem, elapsed)
    }

    fn record_run_started(&mut self) {
        let scheme = self.scheme.name();
        self.ledger
            .record_run_started(&*self.problem, || format!("ga-{scheme}"));
    }

    fn record_run_finished(&mut self) {
        self.ledger.record_run_finished(&*self.problem);
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        self.ledger.encode(&mut w);
        w.put_rng(&self.rng);
        Individual::encode_all(self.population.members(), &mut w);
        Snapshot::new("ga", w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for("ga")?;
        let ledger = RunLedger::decode(&mut r)?;
        let rng = r.take_rng()?;
        let members = Individual::decode_all(&mut r, self.population.len())?;
        r.finish()?;
        self.ledger.restore(ledger);
        self.rng = rng;
        self.population = Population::new(members);
        Ok(())
    }
}

/// Builder for [`Ga`]; see [`Ga::builder`].
pub struct GaBuilder<P: Problem, E: Evaluator<P> = SerialEvaluator> {
    problem: Arc<P>,
    evaluator: E,
    selection: Option<Box<dyn Selection<P::Genome>>>,
    crossover: Option<Box<dyn Crossover<P::Genome>>>,
    mutation: Option<Box<dyn Mutation<P::Genome>>>,
    scheme: Scheme,
    crossover_rate: f64,
    pop_size: usize,
    seed: u64,
    keep_history: bool,
    recorder: Option<Box<dyn Recorder>>,
}

impl<P: Problem> GaBuilder<P, SerialEvaluator> {
    /// Fresh builder with conventional defaults: population 100,
    /// crossover rate 0.9, generational scheme with 1 elite, seed 0.
    #[must_use]
    pub fn new(problem: P) -> Self {
        Self::from_shared(Arc::new(problem))
    }

    /// Shares an existing `Arc`'d problem (used by island drivers so all
    /// demes evaluate the same instance).
    #[must_use]
    pub fn from_shared(problem: Arc<P>) -> Self {
        Self {
            problem,
            evaluator: SerialEvaluator,
            selection: None,
            crossover: None,
            mutation: None,
            scheme: Scheme::Generational { elitism: 1 },
            crossover_rate: 0.9,
            pop_size: 100,
            seed: 0,
            keep_history: false,
            recorder: None,
        }
    }
}

impl<P: Problem, E: Evaluator<P>> GaBuilder<P, E> {
    /// Sets the RNG seed (the sole source of run randomness).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the population size (must be ≥ 2).
    #[must_use]
    pub fn pop_size(mut self, n: usize) -> Self {
        self.pop_size = n;
        self
    }

    /// Sets the probability that a selected pair undergoes crossover.
    #[must_use]
    pub fn crossover_rate(mut self, rate: f64) -> Self {
        self.crossover_rate = rate;
        self
    }

    /// Chooses the evolution scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the parent-selection operator.
    #[must_use]
    pub fn selection(mut self, s: impl Selection<P::Genome> + 'static) -> Self {
        self.selection = Some(Box::new(s));
        self
    }

    /// Sets the crossover operator.
    #[must_use]
    pub fn crossover(mut self, c: impl Crossover<P::Genome> + 'static) -> Self {
        self.crossover = Some(Box::new(c));
        self
    }

    /// Sets the mutation operator.
    #[must_use]
    pub fn mutation(mut self, m: impl Mutation<P::Genome> + 'static) -> Self {
        self.mutation = Some(Box::new(m));
        self
    }

    /// Records per-generation statistics in the run result.
    #[must_use]
    pub fn keep_history(mut self, keep: bool) -> Self {
        self.keep_history = keep;
        self
    }

    /// Attaches an observability recorder receiving the engine's event
    /// stream (see `pga-observe`). Purely observational: the recorder
    /// cannot influence the run.
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Swaps in a different evaluation strategy (e.g. a rayon pool).
    #[must_use]
    pub fn evaluator<E2: Evaluator<P>>(self, evaluator: E2) -> GaBuilder<P, E2> {
        GaBuilder {
            problem: self.problem,
            evaluator,
            selection: self.selection,
            crossover: self.crossover,
            mutation: self.mutation,
            scheme: self.scheme,
            crossover_rate: self.crossover_rate,
            pop_size: self.pop_size,
            seed: self.seed,
            keep_history: self.keep_history,
            recorder: self.recorder,
        }
    }

    /// Validates the configuration, samples and evaluates the initial
    /// population, and returns a ready engine.
    pub fn build(self) -> Result<Ga<P, E>, ConfigError> {
        if self.pop_size < 2 {
            return Err(ConfigError::InvalidParameter {
                name: "pop_size",
                message: format!("must be >= 2, got {}", self.pop_size),
            });
        }
        if let Scheme::Generational { elitism } = self.scheme {
            if elitism >= self.pop_size {
                return Err(ConfigError::InvalidParameter {
                    name: "elitism",
                    message: format!("must be < pop_size, got {elitism}"),
                });
            }
        }
        let selection = self
            .selection
            .ok_or(ConfigError::MissingComponent("selection"))?;
        let variation = Variation::new(self.crossover, self.mutation, self.crossover_rate)?;

        let mut rng = Rng64::new(self.seed);
        let members: Vec<Individual<P::Genome>> = (0..self.pop_size)
            .map(|_| Individual::unevaluated(self.problem.random_genome(&mut rng)))
            .collect();
        let mut population = Population::new(members);
        let evaluator = self.evaluator;
        let evaluations = evaluator.evaluate_batch(&self.problem, population.members_mut());
        population.refresh_fitness();
        let best_ever = population.best(self.problem.objective()).clone();
        let ledger = RunLedger::new(
            &*self.problem,
            self.seed,
            evaluations,
            best_ever,
            self.recorder,
        );

        Ok(Ga {
            problem: self.problem,
            evaluator,
            selection,
            variation,
            scheme: self.scheme,
            keep_history: self.keep_history,
            rng,
            population,
            ledger,
            offspring_buf: Vec::new(),
            parents_buf: Vec::new(),
            elites_buf: Vec::new(),
            child: None,
            spare: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{BitFlip, OnePoint, Tournament};
    use crate::repr::BitString;
    use crate::termination::StopReason;

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

    fn onemax_ga(seed: u64, scheme: Scheme) -> Ga<OneMax> {
        Ga::builder(OneMax(64))
            .seed(seed)
            .pop_size(60)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(64))
            .scheme(scheme)
            .build()
            .unwrap()
    }

    #[test]
    fn build_errors() {
        let e = Ga::builder(OneMax(8)).pop_size(1).build().err().unwrap();
        assert!(matches!(
            e,
            ConfigError::InvalidParameter {
                name: "pop_size",
                ..
            }
        ));

        let e = Ga::builder(OneMax(8))
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .build()
            .err()
            .unwrap();
        assert_eq!(e, ConfigError::MissingComponent("mutation"));

        let e = Ga::builder(OneMax(8))
            .crossover_rate(1.5)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::new(0.1))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            e,
            ConfigError::InvalidParameter {
                name: "crossover_rate",
                ..
            }
        ));

        let e = Ga::builder(OneMax(8))
            .pop_size(10)
            .scheme(Scheme::Generational { elitism: 10 })
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::new(0.1))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            e,
            ConfigError::InvalidParameter {
                name: "elitism",
                ..
            }
        ));
    }

    #[test]
    fn initial_population_is_evaluated() {
        let ga = onemax_ga(3, Scheme::Generational { elitism: 1 });
        assert!(ga.population().all_evaluated());
        assert_eq!(ga.ledger().evaluations(), 60);
        assert_eq!(ga.ledger().generation(), 0);
    }

    #[test]
    fn generational_solves_onemax() {
        let mut ga = onemax_ga(7, Scheme::Generational { elitism: 2 });
        let result = ga
            .run(&Termination::new().until_optimum().max_generations(500))
            .unwrap();
        assert!(result.hit_optimum, "best = {}", result.best_fitness);
        assert_eq!(result.stop, StopReason::TargetReached);
    }

    #[test]
    fn steady_state_solves_onemax() {
        let mut ga = onemax_ga(
            9,
            Scheme::SteadyState {
                replacement: ReplacementPolicy::WorstIfBetter,
            },
        );
        let result = ga
            .run(&Termination::new().until_optimum().max_generations(500))
            .unwrap();
        assert!(result.hit_optimum, "best = {}", result.best_fitness);
    }

    #[test]
    fn elitism_never_loses_best() {
        let mut ga = onemax_ga(11, Scheme::Generational { elitism: 1 });
        let mut last_best = ga.ledger().best_ever().fitness();
        for _ in 0..50 {
            let s = ga.step();
            assert!(
                s.best >= last_best,
                "elite lost: {} -> {}",
                last_best,
                s.best
            );
            last_best = s.best;
        }
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a = onemax_ga(42, Scheme::Generational { elitism: 1 });
        let mut b = onemax_ga(42, Scheme::Generational { elitism: 1 });
        for _ in 0..20 {
            let (sa, sb) = (a.step(), b.step());
            assert_eq!(sa.best, sb.best);
            assert_eq!(sa.mean, sb.mean);
            assert_eq!(sa.evaluations, sb.evaluations);
        }
    }

    #[test]
    fn different_seed_different_trajectory() {
        let mut a = onemax_ga(1, Scheme::Generational { elitism: 1 });
        let mut b = onemax_ga(2, Scheme::Generational { elitism: 1 });
        let mut any_diff = false;
        for _ in 0..10 {
            if a.step().mean != b.step().mean {
                any_diff = true;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn run_requires_bounded_termination() {
        let mut ga = onemax_ga(0, Scheme::Generational { elitism: 1 });
        assert_eq!(
            ga.run(&Termination::new()).err().unwrap(),
            ConfigError::UnboundedTermination
        );
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let mut ga = onemax_ga(5, Scheme::Generational { elitism: 1 });
        let result = ga.run(&Termination::new().max_evaluations(600)).unwrap();
        assert_eq!(result.stop, StopReason::MaxEvaluations);
        // One extra generation may complete after crossing the budget.
        assert!(
            result.evaluations <= 600 + 60,
            "evals = {}",
            result.evaluations
        );
    }

    #[test]
    fn history_is_captured_when_requested() {
        let mut ga = Ga::builder(OneMax(32))
            .seed(1)
            .pop_size(20)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(32))
            .keep_history(true)
            .build()
            .unwrap();
        let result = ga.run(&Termination::new().max_generations(10)).unwrap();
        assert_eq!(result.history.len(), 10);
        assert_eq!(result.history[9].generation, 10);
    }

    #[test]
    fn immigrants_enter_and_update_best() {
        let mut ga = onemax_ga(13, Scheme::Generational { elitism: 1 });
        let perfect = Individual::evaluated(BitString::ones(64), 64.0);
        let accepted = ga.receive_immigrants(vec![perfect], ReplacementPolicy::WorstIfBetter);
        assert_eq!(accepted, 1);
        assert_eq!(ga.ledger().best_ever().fitness(), 64.0);
    }

    #[test]
    fn recorder_sees_run_lifecycle() {
        use pga_observe::RingRecorder;
        let ring = RingRecorder::new(8192);
        let mut ga = Ga::builder(OneMax(32))
            .seed(7)
            .pop_size(40)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(32))
            .recorder(ring.clone())
            .build()
            .unwrap();
        let result = ga
            .run(&Termination::new().until_optimum().max_generations(300))
            .unwrap();
        let events = ring.events();
        assert_eq!(events[0].kind.name(), "run_started");
        assert_eq!(events.last().unwrap().kind.name(), "run_finished");
        let generations = events
            .iter()
            .filter(|e| e.kind.name() == "generation_completed")
            .count() as u64;
        assert_eq!(generations, result.generations);
        let batches = events
            .iter()
            .filter(|e| e.kind.name() == "evaluation_batch")
            .count() as u64;
        assert_eq!(batches, result.generations);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind.name() == "checkpoint_hit")
                .count(),
            usize::from(result.hit_optimum)
        );
    }

    #[test]
    fn clone_members_preserves_fitness() {
        let ga = onemax_ga(15, Scheme::Generational { elitism: 1 });
        let obj = ga.objective();
        let idx = ga.population().top_k_indices(obj, 3);
        let out = ga.clone_members(&idx);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|m| m.is_evaluated()));
        assert_eq!(out[0].fitness(), ga.population().best(obj).fitness());
    }
}
