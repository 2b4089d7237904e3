//! The cellular GA engine.

use crate::update::UpdatePolicy;
use pga_core::ops::{Crossover, Mutation};
use pga_core::rng::splitmix64;
use pga_core::termination::{Progress, Termination};
use pga_core::{
    ConfigError, Driver, Engine, Genome, Incumbent, Individual, Objective, Problem, Rng64,
    RunOutcome, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter, StepReport,
};
use pga_observe::{Event, EventKind, Recorder, Stopwatch};
use pga_topology::CellNeighborhood;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// A fine-grained GA: one individual per toroidal-grid cell, local binary
/// tournament over the cell's neighborhood, offspring replacing the center
/// when at least as fit.
///
/// Synchronous updates run the whole grid in parallel on rayon using a
/// double buffer (each cell's RNG stream is derived from
/// `(seed, generation, cell)`, so the result is independent of rayon's
/// scheduling). Asynchronous policies update in place, sequentially, in the
/// policy's order.
pub struct CellularGa<P: Problem> {
    problem: Arc<P>,
    grid: Vec<Individual<P::Genome>>,
    rows: usize,
    cols: usize,
    neighborhood: CellNeighborhood,
    policy: UpdatePolicy,
    crossover: Box<dyn Crossover<P::Genome>>,
    mutation: Box<dyn Mutation<P::Genome>>,
    crossover_rate: f64,
    seed: u64,
    rng: Rng64,
    fixed_sweep: Vec<usize>,
    /// Reused across generations: the per-sweep cell-update order.
    order_buf: Vec<usize>,
    /// Reused across generations: the synchronous path's offspring batch
    /// (one allocation for the lifetime of the engine, not one per sweep).
    offspring_buf: Vec<Individual<P::Genome>>,
    generation: u64,
    evaluations: u64,
    best_ever: Individual<P::Genome>,
    stagnant_generations: u64,
    trace_island: u32,
    optimum_traced: bool,
    recorder: Option<Box<dyn Recorder>>,
}

impl<P: Problem> CellularGa<P> {
    /// Starts configuring a cellular GA.
    #[must_use]
    pub fn builder(problem: P) -> CellularGaBuilder<P> {
        CellularGaBuilder::new(problem)
    }

    /// Grid cell count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// `true` when the grid has no cells (builder prevents this).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Generations executed.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Evaluations spent.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Best individual ever observed.
    #[must_use]
    pub fn best_ever(&self) -> &Individual<P::Genome> {
        &self.best_ever
    }

    /// The shared problem.
    #[must_use]
    pub fn problem(&self) -> &Arc<P> {
        &self.problem
    }

    /// Grid snapshot (row-major).
    #[must_use]
    pub fn grid(&self) -> &[Individual<P::Genome>] {
        &self.grid
    }

    /// Statistics of the current grid (without stepping).
    #[must_use]
    pub fn current_stats(&self) -> StepReport {
        self.stats()
    }

    pub(crate) fn rng_mut(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    /// Attaches an observability recorder (replacing any existing one).
    /// Purely observational — the grid's RNG streams are untouched.
    pub fn set_recorder(&mut self, recorder: impl Recorder + 'static) {
        self.recorder = Some(Box::new(recorder));
    }

    /// Detaches and returns the recorder, if any.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Island id stamped on this engine's events (0 unless a parallel
    /// driver assigns one).
    pub fn set_trace_island(&mut self, island: u32) {
        self.trace_island = island;
    }

    /// Routes a driver-side event through this engine's recorder.
    pub fn record_event(&mut self, event: &Event) {
        if let Some(r) = &mut self.recorder {
            r.record(event);
        }
    }

    fn emit(&mut self, kind: EventKind) {
        if let Some(r) = &mut self.recorder {
            r.record(&Event::new(kind));
        }
    }

    pub(crate) fn grid_mut(&mut self) -> &mut Vec<Individual<P::Genome>> {
        &mut self.grid
    }

    pub(crate) fn note_best(&mut self, candidate: &Individual<P::Genome>) {
        if self
            .problem
            .objective()
            .better(candidate.fitness(), self.best_ever.fitness())
        {
            self.best_ever = candidate.clone();
        }
    }

    fn stats(&self) -> StepReport {
        let objective = self.problem.objective();
        let mut best = self.grid[0].fitness();
        let mut sum = 0.0;
        for cell in &self.grid {
            let f = cell.fitness();
            if objective.better(f, best) {
                best = f;
            }
            sum += f;
        }
        StepReport {
            generation: self.generation,
            evaluations: self.evaluations,
            best,
            mean: sum / self.grid.len() as f64,
            best_ever: self.best_ever.fitness(),
        }
    }

    /// Deterministic per-cell stream: independent of scheduling.
    fn cell_rng(seed: u64, generation: u64, cell: usize) -> Rng64 {
        let mut s = seed ^ generation.rotate_left(32) ^ (cell as u64).wrapping_mul(0x9E37_79B9);
        Rng64::new(splitmix64(&mut s))
    }

    /// Produces the offspring for `idx` reading parents from `source`.
    #[allow(clippy::too_many_arguments)] // one call site; grouping into a struct would obscure it
    fn breed(
        problem: &P,
        source: &[Individual<P::Genome>],
        idx: usize,
        rows: usize,
        cols: usize,
        neighborhood: CellNeighborhood,
        crossover: &dyn Crossover<P::Genome>,
        mutation: &dyn Mutation<P::Genome>,
        crossover_rate: f64,
        rng: &mut Rng64,
    ) -> Individual<P::Genome> {
        let objective = problem.objective();
        let (r, c) = (idx / cols, idx % cols);
        // Stack-buffered neighborhood: breed runs once per cell per
        // generation, so a heap Vec here would dominate the sweep.
        let mut nb_buf = [0usize; 9];
        let nb = neighborhood.neighbors_into(r, c, rows, cols, &mut nb_buf);
        // Two independent binary tournaments over the neighborhood.
        let pick = |rng: &mut Rng64| {
            let a = *rng.choose(nb);
            let b = *rng.choose(nb);
            if objective.better(source[a].fitness(), source[b].fitness()) {
                a
            } else {
                b
            }
        };
        let pa = pick(rng);
        let pb = pick(rng);
        let (mut child, _) = if rng.chance(crossover_rate) {
            crossover.crossover(&source[pa].genome, &source[pb].genome, rng)
        } else {
            (source[pa].genome.clone(), source[pb].genome.clone())
        };
        mutation.mutate(&mut child, rng);
        let fitness = problem.evaluate(&child);
        Individual::evaluated(child, fitness)
    }

    /// Runs until the shared termination rule fires (via the generic
    /// [`Driver`]), collecting per-generation history. Returns an error if
    /// the rule is unbounded.
    pub fn run(
        &mut self,
        termination: &Termination,
    ) -> Result<RunOutcome<Individual<P::Genome>>, ConfigError> {
        Driver::new(termination.clone())
            .keep_history(true)
            .run(self)
    }
}

impl<P: Problem> Incumbent for CellularGa<P> {
    type Best = Individual<P::Genome>;

    fn best(&self) -> Self::Best {
        self.best_ever.clone()
    }
}

/// The fine-grained cellular model as a uniformly driven [`Engine`]: one
/// `step` is one sweep over the whole grid.
impl<P: Problem> Engine for CellularGa<P> {
    fn engine_id(&self) -> &'static str {
        "cellular"
    }

    /// One generation (`n` cell updates). Returns end-of-generation stats.
    fn step(&mut self) -> StepReport {
        let n = self.grid.len();
        let sw = Stopwatch::started_if(self.recorder.is_some());
        let objective = self.problem.objective();
        let best_before = self.best_ever.fitness();
        let order = {
            let mut rng = self.rng.clone();
            let mut o = std::mem::take(&mut self.order_buf);
            self.policy
                .order_into(n, &self.fixed_sweep, &mut rng, &mut o);
            self.rng = rng;
            o
        };

        if self.policy.is_asynchronous() {
            for (step_idx, &idx) in order.iter().enumerate() {
                let mut rng = Self::cell_rng(self.seed, self.generation, step_idx);
                let child = Self::breed(
                    &self.problem,
                    &self.grid,
                    idx,
                    self.rows,
                    self.cols,
                    self.neighborhood,
                    self.crossover.as_ref(),
                    self.mutation.as_ref(),
                    self.crossover_rate,
                    &mut rng,
                );
                self.evaluations += 1;
                if objective.better_or_equal(child.fitness(), self.grid[idx].fitness()) {
                    if objective.better(child.fitness(), self.best_ever.fitness()) {
                        self.best_ever = child.clone();
                    }
                    self.grid[idx] = child;
                }
            }
        } else {
            // Synchronous: breed all cells in parallel from the old grid,
            // on the persistent pool, into the reused offspring buffer.
            let mut offspring = std::mem::take(&mut self.offspring_buf);
            {
                let problem = &self.problem;
                let (rows, cols) = (self.rows, self.cols);
                let neighborhood = self.neighborhood;
                let crossover = self.crossover.as_ref();
                let mutation = self.mutation.as_ref();
                let rate = self.crossover_rate;
                let (seed, generation) = (self.seed, self.generation);
                let grid = &self.grid;
                (0..n)
                    .into_par_iter()
                    .map(|idx| {
                        let mut rng = Self::cell_rng(seed, generation, idx);
                        Self::breed(
                            problem,
                            grid,
                            idx,
                            rows,
                            cols,
                            neighborhood,
                            crossover,
                            mutation,
                            rate,
                            &mut rng,
                        )
                    })
                    .collect_into_vec(&mut offspring);
            }
            self.evaluations += n as u64;
            for (idx, child) in offspring.drain(..).enumerate() {
                if objective.better_or_equal(child.fitness(), self.grid[idx].fitness()) {
                    if objective.better(child.fitness(), self.best_ever.fitness()) {
                        self.best_ever = child.clone();
                    }
                    self.grid[idx] = child;
                }
            }
            self.offspring_buf = offspring;
        }
        self.order_buf = order;

        self.generation += 1;
        if objective.better(self.best_ever.fitness(), best_before) {
            self.stagnant_generations = 0;
        } else {
            self.stagnant_generations += 1;
        }
        let stats = self.stats();
        if self.recorder.is_some() {
            if let Some(micros) = sw.elapsed_micros() {
                self.emit(EventKind::EvaluationBatch {
                    island: self.trace_island,
                    batch: stats.generation,
                    size: n as u64,
                    fresh: n as u64,
                    micros,
                });
            }
            self.emit(EventKind::GenerationCompleted {
                island: self.trace_island,
                generation: stats.generation,
                evaluations: stats.evaluations,
                best: stats.best,
                mean: stats.mean,
                best_ever: stats.best_ever,
            });
        }
        // Tracked unconditionally so snapshot bytes do not depend on
        // whether a recorder is attached; `emit` no-ops without one.
        if !self.optimum_traced && self.problem.is_optimal(stats.best_ever) {
            self.optimum_traced = true;
            self.emit(EventKind::CheckpointHit {
                island: self.trace_island,
                generation: stats.generation,
                best: stats.best_ever,
            });
        }
        stats
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        Progress {
            generations: self.generation,
            evaluations: self.evaluations,
            best_fitness: self.best_ever.fitness(),
            best_is_optimal: self.problem.is_optimal(self.best_ever.fitness()),
            stagnant_generations: self.stagnant_generations,
            elapsed,
            maximizing: self.problem.objective() == Objective::Maximize,
            cost_units: self.evaluations as f64,
        }
    }

    /// Emits `RunStarted` for an externally driven run (e.g. a cellular
    /// deme stepped by an island driver).
    fn record_run_started(&mut self) {
        if self.recorder.is_some() {
            let engine = format!("cellular-{}", self.policy.name());
            let problem = self.problem.name();
            let seed = self.seed;
            self.emit(EventKind::RunStarted {
                island: self.trace_island,
                engine,
                problem,
                seed,
            });
        }
    }

    /// Emits `RunFinished` and flushes the recorder; counterpart of
    /// [`CellularGa::record_run_started`].
    fn record_run_finished(&mut self) {
        if self.recorder.is_some() {
            let hit_optimum = self.problem.is_optimal(self.best_ever.fitness());
            self.emit(EventKind::RunFinished {
                island: self.trace_island,
                generations: self.generation,
                evaluations: self.evaluations,
                best: self.best_ever.fitness(),
                hit_optimum,
            });
            if let Some(r) = &mut self.recorder {
                r.flush();
            }
        }
    }

    /// Captures the grid, RNG stream, and counters. The fixed sweep order
    /// and scratch buffers are derived from the configuration, so they are
    /// not part of the snapshot.
    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.generation);
        w.put_u64(self.evaluations);
        w.put_u64(self.stagnant_generations);
        w.put_bool(self.optimum_traced);
        let (s, spare) = self.rng.snapshot_state();
        for word in s {
            w.put_u64(word);
        }
        w.put_opt_f64(spare);
        self.best_ever.genome.encode(&mut w);
        w.put_opt_f64(self.best_ever.fitness);
        w.put_usize(self.grid.len());
        for cell in &self.grid {
            cell.genome.encode(&mut w);
            w.put_opt_f64(cell.fitness);
        }
        Snapshot::new("cellular", w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for("cellular")?;
        let generation = r.take_u64()?;
        let evaluations = r.take_u64()?;
        let stagnant_generations = r.take_u64()?;
        let optimum_traced = r.take_bool()?;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.take_u64()?;
        }
        let spare = r.take_opt_f64()?;
        let take_individual =
            |r: &mut SnapshotReader<'_>| -> Result<Individual<P::Genome>, SnapshotError> {
                let genome = P::Genome::decode(r)?;
                let fitness = r.take_opt_f64()?;
                Ok(Individual { genome, fitness })
            };
        let best_ever = take_individual(&mut r)?;
        let len = r.take_usize()?;
        if len != self.grid.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot grid has {len} cells, engine has {}",
                self.grid.len()
            )));
        }
        let mut grid = Vec::with_capacity(len);
        for _ in 0..len {
            grid.push(take_individual(&mut r)?);
        }
        r.finish()?;
        self.generation = generation;
        self.evaluations = evaluations;
        self.stagnant_generations = stagnant_generations;
        self.optimum_traced = optimum_traced;
        self.rng = Rng64::from_snapshot_state(s, spare);
        self.best_ever = best_ever;
        self.grid = grid;
        Ok(())
    }
}

/// Builder for [`CellularGa`].
pub struct CellularGaBuilder<P: Problem> {
    problem: Arc<P>,
    rows: usize,
    cols: usize,
    neighborhood: CellNeighborhood,
    policy: UpdatePolicy,
    crossover: Option<Box<dyn Crossover<P::Genome>>>,
    mutation: Option<Box<dyn Mutation<P::Genome>>>,
    crossover_rate: f64,
    seed: u64,
    recorder: Option<Box<dyn Recorder>>,
}

impl<P: Problem> CellularGaBuilder<P> {
    /// Defaults: 16×16 torus, Von Neumann neighborhood, synchronous update,
    /// crossover rate 0.9, seed 0.
    #[must_use]
    pub fn new(problem: P) -> Self {
        Self {
            problem: Arc::new(problem),
            rows: 16,
            cols: 16,
            neighborhood: CellNeighborhood::VonNeumann,
            policy: UpdatePolicy::Synchronous,
            crossover: None,
            mutation: None,
            crossover_rate: 0.9,
            seed: 0,
            recorder: None,
        }
    }

    /// Grid dimensions.
    #[must_use]
    pub fn grid(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Neighborhood shape.
    #[must_use]
    pub fn neighborhood(mut self, nb: CellNeighborhood) -> Self {
        self.neighborhood = nb;
        self
    }

    /// Update policy.
    #[must_use]
    pub fn update_policy(mut self, policy: UpdatePolicy) -> Self {
        self.policy = policy;
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

    /// Crossover application probability.
    #[must_use]
    pub fn crossover_rate(mut self, rate: f64) -> Self {
        self.crossover_rate = rate;
        self
    }

    /// RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an observability recorder receiving the engine's event
    /// stream (see `pga-observe`).
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Validates, samples and evaluates the initial grid.
    pub fn build(self) -> Result<CellularGa<P>, ConfigError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "grid",
                message: format!("grid must be non-empty, got {}x{}", self.rows, self.cols),
            });
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err(ConfigError::InvalidParameter {
                name: "crossover_rate",
                message: format!("must be in [0,1], got {}", self.crossover_rate),
            });
        }
        let crossover = self
            .crossover
            .ok_or(ConfigError::MissingComponent("crossover"))?;
        let mutation = self
            .mutation
            .ok_or(ConfigError::MissingComponent("mutation"))?;
        let mut rng = Rng64::new(self.seed);
        let n = self.rows * self.cols;
        let grid: Vec<Individual<P::Genome>> = (0..n)
            .map(|_| {
                let genome = self.problem.random_genome(&mut rng);
                let fitness = self.problem.evaluate(&genome);
                Individual::evaluated(genome, fitness)
            })
            .collect();
        let mut fixed_sweep: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut fixed_sweep);
        let objective = self.problem.objective();
        let best_ever = grid
            .iter()
            .reduce(|a, b| {
                if objective.better(b.fitness(), a.fitness()) {
                    b
                } else {
                    a
                }
            })
            .expect("non-empty grid")
            .clone();
        Ok(CellularGa {
            problem: self.problem,
            grid,
            rows: self.rows,
            cols: self.cols,
            neighborhood: self.neighborhood,
            policy: self.policy,
            crossover,
            mutation,
            crossover_rate: self.crossover_rate,
            seed: self.seed,
            rng,
            fixed_sweep,
            order_buf: Vec::new(),
            offspring_buf: Vec::new(),
            generation: 0,
            evaluations: n as u64,
            best_ever,
            stagnant_generations: 0,
            trace_island: 0,
            optimum_traced: false,
            recorder: self.recorder,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_core::ops::{BitFlip, OnePoint};
    use pga_core::{BitString, Objective};

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

    fn cga(policy: UpdatePolicy, seed: u64) -> CellularGa<OneMax> {
        CellularGa::builder(OneMax(32))
            .grid(10, 10)
            .update_policy(policy)
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(32))
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn build_errors() {
        let e = CellularGa::builder(OneMax(8))
            .grid(0, 5)
            .crossover(OnePoint)
            .mutation(BitFlip { p: 0.1 })
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            e,
            ConfigError::InvalidParameter { name: "grid", .. }
        ));
        let e = CellularGa::builder(OneMax(8))
            .mutation(BitFlip { p: 0.1 })
            .build()
            .err()
            .unwrap();
        assert_eq!(e, ConfigError::MissingComponent("crossover"));
    }

    #[test]
    fn all_policies_solve_onemax() {
        for policy in UpdatePolicy::ALL {
            let mut cga = cga(policy, 5);
            let outcome = cga
                .run(&Termination::new().until_optimum().max_generations(300))
                .unwrap();
            assert!(
                outcome.hit_optimum,
                "{}: best = {}",
                policy.name(),
                outcome.best_fitness
            );
            assert!(!outcome.history.is_empty());
        }
    }

    #[test]
    fn synchronous_step_is_deterministic_despite_rayon() {
        let mut a = cga(UpdatePolicy::Synchronous, 42);
        let mut b = cga(UpdatePolicy::Synchronous, 42);
        for _ in 0..10 {
            let (sa, sb) = (a.step(), b.step());
            assert_eq!(sa.best, sb.best);
            assert_eq!(sa.mean, sb.mean);
        }
    }

    #[test]
    fn elitist_replacement_never_regresses_best_cell() {
        let mut cga = cga(UpdatePolicy::LineSweep, 7);
        let mut last = cga.step().best;
        for _ in 0..30 {
            let s = cga.step();
            assert!(s.best >= last);
            last = s.best;
        }
    }

    #[test]
    fn evaluations_count_one_per_update() {
        let mut cga = cga(UpdatePolicy::Synchronous, 1);
        assert_eq!(cga.evaluations(), 100); // initial grid
        cga.step();
        assert_eq!(cga.evaluations(), 200);
        let mut acga = cga_async();
        assert_eq!(acga.evaluations(), 100);
        acga.step();
        assert_eq!(acga.evaluations(), 200);
    }

    fn cga_async() -> CellularGa<OneMax> {
        cga(UpdatePolicy::UniformChoice, 1)
    }

    #[test]
    fn recorder_observes_cellular_run() {
        use pga_observe::RingRecorder;
        let ring = RingRecorder::new(4096);
        let mut cga = CellularGa::builder(OneMax(32))
            .grid(8, 8)
            .update_policy(UpdatePolicy::LineSweep)
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(32))
            .seed(3)
            .recorder(ring.clone())
            .build()
            .unwrap();
        let outcome = cga
            .run(&Termination::new().until_optimum().max_generations(200))
            .unwrap();
        let events = ring.events();
        assert!(matches!(
            &events[0].kind,
            EventKind::RunStarted { engine, .. } if engine == "cellular-line-sweep"
        ));
        assert_eq!(events.last().unwrap().kind.name(), "run_finished");
        let gens = events
            .iter()
            .filter(|e| e.kind.name() == "generation_completed")
            .count();
        assert_eq!(gens, outcome.history.len());
    }

    #[test]
    fn mean_improves_over_time() {
        let mut cga = cga(UpdatePolicy::NewRandomSweep, 3);
        let first = cga.step().mean;
        for _ in 0..50 {
            cga.step();
        }
        let last = cga.step().mean;
        assert!(last > first + 3.0, "mean {first} -> {last}");
    }
}
