//! The cellular GA engine.

use crate::update::UpdatePolicy;
use pga_core::ops::{Crossover, Mutation, Variation};
use pga_core::rng::splitmix64;
use pga_core::termination::{Progress, Termination};
use pga_core::{
    ConfigError, Driver, Engine, Incumbent, Individual, Problem, Rng64, RunLedger, RunOutcome,
    Snapshot, SnapshotError, SnapshotWriter, StepReport,
};
use pga_observe::{Recorder, Stopwatch};
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
    variation: Variation<P::Genome>,
    rng: Rng64,
    fixed_sweep: Vec<usize>,
    /// Reused across generations: the per-sweep cell-update order.
    order_buf: Vec<usize>,
    /// One offspring slot per cell, bred into in place every sweep; an
    /// accepted child is swapped with its cell, so the replaced member
    /// becomes the slot's next buffer and a sweep allocates nothing.
    offspring: Vec<Offspring<P::Genome>>,
    ledger: RunLedger<P::Genome>,
}

/// A cell's offspring slot: the child, and the spare genome that takes
/// the crossover's second child, which the cellular model drops.
struct Offspring<G> {
    child: Individual<G>,
    spare: G,
}

/// What breeding one cell reads from the engine, borrowed apart from the
/// grid and the offspring slots so the synchronous sweep can share it
/// across pool workers while they write the slots.
struct Breeder<'a, P: Problem> {
    problem: &'a P,
    rows: usize,
    cols: usize,
    neighborhood: CellNeighborhood,
    variation: &'a Variation<P::Genome>,
}

impl<P: Problem> Breeder<'_, P> {
    /// Breeds and evaluates the offspring of cell `idx` into `slot`,
    /// reading parents from `source`.
    fn breed_into(
        &self,
        source: &[Individual<P::Genome>],
        idx: usize,
        slot: &mut Offspring<P::Genome>,
        rng: &mut Rng64,
    ) {
        let objective = self.problem.objective();
        let (r, c) = (idx / self.cols, idx % self.cols);
        // Stack-buffered neighborhood: breeding runs once per cell per
        // generation, so a heap Vec here would dominate the sweep.
        let mut nb_buf = [0usize; 9];
        let nb = self
            .neighborhood
            .neighbors_into(r, c, self.rows, self.cols, &mut nb_buf);
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
        let pa = &source[pick(rng)].genome;
        let pb = &source[pick(rng)].genome;
        let child = &mut slot.child.genome;
        self.variation
            .vary_into(pa, pb, child, &mut slot.spare, false, rng);
        slot.child.fitness = Some(self.problem.evaluate(child));
    }
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

    /// Counters, best cell ever observed, and recorder.
    #[must_use]
    pub fn ledger(&self) -> &RunLedger<P::Genome> {
        &self.ledger
    }

    /// Mutable ledger access, to attach a recorder or set the island id
    /// stamped on events.
    pub fn ledger_mut(&mut self) -> &mut RunLedger<P::Genome> {
        &mut self.ledger
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

    pub(crate) fn rng_mut(&mut self) -> &mut Rng64 {
        &mut self.rng
    }

    pub(crate) fn grid_mut(&mut self) -> &mut Vec<Individual<P::Genome>> {
        &mut self.grid
    }

    /// Best and mean fitness of the current grid.
    fn grid_fitness(&self) -> (f64, f64) {
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
        (best, sum / self.grid.len() as f64)
    }

    /// Deterministic per-cell stream: independent of scheduling.
    fn cell_rng(seed: u64, generation: u64, cell: usize) -> Rng64 {
        let mut s = seed ^ generation.rotate_left(32) ^ (cell as u64).wrapping_mul(0x9E37_79B9);
        Rng64::new(splitmix64(&mut s))
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
        self.ledger.best_ever().clone()
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
        let sw = Stopwatch::started_if(self.ledger.is_recording());
        let objective = self.problem.objective();
        let (seed, generation) = (self.ledger.seed(), self.ledger.generation());
        let mut improved = false;
        let order = {
            let mut rng = self.rng.clone();
            let mut o = std::mem::take(&mut self.order_buf);
            self.policy
                .order_into(n, &self.fixed_sweep, &mut rng, &mut o);
            self.rng = rng;
            o
        };

        let mut offspring = std::mem::take(&mut self.offspring);
        let breeder = Breeder {
            problem: &*self.problem,
            rows: self.rows,
            cols: self.cols,
            neighborhood: self.neighborhood,
            variation: &self.variation,
        };
        if self.policy.is_asynchronous() {
            for (step_idx, &idx) in order.iter().enumerate() {
                let mut rng = Self::cell_rng(seed, generation, step_idx);
                let slot = &mut offspring[idx];
                breeder.breed_into(&self.grid, idx, slot, &mut rng);
                self.ledger.count_evaluations(1);
                let child = &mut slot.child;
                if objective.better_or_equal(child.fitness(), self.grid[idx].fitness()) {
                    improved |= self.ledger.offer(&child.genome, child.fitness());
                    std::mem::swap(&mut self.grid[idx], child);
                }
            }
        } else {
            // Synchronous: breed every cell in parallel from the old grid,
            // on the persistent pool, each into its own slot.
            let grid = &self.grid;
            offspring
                .par_iter_mut()
                .enumerate()
                .for_each(|(idx, slot)| {
                    let mut rng = Self::cell_rng(seed, generation, idx);
                    breeder.breed_into(grid, idx, slot, &mut rng);
                });
            self.ledger.count_evaluations(n as u64);
            for (cell, slot) in self.grid.iter_mut().zip(&mut offspring) {
                let child = &mut slot.child;
                if objective.better_or_equal(child.fitness(), cell.fitness()) {
                    improved |= self.ledger.offer(&child.genome, child.fitness());
                    std::mem::swap(cell, child);
                }
            }
        }
        self.offspring = offspring;
        self.order_buf = order;

        let (best, mean) = self.grid_fitness();
        self.ledger.record_batch(&sw, n, n as u64);
        self.ledger
            .close_generation(&*self.problem, improved, best, mean)
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        self.ledger.progress(&*self.problem, elapsed)
    }

    fn record_run_started(&mut self) {
        let policy = self.policy.name();
        self.ledger
            .record_run_started(&*self.problem, || format!("cellular-{policy}"));
    }

    fn record_run_finished(&mut self) {
        self.ledger.record_run_finished(&*self.problem);
    }

    /// Captures the grid, RNG stream, and counters. The fixed sweep order
    /// and scratch buffers are derived from the configuration, so they are
    /// not part of the snapshot.
    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        self.ledger.encode(&mut w);
        w.put_rng(&self.rng);
        Individual::encode_all(&self.grid, &mut w);
        Snapshot::new("cellular", w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for("cellular")?;
        let ledger = RunLedger::decode(&mut r)?;
        let rng = r.take_rng()?;
        let grid = Individual::decode_all(&mut r, self.grid.len())?;
        r.finish()?;
        self.ledger.restore(ledger);
        self.rng = rng;
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
        let variation = Variation::new(self.crossover, self.mutation, self.crossover_rate)?;
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
        // The first strictly better cell wins; `grid[0]` exists because
        // both dimensions were checked non-zero above.
        let mut best_ever = &grid[0];
        for cell in &grid[1..] {
            if objective.better(cell.fitness(), best_ever.fitness()) {
                best_ever = cell;
            }
        }
        let ledger = RunLedger::new(
            &*self.problem,
            self.seed,
            n as u64,
            best_ever.clone(),
            self.recorder,
        );
        let offspring = grid
            .iter()
            .map(|cell| Offspring {
                child: cell.clone(),
                spare: cell.genome.clone(),
            })
            .collect();
        Ok(CellularGa {
            problem: self.problem,
            grid,
            rows: self.rows,
            cols: self.cols,
            neighborhood: self.neighborhood,
            policy: self.policy,
            variation,
            rng,
            fixed_sweep,
            order_buf: Vec::new(),
            offspring,
            ledger,
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
            .mutation(BitFlip::new(0.1))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            e,
            ConfigError::InvalidParameter { name: "grid", .. }
        ));
        let e = CellularGa::builder(OneMax(8))
            .mutation(BitFlip::new(0.1))
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
        assert_eq!(cga.ledger().evaluations(), 100); // initial grid
        cga.step();
        assert_eq!(cga.ledger().evaluations(), 200);
        let mut acga = cga_async();
        assert_eq!(acga.ledger().evaluations(), 100);
        acga.step();
        assert_eq!(acga.ledger().evaluations(), 200);
    }

    fn cga_async() -> CellularGa<OneMax> {
        cga(UpdatePolicy::UniformChoice, 1)
    }

    #[test]
    fn recorder_observes_cellular_run() {
        use pga_observe::{EventKind, RingRecorder};
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
