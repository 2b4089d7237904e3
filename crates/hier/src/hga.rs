//! The hierarchical (multi-layer, multi-fidelity) island engine.

use crate::fidelity::{FidelityProblem, LevelView};
use pga_core::ops::ReplacementPolicy;
use pga_core::{
    ConfigError, Driver, Engine, Ga, Incumbent, Individual, Objective, Problem, Progress,
    RunOutcome, SerialEvaluator, Snapshot, SnapshotError, SnapshotWriter, StepReport, Termination,
};
use std::sync::Arc;
use std::time::Duration;

/// Shape and schedule of a hierarchy.
#[derive(Clone, Debug)]
pub struct HgaConfig {
    /// Islands per layer, root layer first — e.g. `[1, 2, 4]` is Sefrioui &
    /// Périaux's 3-layer binary tree. Layer 0 evaluates the precise model;
    /// layer `l` evaluates fidelity level `min(l, levels-1)`.
    pub layer_widths: Vec<usize>,
    /// Generations each island evolves between migrations.
    pub epoch_generations: u64,
    /// Individuals promoted to the parent (and sent down to each child) per
    /// epoch.
    pub promote_count: usize,
}

impl Default for HgaConfig {
    fn default() -> Self {
        Self {
            layer_widths: vec![1, 2, 4],
            epoch_generations: 10,
            promote_count: 2,
        }
    }
}

/// Progress point: cumulative cost vs best precise fitness.
#[derive(Clone, Copy, Debug)]
pub struct CostPoint {
    /// Cost units spent so far (1.0 = one precise evaluation).
    pub cost_units: f64,
    /// Best fitness found on the precise (level-0) model so far.
    pub best_precise: f64,
}

/// Island factory used by [`HgaBuilder`]: configures one engine for a given
/// fidelity view and seed.
pub type IslandFactory<F> = Box<dyn FnMut(LevelView<F>, u64) -> Ga<LevelView<F>, SerialEvaluator>>;

/// Fluent configuration for [`Hga`] — the builder façade matching
/// `GaBuilder`/`CellularGaBuilder`; validation happens in
/// [`build`](HgaBuilder::build).
pub struct HgaBuilder<F: FidelityProblem> {
    problem: Arc<F>,
    config: HgaConfig,
    seed: u64,
    build_island: Option<IslandFactory<F>>,
}

impl<F: FidelityProblem> HgaBuilder<F> {
    fn new(problem: Arc<F>) -> Self {
        Self {
            problem,
            config: HgaConfig::default(),
            seed: 0,
            build_island: None,
        }
    }

    /// Islands per layer, root first (see [`HgaConfig::layer_widths`]).
    #[must_use]
    pub fn layer_widths(mut self, widths: Vec<usize>) -> Self {
        self.config.layer_widths = widths;
        self
    }

    /// Generations each island evolves between migrations.
    #[must_use]
    pub fn epoch_generations(mut self, generations: u64) -> Self {
        self.config.epoch_generations = generations;
        self
    }

    /// Individuals promoted up (and sent down) per epoch.
    #[must_use]
    pub fn promote_count(mut self, count: usize) -> Self {
        self.config.promote_count = count;
        self
    }

    /// Base seed; island `i` gets `seed + i`.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Island factory: builds one engine for a fidelity view and seed
    /// (operators, population size, scheme). Required.
    #[must_use]
    pub fn island(
        mut self,
        build: impl FnMut(LevelView<F>, u64) -> Ga<LevelView<F>, SerialEvaluator> + 'static,
    ) -> Self {
        self.build_island = Some(Box::new(build));
        self
    }

    /// Validates the configuration and assembles the hierarchy.
    ///
    /// # Errors
    /// [`ConfigError::MissingComponent`] without an island factory;
    /// [`ConfigError::InvalidParameter`] on empty/zero-width layers, zero
    /// `promote_count`, or zero `epoch_generations`.
    pub fn build(self) -> Result<Hga<F>, ConfigError> {
        if self.config.epoch_generations == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "epoch_generations",
                message: "must be > 0".into(),
            });
        }
        let build_island = self
            .build_island
            .ok_or(ConfigError::MissingComponent("island factory"))?;
        Hga::new(self.problem, self.config, self.seed, build_island)
    }
}

/// A tree of islands over fidelity levels.
pub struct Hga<F: FidelityProblem> {
    problem: Arc<F>,
    islands: Vec<Ga<LevelView<F>, SerialEvaluator>>,
    layer_of: Vec<usize>,
    parent_of: Vec<Option<usize>>,
    config: HgaConfig,
    cost_units: f64,
    /// Evaluations already charged per island.
    charged: Vec<u64>,
    epochs: u64,
    stagnant_epochs: u64,
    best_seen: Option<f64>,
    trajectory: Vec<CostPoint>,
}

impl<F: FidelityProblem> Hga<F> {
    /// Starts configuring a hierarchy over `problem` — the canonical
    /// entry point (see [`HgaBuilder`]).
    #[must_use]
    pub fn builder(problem: Arc<F>) -> HgaBuilder<F> {
        HgaBuilder::new(problem)
    }

    /// Assembles the hierarchy. `build_island` configures one engine for a
    /// given fidelity view and seed (operators, population size, scheme).
    ///
    /// # Errors
    /// Rejects configs with no layers, zero-width layers, or a zero
    /// `promote_count`.
    pub fn new(
        problem: Arc<F>,
        config: HgaConfig,
        base_seed: u64,
        mut build_island: impl FnMut(LevelView<F>, u64) -> Ga<LevelView<F>, SerialEvaluator>,
    ) -> Result<Self, ConfigError> {
        if config.layer_widths.is_empty() {
            return Err(ConfigError::InvalidParameter {
                name: "layer_widths",
                message: "need at least one layer".into(),
            });
        }
        if config.layer_widths.contains(&0) {
            return Err(ConfigError::InvalidParameter {
                name: "layer_widths",
                message: "layers must be non-empty".into(),
            });
        }
        if config.promote_count == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "promote_count",
                message: "must be > 0".into(),
            });
        }
        let mut islands = Vec::new();
        let mut layer_of = Vec::new();
        let mut parent_of: Vec<Option<usize>> = Vec::new();
        let mut layer_start = Vec::new();
        let max_level = problem.levels() - 1;
        let mut seed = base_seed;
        for (layer, &width) in config.layer_widths.iter().enumerate() {
            layer_start.push(islands.len());
            let level = layer.min(max_level);
            for j in 0..width {
                let view = LevelView::new(Arc::clone(&problem), level);
                islands.push(build_island(view, seed));
                seed = seed.wrapping_add(1);
                layer_of.push(layer);
                parent_of.push(if layer == 0 {
                    None
                } else {
                    // Children map onto parents round-robin by position.
                    let pw = config.layer_widths[layer - 1];
                    Some(layer_start[layer - 1] + j % pw)
                });
            }
        }
        let charged = islands
            .iter()
            .map(|g| g.ledger().evaluations())
            .collect::<Vec<_>>();
        // Charge initial populations.
        let mut cost_units = 0.0;
        for (i, isl) in islands.iter().enumerate() {
            cost_units += charged[i] as f64 * isl.problem().cost();
        }
        let mut hga = Self {
            problem,
            islands,
            layer_of,
            parent_of,
            config,
            cost_units,
            charged,
            epochs: 0,
            stagnant_epochs: 0,
            best_seen: None,
            trajectory: Vec::new(),
        };
        hga.trajectory.push(CostPoint {
            cost_units: hga.cost_units,
            best_precise: hga.best_precise().fitness(),
        });
        Ok(hga)
    }

    /// Cost units spent so far.
    #[must_use]
    pub fn cost_units(&self) -> f64 {
        self.cost_units
    }

    /// Island count across all layers.
    #[must_use]
    pub fn island_count(&self) -> usize {
        self.islands.len()
    }

    /// Best individual among the precise (layer-0) islands.
    #[must_use]
    pub fn best_precise(&self) -> Individual<F::Genome> {
        let objective = self.problem.objective();
        let mut best: Option<&Individual<F::Genome>> = None;
        for (i, isl) in self.islands.iter().enumerate() {
            if self.layer_of[i] != 0 {
                continue;
            }
            let cand = isl.ledger().best_ever();
            if best.is_none() || objective.better(cand.fitness(), best.expect("set").fitness()) {
                best = Some(cand);
            }
        }
        best.expect("layer 0 is non-empty").clone()
    }

    fn charge_new_evals(&mut self) {
        for i in 0..self.islands.len() {
            let now = self.islands[i].ledger().evaluations();
            let fresh = now - self.charged[i];
            if fresh > 0 {
                self.cost_units += fresh as f64 * self.islands[i].problem().cost();
                self.charged[i] = now;
            }
        }
    }

    /// One epoch: evolve every island, then migrate up (re-evaluating at the
    /// parent's fidelity) and down.
    pub fn epoch(&mut self) {
        for isl in &mut self.islands {
            for _ in 0..self.config.epoch_generations {
                isl.step();
            }
        }
        self.charge_new_evals();

        let objective = self.problem.objective();
        let promote = self.config.promote_count;

        // Collect upward and downward transfers first (genomes only),
        // then apply — transfers within one epoch see pre-migration state.
        let mut transfers: Vec<(usize, Vec<F::Genome>)> = Vec::new();
        for i in 0..self.islands.len() {
            if let Some(parent) = self.parent_of[i] {
                // Up: the child's best genomes.
                let top = self.islands[i]
                    .population()
                    .top_k_indices(objective, promote);
                let genomes = top
                    .into_iter()
                    .map(|k| self.islands[i].population()[k].genome.clone())
                    .collect();
                transfers.push((parent, genomes));
                // Down: random parent members to keep the child exploring.
                let mut rng = self.islands[parent].rng_mut().clone();
                let picks = rng.sample_distinct(self.islands[parent].population().len(), promote);
                *self.islands[parent].rng_mut() = rng;
                let genomes_down = picks
                    .into_iter()
                    .map(|k| self.islands[parent].population()[k].genome.clone())
                    .collect();
                transfers.push((i, genomes_down));
            }
        }

        for (dst, genomes) in transfers {
            let view = Arc::clone(self.islands[dst].problem());
            let immigrants: Vec<Individual<F::Genome>> = genomes
                .into_iter()
                .map(|g| {
                    // Re-evaluate at the destination fidelity: fitness is
                    // level-dependent and must not leak across layers.
                    let fitness = view.evaluate(&g);
                    self.cost_units += view.cost();
                    Individual::evaluated(g, fitness)
                })
                .collect();
            self.islands[dst].receive_immigrants(immigrants, ReplacementPolicy::WorstIfBetter);
        }
    }

    /// Epochs completed.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Per-epoch cost/quality trajectory recorded so far (starts with the
    /// post-initialization point).
    #[must_use]
    pub fn trajectory(&self) -> &[CostPoint] {
        &self.trajectory
    }

    /// Total fitness evaluations spent across all islands (fidelity-blind;
    /// see [`Hga::cost_units`] for the cost-weighted figure).
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.islands.iter().map(|g| g.ledger().evaluations()).sum()
    }

    /// Runs under `termination` through the shared [`Driver`]. Cost budgets
    /// map to [`Termination::max_cost_units`]; generation budgets count
    /// epochs.
    ///
    /// # Errors
    /// [`ConfigError::UnboundedTermination`] when `termination` has no
    /// criteria.
    pub fn run(
        &mut self,
        termination: &Termination,
    ) -> Result<RunOutcome<Individual<F::Genome>>, ConfigError> {
        Driver::new(termination.clone()).run(self)
    }
}

impl<F: FidelityProblem> Incumbent for Hga<F> {
    type Best = Individual<F::Genome>;

    fn best(&self) -> Individual<F::Genome> {
        self.best_precise()
    }
}

impl<F: FidelityProblem> Engine for Hga<F> {
    fn engine_id(&self) -> &'static str {
        "hga"
    }

    fn step(&mut self) -> StepReport {
        self.epoch();
        self.epochs += 1;
        let best = self.best_precise();
        let objective = self.problem.objective();
        match self.best_seen {
            Some(seen) if !objective.better(best.fitness(), seen) => self.stagnant_epochs += 1,
            _ => {
                self.best_seen = Some(best.fitness());
                self.stagnant_epochs = 0;
            }
        }
        self.trajectory.push(CostPoint {
            cost_units: self.cost_units,
            best_precise: best.fitness(),
        });
        // Mean over the precise (layer-0) populations: the quality figure
        // the hierarchy is accountable for.
        let (mut sum, mut n) = (0.0, 0usize);
        for (i, isl) in self.islands.iter().enumerate() {
            if self.layer_of[i] != 0 {
                continue;
            }
            for member in isl.population().members() {
                sum += member.fitness();
                n += 1;
            }
        }
        StepReport {
            generation: self.epochs,
            evaluations: self.evaluations(),
            best: best.fitness(),
            mean: if n == 0 {
                best.fitness()
            } else {
                sum / n as f64
            },
            best_ever: best.fitness(),
        }
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        let best = self.best_precise();
        Progress {
            generations: self.epochs,
            evaluations: self.evaluations(),
            best_fitness: best.fitness(),
            best_is_optimal: self.problem.is_optimal(best.fitness()),
            stagnant_generations: self.stagnant_epochs,
            elapsed,
            maximizing: self.problem.objective() == Objective::Maximize,
            cost_units: self.cost_units,
        }
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        w.put_f64(self.cost_units);
        w.put_u64(self.epochs);
        w.put_u64(self.stagnant_epochs);
        w.put_opt_f64(self.best_seen);
        w.put_usize(self.charged.len());
        for &c in &self.charged {
            w.put_u64(c);
        }
        w.put_usize(self.trajectory.len());
        for p in &self.trajectory {
            w.put_f64(p.cost_units);
            w.put_f64(p.best_precise);
        }
        w.put_usize(self.islands.len());
        for isl in &self.islands {
            let nested = Engine::snapshot(isl);
            w.put_str(nested.engine());
            w.put_bytes(nested.payload());
        }
        Snapshot::new(self.engine_id(), w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for(self.engine_id())?;
        let cost_units = r.take_f64()?;
        let epochs = r.take_u64()?;
        let stagnant_epochs = r.take_u64()?;
        let best_seen = r.take_opt_f64()?;
        let n_charged = r.take_usize()?;
        if n_charged != self.charged.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot has {n_charged} islands, hierarchy has {}",
                self.charged.len()
            )));
        }
        let mut charged = Vec::with_capacity(n_charged);
        for _ in 0..n_charged {
            charged.push(r.take_u64()?);
        }
        let n_points = r.take_count(16)?;
        let mut trajectory = Vec::with_capacity(n_points);
        for _ in 0..n_points {
            let cost_units = r.take_f64()?;
            let best_precise = r.take_f64()?;
            trajectory.push(CostPoint {
                cost_units,
                best_precise,
            });
        }
        let n_islands = r.take_usize()?;
        if n_islands != self.islands.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot has {n_islands} islands, hierarchy has {}",
                self.islands.len()
            )));
        }
        let mut nested = Vec::with_capacity(n_islands);
        for _ in 0..n_islands {
            let engine = r.take_str()?;
            let payload = r.take_bytes()?.to_vec();
            nested.push(Snapshot::new(engine, payload));
        }
        r.finish()?;
        for (isl, snap) in self.islands.iter_mut().zip(&nested) {
            Engine::restore(isl, snap)?;
        }
        self.cost_units = cost_units;
        self.epochs = epochs;
        self.stagnant_epochs = stagnant_epochs;
        self.best_seen = best_seen;
        self.charged = charged;
        self.trajectory = trajectory;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::BlurredFidelity;
    use pga_core::ops::{BlxAlpha, GaussianMutation, Tournament};
    use pga_core::{Bounds, Objective, Problem, RealVector, Rng64, Scheme, Termination};

    struct Sphere(Bounds);
    impl Problem for Sphere {
        type Genome = RealVector;
        fn name(&self) -> String {
            "sphere".into()
        }
        fn objective(&self) -> Objective {
            Objective::Minimize
        }
        fn evaluate(&self, g: &RealVector) -> f64 {
            g.values().iter().map(|x| x * x).sum()
        }
        fn random_genome(&self, rng: &mut Rng64) -> RealVector {
            self.0.sample(rng)
        }
        fn optimum(&self) -> Option<f64> {
            Some(0.0)
        }
        fn optimum_epsilon(&self) -> f64 {
            1e-2
        }
    }

    fn build(
        view: LevelView<BlurredFidelity<Sphere>>,
        seed: u64,
    ) -> Ga<LevelView<BlurredFidelity<Sphere>>, SerialEvaluator> {
        let bounds = Bounds::uniform(-5.0, 5.0, 6);
        pga_core::GaBuilder::new(view)
            .seed(seed)
            .pop_size(24)
            .selection(Tournament::binary())
            .crossover(BlxAlpha::new(bounds.clone()))
            .mutation(GaussianMutation {
                p: 0.2,
                sigma: 0.3,
                bounds,
            })
            .scheme(Scheme::Generational { elitism: 1 })
            .build()
            .unwrap()
    }

    fn hga(amplitude: f64, cost_ratio: f64, seed: u64) -> Hga<BlurredFidelity<Sphere>> {
        let problem = Arc::new(BlurredFidelity::new(
            Sphere(Bounds::uniform(-5.0, 5.0, 6)),
            3,
            amplitude,
            cost_ratio,
        ));
        Hga::new(problem, HgaConfig::default(), seed, build).unwrap()
    }

    fn budget(max_cost_units: f64) -> Termination {
        Termination::new()
            .until_optimum()
            .max_cost_units(max_cost_units)
    }

    #[test]
    fn hierarchy_shape() {
        let h = hga(0.3, 4.0, 1);
        assert_eq!(h.island_count(), 7);
        assert_eq!(h.layer_of, vec![0, 1, 1, 2, 2, 2, 2]);
        assert_eq!(h.parent_of[0], None);
        assert_eq!(h.parent_of[1], Some(0));
        assert_eq!(h.parent_of[2], Some(0));
        assert_eq!(h.parent_of[3], Some(1));
        assert_eq!(h.parent_of[4], Some(2));
    }

    #[test]
    fn initial_cost_accounts_fidelity() {
        // 24 individuals/island; 1 island at cost 1, 2 at 1/4, 4 at 1/16.
        let h = hga(0.3, 4.0, 2);
        let expected = 24.0 * (1.0 + 2.0 * 0.25 + 4.0 * 0.0625);
        assert!(
            (h.cost_units() - expected).abs() < 1e-9,
            "{}",
            h.cost_units()
        );
    }

    #[test]
    fn hga_improves_precise_best() {
        let mut h = hga(0.3, 4.0, 3);
        let outcome = h.run(&budget(4_000.0)).unwrap();
        assert!(
            outcome.best_fitness < 0.5,
            "best = {}",
            outcome.best_fitness
        );
        assert!(h.epochs() > 0);
        // Trajectory is monotone in cost and non-worsening in quality.
        for w in h.trajectory().windows(2) {
            assert!(w[1].cost_units >= w[0].cost_units);
            assert!(w[1].best_precise <= w[0].best_precise + 1e-12);
        }
    }

    #[test]
    fn cheap_layers_make_progress_cheaper() {
        // Same architecture; the all-precise variant pays cost 1 per
        // evaluation everywhere (cost_ratio = 1).
        let rule = budget(2_500.0);
        let multi = hga(0.3, 4.0, 10).run(&rule).unwrap();
        let precise_only = hga(0.0, 1.0, 10).run(&rule).unwrap();
        // Both should improve, but the multi-fidelity run gets far more
        // evolution per cost unit and should be at least as good.
        assert!(
            multi.best_fitness <= precise_only.best_fitness + 0.1,
            "multi {} vs precise {}",
            multi.best_fitness,
            precise_only.best_fitness
        );
    }

    #[test]
    fn deterministic() {
        let mut ha = hga(0.3, 4.0, 5);
        let mut hb = hga(0.3, 4.0, 5);
        let a = ha.run(&budget(1_000.0)).unwrap();
        let b = hb.run(&budget(1_000.0)).unwrap();
        assert_eq!(a.best_fitness, b.best_fitness);
        assert_eq!(ha.cost_units(), hb.cost_units());
        assert_eq!(ha.epochs(), hb.epochs());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let problem = Arc::new(BlurredFidelity::new(
            Sphere(Bounds::uniform(-5.0, 5.0, 6)),
            3,
            0.3,
            4.0,
        ));
        let bad = HgaConfig {
            layer_widths: vec![],
            ..HgaConfig::default()
        };
        assert!(matches!(
            Hga::new(problem, bad, 1, build),
            Err(pga_core::ConfigError::InvalidParameter {
                name: "layer_widths",
                ..
            })
        ));
    }
}
