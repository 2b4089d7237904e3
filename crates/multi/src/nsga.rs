//! A compact NSGA-II-style engine with objective masking.
//!
//! Objective masking is what makes the Specialized Island Model possible:
//! a specialist island runs this same engine but computes dominance on a
//! *subset* of the objectives (Xiao & Armstrong 2003). The full objective
//! vector is always stored, so migrants and archive offers stay comparable
//! across islands.

use crate::pareto::{crowding_distance, fast_nondominated_sort};
use crate::problems::MoProblem;
use pga_core::ops::{Crossover, Mutation, Variation};
use pga_core::{
    ConfigError, Driver, Engine, Genome, Incumbent, Progress, Rng64, RunOutcome, Snapshot,
    SnapshotError, SnapshotWriter, StepReport, Termination,
};
use std::sync::Arc;
use std::time::Duration;

/// One population member: genome plus its full objective vector.
#[derive(Clone, Debug)]
pub struct MoIndividual<G> {
    /// The chromosome.
    pub genome: G,
    /// Full objective vector (all objectives, minimization convention).
    pub objectives: Vec<f64>,
}

/// NSGA-II-style engine over a multiobjective problem.
pub struct MoEngine<P: MoProblem> {
    problem: Arc<P>,
    mask: Vec<bool>,
    population: Vec<MoIndividual<P::Genome>>,
    variation: Variation<P::Genome>,
    rng: Rng64,
    generation: u64,
    evaluations: u64,
    stagnant_generations: u64,
    /// Best (lowest) masked-objective sum ever seen: the scalar proxy this
    /// engine reports to the single-objective driver machinery.
    best_proxy: f64,
}

impl<P: MoProblem> MoEngine<P> {
    /// Starts configuring an engine.
    #[must_use]
    pub fn builder(problem: P) -> MoEngineBuilder<P> {
        MoEngineBuilder::new(Arc::new(problem))
    }

    /// Builder over an already-shared problem (used by SIM so all islands
    /// evaluate the same instance).
    #[must_use]
    pub fn builder_shared(problem: Arc<P>) -> MoEngineBuilder<P> {
        MoEngineBuilder::new(problem)
    }

    /// Generations completed.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Evaluations spent.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Current population.
    #[must_use]
    pub fn population(&self) -> &[MoIndividual<P::Genome>] {
        &self.population
    }

    /// The objective mask this engine specializes on.
    #[must_use]
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Projects a full objective vector onto the mask.
    fn masked(&self, objectives: &[f64]) -> Vec<f64> {
        objectives
            .iter()
            .zip(&self.mask)
            .filter(|&(_, &keep)| keep)
            .map(|(&o, _)| o)
            .collect()
    }

    /// Current non-dominated set *under the mask* as indices.
    #[must_use]
    pub fn first_front(&self) -> Vec<usize> {
        let masked: Vec<Vec<f64>> = self
            .population
            .iter()
            .map(|m| self.masked(&m.objectives))
            .collect();
        fast_nondominated_sort(&masked)
            .into_iter()
            .next()
            .unwrap_or_default()
    }

    /// (rank, crowding) of every member under the mask.
    fn rank_and_crowding(&self) -> (Vec<usize>, Vec<f64>) {
        let masked: Vec<Vec<f64>> = self
            .population
            .iter()
            .map(|m| self.masked(&m.objectives))
            .collect();
        Self::rank_and_crowding_of(&masked)
    }

    fn rank_and_crowding_of(masked: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
        let fronts = fast_nondominated_sort(masked);
        let mut rank = vec![0usize; masked.len()];
        let mut crowd = vec![0.0f64; masked.len()];
        for (r, front) in fronts.iter().enumerate() {
            let pts: Vec<Vec<f64>> = front.iter().map(|&i| masked[i].clone()).collect();
            let d = crowding_distance(&pts);
            for (slot, &i) in front.iter().enumerate() {
                rank[i] = r;
                crowd[i] = d[slot];
            }
        }
        (rank, crowd)
    }

    fn tournament(&self, rank: &[usize], crowd: &[f64], rng: &mut Rng64) -> usize {
        let n = self.population.len();
        let a = rng.below(n);
        let b = rng.below(n);
        if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
            a
        } else {
            b
        }
    }

    /// Clones `count` random members of the current first front (migration
    /// source for SIM).
    #[must_use]
    pub fn emigrants(&mut self, count: usize) -> Vec<MoIndividual<P::Genome>> {
        let front = self.first_front();
        if front.is_empty() {
            return Vec::new();
        }
        let mut rng = self.rng.clone();
        let out = (0..count)
            .map(|_| self.population[*rng.choose(&front)].clone())
            .collect();
        self.rng = rng;
        out
    }

    /// Replaces random members with immigrants (their stored full objective
    /// vectors are kept — no re-evaluation needed, the problem is shared).
    pub fn receive_immigrants(&mut self, immigrants: Vec<MoIndividual<P::Genome>>) {
        let mut rng = self.rng.clone();
        for im in immigrants {
            let slot = rng.below(self.population.len());
            self.population[slot] = im;
        }
        self.rng = rng;
    }

    /// (min, mean) of the masked-objective sum across the population — the
    /// scalar quality proxy reported through [`StepReport`] / [`Progress`].
    /// Smaller is better (minimization convention).
    fn proxy_stats(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut sum = 0.0;
        for m in &self.population {
            let s: f64 = m
                .objectives
                .iter()
                .zip(&self.mask)
                .filter(|&(_, &keep)| keep)
                .map(|(&o, _)| o)
                .sum();
            min = min.min(s);
            sum += s;
        }
        (min, sum / self.population.len() as f64)
    }

    /// Runs under `termination` through the shared [`Driver`]. Fitness
    /// targets apply to the masked-objective-sum proxy (minimized); there
    /// is no known optimum, so `until_optimum` never fires.
    ///
    /// # Errors
    /// [`ConfigError::UnboundedTermination`] when `termination` has no
    /// criteria.
    pub fn run(
        &mut self,
        termination: &Termination,
    ) -> Result<RunOutcome<Vec<MoIndividual<P::Genome>>>, ConfigError> {
        Driver::new(termination.clone()).run(self)
    }
}

impl<P: MoProblem> Incumbent for MoEngine<P> {
    /// The current first front under the engine's objective mask.
    type Best = Vec<MoIndividual<P::Genome>>;

    fn best(&self) -> Vec<MoIndividual<P::Genome>> {
        self.first_front()
            .into_iter()
            .map(|i| self.population[i].clone())
            .collect()
    }
}

impl<P: MoProblem> Engine for MoEngine<P> {
    fn engine_id(&self) -> &'static str {
        "nsga"
    }

    /// One NSGA-II generation: breed `pop_size` offspring, then select the
    /// best `pop_size` of parents+offspring by (rank, crowding).
    fn step(&mut self) -> StepReport {
        let n = self.population.len();
        let (rank, crowd) = self.rank_and_crowding();
        let mut rng = self.rng.clone();
        let mut offspring = Vec::with_capacity(n);
        while offspring.len() < n {
            let a = &self.population[self.tournament(&rank, &crowd, &mut rng)].genome;
            let b = &self.population[self.tournament(&rank, &crowd, &mut rng)].genome;
            let (mut c, mut d) = (a.clone(), b.clone());
            let keep_second = offspring.len() + 1 < n;
            self.variation
                .vary_into(a, b, &mut c, &mut d, keep_second, &mut rng);
            offspring.push(c);
            if keep_second {
                offspring.push(d);
            }
        }
        self.rng = rng;

        let mut union = std::mem::take(&mut self.population);
        for genome in offspring {
            let objectives = self.problem.evaluate(&genome);
            self.evaluations += 1;
            union.push(MoIndividual { genome, objectives });
        }

        // Environmental selection on the union.
        let masked: Vec<Vec<f64>> = union.iter().map(|m| self.masked(&m.objectives)).collect();
        let fronts = fast_nondominated_sort(&masked);
        let mut next: Vec<MoIndividual<P::Genome>> = Vec::with_capacity(n);
        let mut chosen: Vec<usize> = Vec::with_capacity(n);
        for front in fronts {
            if chosen.len() + front.len() <= n {
                chosen.extend(front);
            } else {
                let pts: Vec<Vec<f64>> = front.iter().map(|&i| masked[i].clone()).collect();
                let d = crowding_distance(&pts);
                let mut by_crowding: Vec<usize> = (0..front.len()).collect();
                by_crowding.sort_by(|&a, &b| d[b].total_cmp(&d[a]));
                for &slot in by_crowding.iter().take(n - chosen.len()) {
                    chosen.push(front[slot]);
                }
                break;
            }
        }
        chosen.sort_unstable();
        let mut keep = vec![false; union.len()];
        for &i in &chosen {
            keep[i] = true;
        }
        for (i, member) in union.into_iter().enumerate() {
            if keep[i] {
                next.push(member);
            }
        }
        self.population = next;
        self.generation += 1;
        let (min, mean) = self.proxy_stats();
        if min < self.best_proxy {
            self.best_proxy = min;
            self.stagnant_generations = 0;
        } else {
            self.stagnant_generations += 1;
        }
        StepReport {
            generation: self.generation,
            evaluations: self.evaluations,
            best: min,
            mean,
            best_ever: self.best_proxy,
        }
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        Progress {
            generations: self.generation,
            evaluations: self.evaluations,
            best_fitness: self.best_proxy,
            // Pareto fronts have no scalar optimum to trace.
            best_is_optimal: false,
            stagnant_generations: self.stagnant_generations,
            elapsed,
            maximizing: false,
            cost_units: self.evaluations as f64,
        }
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        w.put_rng(&self.rng);
        w.put_u64(self.generation);
        w.put_u64(self.evaluations);
        w.put_u64(self.stagnant_generations);
        w.put_f64(self.best_proxy);
        w.put_usize(self.population.len());
        for m in &self.population {
            m.genome.encode(&mut w);
            w.put_usize(m.objectives.len());
            for &o in &m.objectives {
                w.put_f64(o);
            }
        }
        Snapshot::new(self.engine_id(), w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for(self.engine_id())?;
        let rng = r.take_rng()?;
        let generation = r.take_u64()?;
        let evaluations = r.take_u64()?;
        let stagnant_generations = r.take_u64()?;
        let best_proxy = r.take_f64()?;
        let n = r.take_usize()?;
        if n != self.population.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot has {n} members, engine is configured for {}",
                self.population.len()
            )));
        }
        let m = self.problem.objectives();
        let mut population = Vec::with_capacity(n);
        for _ in 0..n {
            let genome = P::Genome::decode(&mut r)?;
            let k = r.take_usize()?;
            if k != m {
                return Err(SnapshotError::Invalid(format!(
                    "snapshot member has {k} objectives, problem has {m}"
                )));
            }
            let mut objectives = Vec::with_capacity(k);
            for _ in 0..k {
                objectives.push(r.take_f64()?);
            }
            population.push(MoIndividual { genome, objectives });
        }
        r.finish()?;
        self.rng = rng;
        self.generation = generation;
        self.evaluations = evaluations;
        self.stagnant_generations = stagnant_generations;
        self.best_proxy = best_proxy;
        self.population = population;
        Ok(())
    }
}

/// Builder for [`MoEngine`].
pub struct MoEngineBuilder<P: MoProblem> {
    problem: Arc<P>,
    mask: Option<Vec<bool>>,
    pop_size: usize,
    crossover: Option<Box<dyn Crossover<P::Genome>>>,
    mutation: Option<Box<dyn Mutation<P::Genome>>>,
    crossover_rate: f64,
    seed: u64,
}

impl<P: MoProblem> MoEngineBuilder<P> {
    fn new(problem: Arc<P>) -> Self {
        Self {
            problem,
            mask: None,
            pop_size: 100,
            crossover: None,
            mutation: None,
            crossover_rate: 0.9,
            seed: 0,
        }
    }

    /// Restricts dominance to the objectives where `mask` is `true`
    /// (specialist islands). Defaults to all objectives.
    #[must_use]
    pub fn objective_mask(mut self, mask: Vec<bool>) -> Self {
        self.mask = Some(mask);
        self
    }

    /// Population size.
    #[must_use]
    pub fn pop_size(mut self, n: usize) -> Self {
        self.pop_size = n;
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

    /// Crossover probability.
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

    /// Validates and builds, evaluating the initial population.
    pub fn build(self) -> Result<MoEngine<P>, ConfigError> {
        if self.pop_size < 4 {
            return Err(ConfigError::InvalidParameter {
                name: "pop_size",
                message: format!("must be >= 4, got {}", self.pop_size),
            });
        }
        let m = self.problem.objectives();
        let mask = self.mask.unwrap_or_else(|| vec![true; m]);
        if mask.len() != m || !mask.iter().any(|&b| b) {
            return Err(ConfigError::InvalidParameter {
                name: "objective_mask",
                message: "mask must cover all objectives and enable at least one".into(),
            });
        }
        let variation = Variation::new(self.crossover, self.mutation, self.crossover_rate)?;
        let mut rng = Rng64::new(self.seed);
        let population: Vec<MoIndividual<P::Genome>> = (0..self.pop_size)
            .map(|_| {
                let genome = self.problem.random_genome(&mut rng);
                let objectives = self.problem.evaluate(&genome);
                MoIndividual { genome, objectives }
            })
            .collect();
        let mut engine = MoEngine {
            evaluations: population.len() as u64,
            problem: self.problem,
            mask,
            population,
            variation,
            rng,
            generation: 0,
            stagnant_generations: 0,
            best_proxy: f64::INFINITY,
        };
        engine.best_proxy = engine.proxy_stats().0;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::hypervolume_2d;
    use crate::problems::Zdt;
    use pga_core::ops::{GaussianMutation, Sbx};

    fn engine(seed: u64) -> MoEngine<Zdt> {
        let p = Zdt::new(1, 12);
        let bounds = p.bounds().clone();
        MoEngine::builder(p)
            .seed(seed)
            .pop_size(60)
            .crossover(Sbx::new(bounds.clone()))
            .mutation(GaussianMutation {
                p: 0.1,
                sigma: 0.1,
                bounds,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn build_errors() {
        let p = Zdt::new(1, 5);
        let b = p.bounds().clone();
        let err = MoEngine::builder(Zdt::new(1, 5))
            .pop_size(2)
            .crossover(Sbx::new(b.clone()))
            .mutation(GaussianMutation {
                p: 0.1,
                sigma: 0.1,
                bounds: b.clone(),
            })
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ConfigError::InvalidParameter {
                name: "pop_size",
                ..
            }
        ));
        let err = MoEngine::builder(Zdt::new(1, 5))
            .objective_mask(vec![false, false])
            .crossover(Sbx::new(b.clone()))
            .mutation(GaussianMutation {
                p: 0.1,
                sigma: 0.1,
                bounds: b,
            })
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ConfigError::InvalidParameter {
                name: "objective_mask",
                ..
            }
        ));
        let _ = p;
    }

    #[test]
    fn build_rejects_a_crossover_rate_outside_the_unit_interval() {
        for rate in [1.5, -0.1, f64::NAN] {
            let p = Zdt::new(1, 5);
            let b = p.bounds().clone();
            let err = MoEngine::builder(p)
                .crossover_rate(rate)
                .crossover(Sbx::new(b.clone()))
                .mutation(GaussianMutation {
                    p: 0.1,
                    sigma: 0.1,
                    bounds: b,
                })
                .build()
                .err()
                .unwrap();
            assert!(
                matches!(
                    err,
                    ConfigError::InvalidParameter {
                        name: "crossover_rate",
                        ..
                    }
                ),
                "rate {rate}: {err:?}"
            );
        }
    }

    #[test]
    fn hypervolume_improves_over_generations() {
        let mut e = engine(7);
        let hv_of = |e: &MoEngine<Zdt>| {
            let front: Vec<Vec<f64>> = e
                .first_front()
                .into_iter()
                .map(|i| e.population()[i].objectives.clone())
                .collect();
            hypervolume_2d(&front, (1.1, 1.1))
        };
        let before = hv_of(&e);
        for _ in 0..60 {
            e.step();
        }
        let after = hv_of(&e);
        assert!(after > before + 0.05, "hv {before} -> {after}");
    }

    #[test]
    fn population_size_is_stable() {
        let mut e = engine(3);
        for _ in 0..5 {
            e.step();
            assert_eq!(e.population().len(), 60);
        }
        assert_eq!(e.generation(), 5);
        assert_eq!(e.evaluations(), 60 + 5 * 60);
    }

    #[test]
    fn masked_engine_drives_its_objective_down() {
        // Specialist on f1 only: should find f1 ≈ 0 quickly.
        let p = Zdt::new(1, 12);
        let b = p.bounds().clone();
        let mut e = MoEngine::builder(p)
            .seed(11)
            .pop_size(40)
            .objective_mask(vec![true, false])
            .crossover(Sbx::new(b.clone()))
            .mutation(GaussianMutation {
                p: 0.1,
                sigma: 0.1,
                bounds: b,
            })
            .build()
            .unwrap();
        for _ in 0..40 {
            e.step();
        }
        let best_f1 = e
            .population()
            .iter()
            .map(|m| m.objectives[0])
            .fold(f64::INFINITY, f64::min);
        assert!(best_f1 < 0.01, "best f1 = {best_f1}");
    }

    #[test]
    fn migration_hooks_roundtrip() {
        let mut a = engine(1);
        let mut b = engine(2);
        let migrants = a.emigrants(3);
        assert_eq!(migrants.len(), 3);
        let before = b.population().len();
        b.receive_immigrants(migrants);
        assert_eq!(b.population().len(), before);
    }

    #[test]
    fn deterministic() {
        let mut a = engine(5);
        let mut b = engine(5);
        for _ in 0..10 {
            a.step();
            b.step();
        }
        let fa: Vec<f64> = a.population().iter().map(|m| m.objectives[0]).collect();
        let fb: Vec<f64> = b.population().iter().map(|m| m.objectives[0]).collect();
        assert_eq!(fa, fb);
    }
}
