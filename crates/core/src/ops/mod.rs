//! Genetic operators: selection, crossover, mutation, replacement, and the
//! one [`Variation`] recipe that applies crossover and mutation for every
//! population engine.
//!
//! Every operator takes its randomness from an explicit
//! [`Rng64`] so operator application is deterministic given the
//! stream, and every operator is `Send + Sync` so shared configuration can be
//! referenced from island/cellular worker threads.

pub mod crossover;
pub mod extra;
pub mod mutation;
pub mod replacement;
pub mod scalar;
pub mod selection;

pub use crossover::{
    Arithmetic, BlxAlpha, Crossover, Cx, OnePoint, Ox, Pmx, Sbx, TwoPoint, Uniform,
};
pub use extra::{AdaptiveGaussian, Boltzmann, ExponentialRank, Hux, NPoint};
pub use mutation::{
    BitFlip, GaussianMutation, Insertion, IntCreep, IntReset, Inversion, Mutation, NoMutation,
    Polynomial, Scramble, Swap, UniformReset,
};
pub use replacement::ReplacementPolicy;
pub use scalar::{ScalarBitFlip, ScalarUniform};
pub use selection::{
    LinearRank, RandomSelection, Roulette, Selection, Sus, Tournament, Truncation,
};

use crate::error::ConfigError;
use crate::population::Population;
use crate::problem::Objective;
use crate::repr::Genome;
use crate::rng::Rng64;

/// The variation recipe of every population engine: crossover with
/// probability `crossover_rate`, then mutation. `Ga`, cellular,
/// async-steady and NSGA-II each hold one and differ only in how they pick
/// parents, so their variation is the same by construction.
pub struct Variation<G> {
    crossover: Box<dyn Crossover<G>>,
    mutation: Box<dyn Mutation<G>>,
    crossover_rate: f64,
}

impl<G: Genome> Variation<G> {
    /// Assembles the recipe from a builder's parts. A missing operator is
    /// reported before a rate outside `[0, 1]` (NaN included).
    pub fn new(
        crossover: Option<Box<dyn Crossover<G>>>,
        mutation: Option<Box<dyn Mutation<G>>>,
        crossover_rate: f64,
    ) -> Result<Self, ConfigError> {
        let crossover = crossover.ok_or(ConfigError::MissingComponent("crossover"))?;
        let mutation = mutation.ok_or(ConfigError::MissingComponent("mutation"))?;
        if !(0.0..=1.0).contains(&crossover_rate) {
            return Err(ConfigError::InvalidParameter {
                name: "crossover_rate",
                message: format!("must be in [0, 1], got {crossover_rate}"),
            });
        }
        Ok(Self {
            crossover,
            mutation,
            crossover_rate,
        })
    }

    /// Breeds `a` and `b` into the recycled children `c` and `d`: a
    /// crossover with probability `crossover_rate`, else copies of the
    /// parents; then mutation of `c`, and of `d` when `keep_d`. An
    /// unkept `d` is only scratch for the crossover.
    pub fn vary_into(&self, a: &G, b: &G, c: &mut G, d: &mut G, keep_d: bool, rng: &mut Rng64) {
        if rng.chance(self.crossover_rate) {
            self.crossover.crossover_into(a, b, c, d, rng);
        } else {
            c.clone_from(a);
            if keep_d {
                d.clone_from(b);
            }
        }
        self.mutation.mutate(c, rng);
        if keep_d {
            self.mutation.mutate(d, rng);
        }
    }

    /// The steady-state step of `Ga` and async-steady: two `selection`
    /// draws, then [`vary_into`](Self::vary_into) keeping only `child`. A
    /// missing `child` or `spare` buffer is first cloned from a parent.
    pub fn breed_steady(
        &self,
        population: &Population<G>,
        objective: Objective,
        selection: &dyn Selection<G>,
        child: Option<G>,
        spare: &mut Option<G>,
        rng: &mut Rng64,
    ) -> G {
        let a = &population[selection.select(population, objective, rng)].genome;
        let b = &population[selection.select(population, objective, rng)].genome;
        let mut c = child.unwrap_or_else(|| a.clone());
        let d = spare.get_or_insert_with(|| b.clone());
        self.vary_into(a, b, &mut c, d, false, rng);
        c
    }
}
