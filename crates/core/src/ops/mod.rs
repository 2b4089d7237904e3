//! Genetic operators: selection, crossover, mutation, replacement.
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

use crate::population::Population;
use crate::problem::Objective;
use crate::repr::Genome;
use crate::rng::Rng64;

/// Breeds one steady-state offspring: two parent selections, crossover
/// with probability `crossover_rate` (keeping the first child, else a
/// copy of the first parent), then mutation. The panmictic steady-state
/// GA and the asynchronous master–slave engine both breed through it, so
/// their draws from `rng` come in the same order.
pub fn breed_one<G: Genome>(
    population: &Population<G>,
    objective: Objective,
    selection: &dyn Selection<G>,
    crossover: &dyn Crossover<G>,
    mutation: &dyn Mutation<G>,
    crossover_rate: f64,
    rng: &mut Rng64,
) -> G {
    let pa = selection.select(population, objective, rng);
    let pb = selection.select(population, objective, rng);
    let (a, b) = (&population[pa].genome, &population[pb].genome);
    let mut child = if rng.chance(crossover_rate) {
        crossover.crossover(a, b, rng).0
    } else {
        a.clone()
    };
    mutation.mutate(&mut child, rng);
    child
}
