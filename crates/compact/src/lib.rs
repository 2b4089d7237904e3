//! The compact GA family: evolution over a probability *model* instead of a
//! population of individuals.
//!
//! The compact GA (Harik–Lobo–Goldberg) replaces the population with a
//! probability vector `p[0..len]` — `p[i]` is the marginal probability that
//! locus `i` is 1 in a virtual population of size `n`. Each step samples two
//! competitors from the model, evaluates both, and shifts every disagreeing
//! locus by `1/n` toward the winner. Memory is **O(genome)** regardless of
//! the virtual population size, which is what makes the family interesting
//! at massive scale: Lobo–Lima–Mártires showed the vector can be sharded
//! across thousands of nodes, with only model updates (sampled slices and
//! the winner's identity) ever crossing the wire — never individuals.
//!
//! Two engines implement [`pga_core::driver::Engine`]:
//!
//! | engine | id | state | clock |
//! |---|---|---|---|
//! | [`CompactGa`] | `cga` | one probability vector + RNG | wall |
//! | [`ShardedCompactGa`] | `pcga` | per-node vector shards + RNG streams | virtual |
//!
//! Both snapshot to exactly their state (vector(s) + RNG(s) + counters +
//! virtual clock), so stop/resume is trivially bit-identical.

pub mod cga;
#[cfg(test)]
mod scalar;
pub mod sharded;

pub use cga::{CompactGa, CompactGaBuilder};
pub use sharded::{ShardedCompactGa, ShardedCompactGaBuilder, WireStats};
