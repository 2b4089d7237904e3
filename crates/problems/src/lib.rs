//! # pga-problems
//!
//! Benchmark problem suite for the `parallel-ga` workspace, covering every
//! problem class used by the experiments the Konfršt (2004) survey reports:
//!
//! | Class (Alba & Troya 2000 taxonomy) | Problems here |
//! |---|---|
//! | easy | [`OneMax`], [`real::RealFunction::Sphere`] |
//! | deceptive | [`DeceptiveTrap`], [`real::RealFunction::Schwefel`] |
//! | multimodal | [`PPeaks`], [`real::RealFunction::Rastrigin`] |
//! | NP-complete | [`MaxSat`], [`SubsetSum`], [`Knapsack`], [`Mttp`], [`Tsp`], [`GraphBipartition`] |
//! | epistatic | [`NkLandscape`], [`real::RealFunction::Rosenbrock`] |
//! | applications | [`TaskGraphScheduling`], [`FeatureSelection`] |
//!
//! Every instance is generated deterministically from a seed, and wherever a
//! ground-truth optimum is cheap to obtain (planted instances, DP, exhaustive
//! search on small sizes) it is exposed through [`pga_core::Problem::optimum`]
//! so the experiment harness can measure *efficacy* (hit rates).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod binary;
pub mod combinatorial;
pub mod epistatic;
pub mod feature_select;
pub mod graph;
pub mod real;
#[doc(hidden)]
pub mod scalar;
pub mod scheduling;
pub mod tsp;

pub use binary::{DeceptiveTrap, OneMax, PPeaks, RoyalRoad};
pub use combinatorial::{Knapsack, Mttp, SubsetSum};
pub use epistatic::{MaxSat, NkLandscape};
pub use feature_select::FeatureSelection;
pub use graph::GraphBipartition;
pub use real::{RealFunction, RealProblem};
pub use scheduling::TaskGraphScheduling;
pub use tsp::Tsp;
