//! # pga-core
//!
//! Sequential genetic-algorithm foundation of the `parallel-ga` workspace,
//! which reproduces the system family surveyed by Konfršt, *Parallel Genetic
//! Algorithms: Advances, Computing Trends, Applications and Perspectives*
//! (IPPS 2004).
//!
//! This crate provides everything a *panmictic* (single-population) GA
//! needs — genome representations, operators, engines, termination — plus the
//! two seams the parallel models plug into:
//!
//! * [`eval::Evaluator`]: where the **global/master–slave** model injects
//!   parallel fitness evaluation (see `pga-master-slave`);
//! * the engine's migration hooks ([`engine::Ga::clone_members`],
//!   [`engine::Ga::receive_immigrants`]): where the **coarse-grained island**
//!   model exchanges individuals (see `pga-island`);
//! * the unified [`driver::Engine`] trait and generic [`driver::Driver`]
//!   run loop: every engine family in the workspace (panmictic, island,
//!   cellular, hierarchical, multiobjective, simulated master–slave) is
//!   stepped, stopped, and checkpointed through one substrate (see
//!   [`snapshot`] for the checkpoint format).
//!
//! ## Quick example
//!
//! ```
//! use pga_core::engine::{Ga, Scheme};
//! use pga_core::ops::{BitFlip, OnePoint, Tournament};
//! use pga_core::problem::{Objective, Problem};
//! use pga_core::repr::BitString;
//! use pga_core::rng::Rng64;
//! use pga_core::termination::Termination;
//!
//! struct OneMax;
//! impl Problem for OneMax {
//!     type Genome = BitString;
//!     fn name(&self) -> String { "onemax".into() }
//!     fn objective(&self) -> Objective { Objective::Maximize }
//!     fn evaluate(&self, g: &BitString) -> f64 { g.count_ones() as f64 }
//!     fn random_genome(&self, rng: &mut Rng64) -> BitString { BitString::random(32, rng) }
//!     fn optimum(&self) -> Option<f64> { Some(32.0) }
//! }
//!
//! let mut ga = Ga::builder(OneMax)
//!     .seed(42)
//!     .pop_size(50)
//!     .selection(Tournament::binary())
//!     .crossover(OnePoint)
//!     .mutation(BitFlip::one_over_len(32))
//!     .scheme(Scheme::Generational { elitism: 1 })
//!     .build()
//!     .unwrap();
//! let result = ga.run(&Termination::new().until_optimum().max_generations(500)).unwrap();
//! assert!(result.hit_optimum);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod diversity;
pub mod driver;
pub mod engine;
pub mod erased;
pub mod error;
pub mod eval;
pub mod individual;
pub mod ledger;
pub mod ops;
pub mod population;
pub mod problem;
pub mod repr;
pub mod rng;
pub mod snapshot;
pub mod termination;

pub use driver::{Clock, Driver, Engine, Incumbent, PollReport, RunOutcome, StepReport};
pub use engine::{Ga, GaBuilder, Scheme};
pub use erased::{BoxedEngine, ErasedRun};
pub use error::ConfigError;
pub use eval::{Evaluator, SerialEvaluator};
pub use individual::Individual;
pub use ledger::RunLedger;
pub use population::{PopStats, Population};
pub use problem::{Objective, Problem};
pub use repr::{BitString, Bounds, Genome, IntVector, Permutation, RealVector};
pub use rng::Rng64;
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
pub use termination::{Progress, StopReason, Termination};
