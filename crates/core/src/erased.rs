//! Boxed engines: drive any [`Engine`] family as `dyn Engine`.
//!
//! [`Engine`] is object-safe, so a runtime that multiplexes *many
//! heterogeneous engines* (a panmictic GA next to a cellular grid next to
//! an archipelago, as a job server does) holds each one as a
//! [`BoxedEngine`] and calls the trait's methods on the box directly. The
//! engine-specific best solution is the one thing a trait object cannot
//! name; for `dyn Engine` the [`Incumbent`] is the best *fitness* its
//! [`Progress`] reports, so a boxed engine runs under the generic
//! [`Driver`](crate::driver::Driver) unchanged — same check-then-step
//! semantics, same termination rules, same checkpoint contract.
//!
//! ```
//! use pga_core::erased::BoxedEngine;
//! use pga_core::driver::Driver;
//! use pga_core::ops::{BitFlip, OnePoint, Tournament};
//! use pga_core::problem::{Objective, Problem};
//! use pga_core::repr::BitString;
//! use pga_core::rng::Rng64;
//! use pga_core::termination::Termination;
//! use pga_core::Ga;
//!
//! struct OneMax;
//! impl Problem for OneMax {
//!     type Genome = BitString;
//!     fn name(&self) -> String { "onemax".into() }
//!     fn objective(&self) -> Objective { Objective::Maximize }
//!     fn evaluate(&self, g: &BitString) -> f64 { g.count_ones() as f64 }
//!     fn random_genome(&self, rng: &mut Rng64) -> BitString { BitString::random(16, rng) }
//! }
//!
//! let ga = Ga::builder(OneMax)
//!     .seed(1)
//!     .pop_size(10)
//!     .selection(Tournament::binary())
//!     .crossover(OnePoint)
//!     .mutation(BitFlip::one_over_len(16))
//!     .build()
//!     .unwrap();
//! let mut boxed: BoxedEngine = Box::new(ga);
//! assert_eq!(boxed.engine_id(), "ga");
//! let outcome = Driver::new(Termination::new().max_generations(5))
//!     .run(boxed.as_mut())
//!     .unwrap();
//! assert_eq!(outcome.generations, 5);
//! assert_eq!(outcome.best, outcome.best_fitness);
//! ```

use std::time::Duration;

use crate::driver::{Clock, Engine, Incumbent, PollReport, StepReport};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::termination::Progress;

/// A heap-allocated, type-erased engine.
pub type BoxedEngine = Box<dyn Engine + Send>;

/// A type-erased engine's best is its best fitness.
impl Incumbent for dyn Engine + Send + '_ {
    type Best = f64;

    fn best(&self) -> f64 {
        self.progress(Duration::ZERO).best_fitness
    }
}

/// A boxed engine is an engine: every method forwards to the box's
/// contents, so a box of any engine trait object (a `Box<dyn Deme>` of
/// `pga-island` included) drives like the engine inside it.
impl<E: Engine + ?Sized> Engine for Box<E> {
    fn engine_id(&self) -> &'static str {
        (**self).engine_id()
    }
    fn step(&mut self) -> StepReport {
        (**self).step()
    }
    fn poll_step(&mut self) -> PollReport {
        (**self).poll_step()
    }
    fn progress(&self, elapsed: Duration) -> Progress {
        (**self).progress(elapsed)
    }
    fn clock(&self) -> Clock {
        (**self).clock()
    }
    fn halted(&self) -> bool {
        (**self).halted()
    }
    fn record_run_started(&mut self) {
        (**self).record_run_started();
    }
    fn record_run_finished(&mut self) {
        (**self).record_run_finished();
    }
    fn snapshot(&self) -> Snapshot {
        (**self).snapshot()
    }
    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        (**self).restore(snapshot)
    }
}

/// Forwards every [`Engine`] method to the borrowed `dyn Engine`.
///
/// Kept only for the repository benchmark (`examples/benchmark`), whose
/// sources are frozen and still spell `Driver::run(&mut
/// ErasedRun(engine.as_mut()))`. New code passes `engine.as_mut()` to
/// [`Driver::run`](crate::driver::Driver::run) directly.
pub struct ErasedRun<'a>(pub &'a mut (dyn Engine + Send));

impl Incumbent for ErasedRun<'_> {
    type Best = f64;

    fn best(&self) -> f64 {
        self.0.best()
    }
}

impl Engine for ErasedRun<'_> {
    fn engine_id(&self) -> &'static str {
        self.0.engine_id()
    }

    fn step(&mut self) -> StepReport {
        self.0.step()
    }

    fn poll_step(&mut self) -> PollReport {
        self.0.poll_step()
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        self.0.progress(elapsed)
    }

    fn clock(&self) -> Clock {
        self.0.clock()
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }

    fn record_run_started(&mut self) {
        self.0.record_run_started();
    }

    fn record_run_finished(&mut self) {
        self.0.record_run_finished();
    }

    fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        self.0.restore(snapshot)
    }
}
