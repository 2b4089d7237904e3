//! The unified engine abstraction and generic run driver.
//!
//! The survey's central observation is that global, island, cellular,
//! hierarchical and hybrid PGAs are *one family* distinguished only by
//! structure. This module is that observation as an API: every engine in
//! the workspace implements [`Engine`], and one generic [`Driver`] owns the
//! run loop — applying a shared [`Termination`] rule, collecting optional
//! per-step history, and returning a single [`RunOutcome`] shape — so
//! cross-model comparisons run on a common measurement substrate (the
//! methodological requirement of Harada & Alba, arXiv:2106.09922).
//!
//! ## How each PGA model maps onto `Engine`
//!
//! | Engine                  | `step()` advances                         | [`Incumbent::best`] |
//! |-------------------------|-------------------------------------------|----------|
//! | `Ga` (panmictic)        | one generation (or pop-size offspring)    | best individual ever |
//! | `Archipelago` (island)  | one generation on every deme + migration at epoch boundaries | best individual across demes |
//! | `CellularGa` (fine-grained) | one sweep over the whole grid         | best cell ever |
//! | `Hga` (hierarchical)    | one epoch (evolve all layers + promote/demote) | best on the precise model |
//! | `MoEngine` (NSGA)       | one NSGA-II generation                    | current first front |
//! | `SimulatedMasterSlaveGa`| one generation, charged to the virtual clock | best individual ever |
//!
//! Engines that do not run in wall-clock time report a virtual
//! [`Clock`]: the simulated master–slave engine returns
//! [`Clock::Virtual`] so `Termination::wall_clock` budgets mean
//! *simulated seconds* there, not host time.
//!
//! ## Checkpoint / resume
//!
//! [`Engine::snapshot`] captures the engine's dynamic state (genomes,
//! fitnesses, RNG streams, counters) as a plain serializable
//! [`Snapshot`]; [`Engine::restore`] loads one into a freshly built engine
//! of the same configuration. The round-trip guarantee — stop at
//! generation `g`, restore, continue — is **bit-identical** to an
//! uninterrupted run, for every engine family:
//!
//! ```
//! use pga_core::driver::{Driver, Engine};
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
//!     fn random_genome(&self, rng: &mut Rng64) -> BitString { BitString::random(32, rng) }
//! }
//!
//! let build = || Ga::builder(OneMax)
//!     .seed(7)
//!     .pop_size(20)
//!     .selection(Tournament::binary())
//!     .crossover(OnePoint)
//!     .mutation(BitFlip::one_over_len(32))
//!     .build()
//!     .unwrap();
//!
//! // Run 10 generations, checkpoint, and resume in a fresh engine.
//! let mut first = build();
//! Driver::new(Termination::new().max_generations(10)).run(&mut first).unwrap();
//! let checkpoint = first.snapshot();
//!
//! let mut resumed = build();
//! resumed.restore(&checkpoint).unwrap();
//! let outcome = Driver::new(Termination::new().max_generations(30))
//!     .run(&mut resumed)
//!     .unwrap();
//! assert_eq!(outcome.generations, 30);
//! ```

use std::time::{Duration, Instant};

use crate::error::ConfigError;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::termination::{Progress, StopReason, Termination};

/// Per-step statistics shared by every engine family.
///
/// For population engines a step is one generation; for the hierarchical
/// engine it is one epoch; for the multiobjective engine `best`/`mean`
/// summarize a scalar proxy (the masked-objective sum).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepReport {
    /// Steps (generations / epochs) completed after this step.
    pub generation: u64,
    /// Total fitness evaluations spent so far.
    pub evaluations: u64,
    /// Best fitness currently in the population/grid.
    pub best: f64,
    /// Mean fitness of the population/grid.
    pub mean: f64,
    /// Best fitness ever observed.
    pub best_ever: f64,
}

/// Result of one non-blocking [`Engine::poll_step`] call.
///
/// Synchronous engines complete a whole step per poll, so their default
/// `poll_step` always carries a [`StepReport`]. Asynchronous engines fold
/// whatever results have arrived: `folded` counts the evaluations consumed
/// by this poll, and `report` is `Some` only when the poll crossed a step
/// (generation-equivalent) boundary. `folded == 0` with `report == None`
/// means nothing was ready — callers should yield, never spin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PollReport {
    /// Fitness evaluations folded into the population by this poll.
    pub folded: u64,
    /// Step statistics, when the poll completed a step boundary.
    pub report: Option<StepReport>,
}

/// The time base an engine runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Clock {
    /// Host wall-clock time; the driver measures it with [`Instant`].
    Wall,
    /// Engine-owned virtual time (e.g. a discrete-event cluster
    /// simulation). Carries the elapsed *simulated* time; wall-clock
    /// termination budgets are evaluated against it.
    Virtual(Duration),
}

/// One evolutionary engine, uniformly steppable, measurable, and
/// checkpointable.
///
/// Every engine family of this workspace implements `Engine`; see the
/// [module docs](self) for how each model maps onto the trait. The
/// generic [`Driver`] owns the run loop so termination semantics,
/// history collection, and result shapes cannot drift between engines.
///
/// The trait is object-safe: a runtime that multiplexes heterogeneous
/// engines (a panmictic GA next to a cellular grid next to an
/// archipelago, as the job server does) holds them as
/// `Box<dyn Engine + Send>` ([`BoxedEngine`](crate::erased::BoxedEngine))
/// and drives them through the same [`Driver`]. The engine-specific shape
/// of the best solution lives in the separate [`Incumbent`] trait.
pub trait Engine {
    /// Stable tag identifying the engine type; stamps snapshots so state
    /// cannot be restored into the wrong engine.
    fn engine_id(&self) -> &'static str;

    /// Advances one step (generation, sweep, or epoch) and reports
    /// statistics.
    fn step(&mut self) -> StepReport;

    /// Non-blocking advance: folds whatever completed work is available
    /// *right now* and returns without waiting for a batch or an epoch.
    ///
    /// Progress is measured in evaluations consumed (`PollReport::folded`),
    /// not generations, so slice schedulers can charge tenants on work
    /// actually folded. The default implementation runs one full [`step`]
    /// (synchronous engines have no partial work to expose); asynchronous
    /// engines override it to fold only the results that have already
    /// arrived.
    ///
    /// [`step`]: Engine::step
    fn poll_step(&mut self) -> PollReport {
        let before = self.progress(Duration::ZERO).evaluations;
        let report = self.step();
        PollReport {
            folded: report.evaluations.saturating_sub(before),
            report: Some(report),
        }
    }

    /// Current progress snapshot for termination checks. `elapsed` is
    /// wall-clock or virtual per [`Engine::clock`].
    fn progress(&self, elapsed: Duration) -> Progress;

    /// The engine's time base. Defaults to wall clock.
    fn clock(&self) -> Clock {
        Clock::Wall
    }

    /// `true` when the engine can make no further progress (e.g. every
    /// node of a simulated cluster has died). The driver stops with
    /// [`StopReason::Halted`]. Defaults to `false`.
    fn halted(&self) -> bool {
        false
    }

    /// Emits a `RunStarted` observability event, if the engine records.
    /// Called once by the driver before stepping begins.
    fn record_run_started(&mut self) {}

    /// Emits a `RunFinished` observability event and flushes the
    /// recorder, if any. Called once by the driver after the stop rule
    /// fires.
    fn record_run_finished(&mut self) {}

    /// Captures the engine's dynamic state (population, RNG streams,
    /// counters) as a serializable checkpoint.
    fn snapshot(&self) -> Snapshot;

    /// Restores a checkpoint taken from an identically configured engine.
    /// Rejects snapshots from other engine types or with incompatible
    /// payloads.
    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError>;
}

/// The best solution an engine has found, in its own shape: a single
/// individual for scalar engines, the first front for multiobjective
/// ones. Kept apart from [`Engine`] so that `dyn Engine` exists; only
/// [`Driver::run`] reads it, to fill [`RunOutcome::best`].
pub trait Incumbent {
    /// What [`Incumbent::best`] returns.
    type Best;

    /// Best solution found so far.
    fn best(&self) -> Self::Best;
}

/// Result of a completed [`Driver::run`], shared by every engine family.
#[derive(Clone, Debug)]
pub struct RunOutcome<B> {
    /// Best solution found (engine-specific shape, see [`Incumbent::Best`]).
    pub best: B,
    /// Best fitness found (the scalar proxy for multiobjective engines).
    pub best_fitness: f64,
    /// Steps (generations / epochs) completed.
    pub generations: u64,
    /// Fitness evaluations spent.
    pub evaluations: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Elapsed time — wall-clock, or simulated for virtual-time engines.
    pub elapsed: Duration,
    /// `true` when the best fitness reached the problem's known optimum.
    pub hit_optimum: bool,
    /// Per-step history (only when enabled on the driver).
    pub history: Vec<StepReport>,
}

/// The generic run loop: applies one [`Termination`] rule to any
/// [`Engine`], emits the engine's run lifecycle events, optionally
/// collects history, and returns a [`RunOutcome`].
///
/// The loop is check-then-step: the stop rule is evaluated *before* each
/// step, so a budget of `n` generations performs exactly `n` steps and a
/// run resumed from a checkpoint at generation `g` performs `n - g`.
#[derive(Clone, Debug)]
pub struct Driver {
    termination: Termination,
    keep_history: bool,
}

impl Driver {
    /// A driver enforcing `termination`. History collection is off by
    /// default.
    #[must_use]
    pub fn new(termination: Termination) -> Self {
        Self {
            termination,
            keep_history: false,
        }
    }

    /// Collects a [`StepReport`] per step into [`RunOutcome::history`].
    #[must_use]
    pub fn keep_history(mut self, keep: bool) -> Self {
        self.keep_history = keep;
        self
    }

    /// The termination rule this driver applies.
    #[must_use]
    pub fn termination(&self) -> &Termination {
        &self.termination
    }

    fn elapsed_of<E: Engine + ?Sized>(engine: &E, start: Instant) -> Duration {
        match engine.clock() {
            Clock::Wall => start.elapsed(),
            Clock::Virtual(simulated) => simulated,
        }
    }

    /// Drives `engine` until the termination rule fires (or the engine
    /// halts). Returns an error if the rule is unbounded.
    pub fn run<E: Engine + Incumbent + ?Sized>(
        &self,
        engine: &mut E,
    ) -> Result<RunOutcome<E::Best>, ConfigError> {
        if !self.termination.is_bounded() {
            return Err(ConfigError::UnboundedTermination);
        }
        let start = Instant::now();
        engine.record_run_started();
        let mut history = Vec::new();
        let stop = loop {
            let elapsed = Self::elapsed_of(engine, start);
            if let Some(reason) = self.termination.check(&engine.progress(elapsed)) {
                break reason;
            }
            if engine.halted() {
                break StopReason::Halted;
            }
            let report = engine.step();
            if self.keep_history {
                history.push(report);
            }
        };
        engine.record_run_finished();
        let elapsed = Self::elapsed_of(engine, start);
        let progress = engine.progress(elapsed);
        Ok(RunOutcome {
            best: engine.best(),
            best_fitness: progress.best_fitness,
            generations: progress.generations,
            evaluations: progress.evaluations,
            stop,
            elapsed,
            hit_optimum: progress.best_is_optimal,
            history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;

    /// A deterministic counter "engine" for driver-loop semantics tests.
    struct Counter {
        generation: u64,
        halt_at: Option<u64>,
    }

    impl Incumbent for Counter {
        type Best = u64;

        fn best(&self) -> u64 {
            self.generation
        }
    }

    impl Engine for Counter {
        fn engine_id(&self) -> &'static str {
            "counter"
        }

        fn step(&mut self) -> StepReport {
            self.generation += 1;
            StepReport {
                generation: self.generation,
                evaluations: self.generation * 10,
                best: self.generation as f64,
                mean: self.generation as f64 / 2.0,
                best_ever: self.generation as f64,
            }
        }

        fn progress(&self, elapsed: Duration) -> Progress {
            Progress {
                generations: self.generation,
                evaluations: self.generation * 10,
                best_fitness: self.generation as f64,
                best_is_optimal: false,
                stagnant_generations: 0,
                elapsed,
                maximizing: true,
                cost_units: (self.generation * 10) as f64,
            }
        }

        fn halted(&self) -> bool {
            self.halt_at.is_some_and(|h| self.generation >= h)
        }

        fn snapshot(&self) -> Snapshot {
            let mut w = SnapshotWriter::new();
            w.put_u64(self.generation);
            Snapshot::new("counter", w.into_bytes())
        }

        fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
            let mut r = snapshot.reader_for("counter")?;
            self.generation = r.take_u64()?;
            r.finish()
        }
    }

    #[test]
    fn default_poll_step_wraps_one_full_step() {
        let mut e = Counter {
            generation: 0,
            halt_at: None,
        };
        let poll = e.poll_step();
        assert_eq!(poll.folded, 10);
        assert_eq!(poll.report.map(|r| r.generation), Some(1));
    }

    #[test]
    fn driver_refuses_unbounded_rules() {
        let mut e = Counter {
            generation: 0,
            halt_at: None,
        };
        assert_eq!(
            Driver::new(Termination::new()).run(&mut e).err().unwrap(),
            ConfigError::UnboundedTermination
        );
    }

    #[test]
    fn check_then_step_runs_exact_budget() {
        let mut e = Counter {
            generation: 0,
            halt_at: None,
        };
        let out = Driver::new(Termination::new().max_generations(7))
            .keep_history(true)
            .run(&mut e)
            .unwrap();
        assert_eq!(out.generations, 7);
        assert_eq!(out.stop, StopReason::MaxGenerations);
        assert_eq!(out.history.len(), 7);
        assert_eq!(out.history[6].generation, 7);
    }

    #[test]
    fn halted_engine_stops_with_halted_reason() {
        let mut e = Counter {
            generation: 0,
            halt_at: Some(3),
        };
        let out = Driver::new(Termination::new().max_generations(100))
            .run(&mut e)
            .unwrap();
        assert_eq!(out.stop, StopReason::Halted);
        assert_eq!(out.generations, 3);
    }

    #[test]
    fn resumed_run_completes_remaining_budget() {
        let mut e = Counter {
            generation: 0,
            halt_at: None,
        };
        let d = Driver::new(Termination::new().max_generations(10));
        d.run(&mut e).unwrap();
        let snap = e.snapshot();

        let mut resumed = Counter {
            generation: 0,
            halt_at: None,
        };
        resumed.restore(&snap).unwrap();
        let out = Driver::new(Termination::new().max_generations(25))
            .keep_history(true)
            .run(&mut resumed)
            .unwrap();
        assert_eq!(out.generations, 25);
        assert_eq!(out.history.len(), 15, "only the remaining steps run");
    }

    #[test]
    fn wrong_engine_snapshot_is_rejected() {
        let mut e = Counter {
            generation: 0,
            halt_at: None,
        };
        let err = e.restore(&Snapshot::new("ga", vec![])).err().unwrap();
        assert!(matches!(err, SnapshotError::WrongEngine { .. }));
    }
}
