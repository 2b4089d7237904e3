//! One-stop import for the common 90% of the API surface.
//!
//! ```
//! use parallel_ga::prelude::*;
//! ```
//!
//! brings in the [`Driver`]/[`Engine`] run loop (with [`Incumbent`], the
//! engine's typed best solution), every engine-family builder (the
//! canonical configuration path — each validates its inputs and returns
//! [`ConfigError`] instead of panicking), the evaluator
//! substrates of the master–slave model, the observability recorders, and
//! the operator / representation / problem vocabulary the examples use.
//!
//! Deliberately excluded: simulator internals (`cluster::event`), analysis
//! tooling, and application substrates — import those from their module
//! (`parallel_ga::cluster`, `parallel_ga::analysis`, `parallel_ga::apps`)
//! when needed.

// Run loop + engine core.
pub use pga_core::ops::{
    Arithmetic, BitFlip, BlxAlpha, Crossover, GaussianMutation, Insertion, IntCreep, Inversion,
    LinearRank, Mutation, OnePoint, Ox, Pmx, ReplacementPolicy, Roulette, Sbx, Scramble, Selection,
    Swap, Tournament, Truncation, TwoPoint, Uniform,
};
pub use pga_core::{
    BitString, Bounds, Clock, ConfigError, Driver, Engine, Evaluator, Genome, Incumbent,
    Individual, IntVector, Objective, Permutation, PopStats, Population, Problem, Progress,
    RealVector, Rng64, RunOutcome, SerialEvaluator, Snapshot, SnapshotError, StepReport,
    StopReason, Termination,
};

// Observability: recorders, events, metrics.
pub use pga_observe::{
    replay, CsvSink, Event, EventKind, FilteredRecorder, JsonlSink, MetricsRecorder, MultiRecorder,
    Recorder, RingRecorder, SharedRecorder,
};

// ---------------------------------------------------------------------
// Engine families — one block per family, each exporting its engine
// type(s) and validating builder (the canonical configuration path).
// ---------------------------------------------------------------------

// Panmictic GA (generational and steady-state schemes).
pub use pga_core::{Ga, GaBuilder, Scheme};

// Master–slave (global) model: evaluation substrates for the panmictic
// engine plus the barrier-free asynchronous steady-state engine.
pub use pga_master_slave::{
    AsyncSteadyBuilder, AsyncSteadyStateGa, ExpensiveFitness, RayonEvaluator, ResilientBuilder,
    ResilientEvaluator, ResilientStats, SimulatedMasterSlaveGa,
};

// Island (coarse-grained) model.
pub use pga_island::{
    run_threaded, run_threaded_resilient, Archipelago, ArchipelagoBuilder, Deme, EmigrantSelection,
    IslandRun, IslandStats, MigrationPolicy, ResiliencePolicy, ResilientOptions,
    ResurrectionPolicy, SyncMode,
};

// Cellular (fine-grained) model.
pub use pga_cellular::{CellularGa, CellularGaBuilder, TakeoverGrid, UpdatePolicy};

// Hierarchical (multi-fidelity) model.
pub use pga_hierarchical::{Hga, HgaBuilder, HgaConfig, IslandFactory, LevelView};

// Multiobjective island model.
pub use pga_multiobjective::{MoEngine, MoEngineBuilder};

// Compact (model-based) family: the population is a probability vector.
// `CompactGa` is the serial cGA; `ShardedCompactGa` partitions the
// vector across simulated nodes, exchanging model updates only.
pub use pga_compact::{
    CompactGa, CompactGaBuilder, ShardedCompactGa, ShardedCompactGaBuilder, WireStats,
};

// GA-as-a-service job server. It holds every job's engine as a
// `BoxedEngine` (`Box<dyn Engine + Send>`), which embedded callers drive
// under the generic driver with `Driver::run(boxed.as_mut())`.
pub use pga_core::BoxedEngine;
pub use pga_serve::{
    Budget, DrainReport, EngineSpec, FamilyRegistry, HealthReport, JobId, JobSpec, JobState,
    ProblemRegistry, ProblemSpec, Registries, Serve, ServeBuilder, ServeRuntime, SubmitError,
};

// Topologies and neighborhoods.
pub use pga_topology::{CellNeighborhood, Topology};

// Cluster failure and cost models shared by simulator and resilient runtimes,
// plus the seeded serve-layer chaos scripts.
pub use pga_cluster::{
    ChaosPlan, ClusterSpec, EvalCostModel, FailurePlan, FaultPlan, IslandFault, LinkFault,
    MigrationFaultPlan, NetworkProfile, StormSpec, WorkerFault,
};

// Benchmark problem suite.
pub use pga_problems::{
    DeceptiveTrap, Knapsack, MaxSat, NkLandscape, OneMax, PPeaks, RealFunction, RealProblem,
    RoyalRoad, Tsp,
};
