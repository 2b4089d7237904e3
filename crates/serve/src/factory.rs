//! Registry API: names to validated constructors, no match ladders.
//!
//! This is the bridge between the protocol layer and the core runtime:
//! a validated spec goes in, a [`BoxedEngine`] ready for the slice
//! scheduler comes out. Dispatch is *data*, not code — a
//! [`ProblemRegistry`] maps problem kinds to constructors and a
//! [`FamilyRegistry`] maps engine families to `(snapshot tag, param
//! validator, engine constructor)` entries. Adding a family to the wire
//! surface is one [`FamilyRegistry::register`] call: the protocol layer
//! validates against the same registry it will later build from, the
//! spool restore path asks the registry for the family's snapshot tag,
//! and `GET /families` lists whatever is registered. Nothing else in
//! the crate enumerates families.
//!
//! The factory also attaches the job's [`JsonlStream`] recorder
//! *before* erasure — recorders are seed-transparent (see
//! `pga-observe`), so a streamed job follows the exact trajectory of an
//! unstreamed one, which is what makes spool recovery bit-identical
//! even for jobs with event subscribers.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use pga_cellular::CellularGa;
use pga_cluster::{ClusterSpec, EvalCostModel, NetworkProfile};
use pga_compact::{CompactGaBuilder, ShardedCompactGaBuilder};
use pga_core::engine::Scheme;
use pga_core::erased::BoxedEngine;
use pga_core::ops::{BitFlip, OnePoint, ReplacementPolicy, Tournament};
use pga_core::problem::Problem;
use pga_core::repr::BitString;
use pga_core::rng::{splitmix64, Rng64};
use pga_core::{ConfigError, GaBuilder};
use pga_island::{Archipelago, MigrationPolicy};
use pga_master_slave::AsyncSteadyStateGa;
use pga_observe::JsonlStream;
use pga_problems::{DeceptiveTrap, OneMax, PPeaks, RoyalRoad};
use pga_topology::Topology;

use crate::protocol::{JobSpec, Json, ProtocolError};

/// A wire-buildable problem: type-erased and shareable across engines.
pub type SharedProblem = Arc<dyn Problem<Genome = BitString> + Send + Sync>;

/// A constructed problem plus the metadata engine builders need.
pub struct BuiltProblem {
    /// The problem itself, ready to hand to any engine family.
    pub problem: SharedProblem,
    /// Genome length in bits (probed once at construction).
    pub genome_len: usize,
}

impl BuiltProblem {
    /// Erases `problem` and probes its genome length generically, so
    /// problem registrations never restate their own dimensions.
    pub fn new<P>(problem: P) -> Self
    where
        P: Problem<Genome = BitString> + Send + Sync + 'static,
    {
        let problem: SharedProblem = Arc::new(problem);
        let genome_len = problem.random_genome(&mut Rng64::new(0)).len();
        Self {
            problem,
            genome_len,
        }
    }
}

type ProblemCtor = Box<dyn Fn(&Json) -> Result<BuiltProblem, ProtocolError> + Send + Sync>;

/// Name → validated problem constructor.
#[derive(Default)]
pub struct ProblemRegistry {
    entries: BTreeMap<String, ProblemCtor>,
}

impl ProblemRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `kind`, replacing any previous registration. The
    /// constructor both validates the params and builds the problem, so
    /// parse-time validation and job build cannot drift apart.
    pub fn register<F>(&mut self, kind: &str, ctor: F)
    where
        F: Fn(&Json) -> Result<BuiltProblem, ProtocolError> + Send + Sync + 'static,
    {
        self.entries.insert(kind.to_string(), Box::new(ctor));
    }

    /// Registered kind names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// `true` when `kind` is registered.
    #[must_use]
    pub fn contains(&self, kind: &str) -> bool {
        self.entries.contains_key(kind)
    }

    /// Builds the problem `kind` describes from its wire params.
    pub fn build(&self, kind: &str, params: &Json) -> Result<BuiltProblem, ProtocolError> {
        let ctor = self
            .entries
            .get(kind)
            .ok_or_else(|| ProtocolError::Invalid {
                field: "problem.kind",
                message: format!(
                    "unknown problem `{kind}` (known: {})",
                    self.names().join(", ")
                ),
            })?;
        ctor(params)
    }

    /// Parse-time validation: builds and discards.
    pub fn validate(&self, kind: &str, params: &Json) -> Result<(), ProtocolError> {
        self.build(kind, params).map(|_| ())
    }
}

impl fmt::Debug for ProblemRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProblemRegistry")
            .field("kinds", &self.names())
            .finish()
    }
}

/// Everything a family constructor needs to build one engine.
pub struct EngineCtx<'a> {
    /// The engine's wire params (everything but `family`).
    pub params: &'a Json,
    /// The problem the job optimizes.
    pub problem: SharedProblem,
    /// Genome length in bits.
    pub genome_len: usize,
    /// The job seed — the sole source of run randomness.
    pub seed: u64,
    /// Event recorder to attach before erasure, when the job streams.
    pub stream: Option<JsonlStream>,
}

impl fmt::Debug for EngineCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineCtx")
            .field("params", &self.params)
            .field("genome_len", &self.genome_len)
            .field("seed", &self.seed)
            .field("streamed", &self.stream.is_some())
            .finish()
    }
}

type FamilyValidate = Box<dyn Fn(&Json) -> Result<(), ProtocolError> + Send + Sync>;
type FamilyBuild = Box<dyn Fn(EngineCtx<'_>) -> Result<BoxedEngine, ProtocolError> + Send + Sync>;

struct FamilyEntry {
    snapshot_tag: &'static str,
    validate: FamilyValidate,
    build: FamilyBuild,
}

/// Name → engine-family entry (snapshot tag, validator, constructor).
#[derive(Default)]
pub struct FamilyRegistry {
    entries: BTreeMap<String, FamilyEntry>,
}

impl FamilyRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `family`, replacing any previous registration.
    ///
    /// `snapshot_tag` is the tag the family's engine snapshots carry
    /// (see `Snapshot::engine_tag`), used to pair spool snapshots with
    /// specs on restore. `validate` is the cheap parse-time param check;
    /// `build` constructs the engine from a full [`EngineCtx`].
    pub fn register<V, B>(
        &mut self,
        family: &str,
        snapshot_tag: &'static str,
        validate: V,
        build: B,
    ) where
        V: Fn(&Json) -> Result<(), ProtocolError> + Send + Sync + 'static,
        B: Fn(EngineCtx<'_>) -> Result<BoxedEngine, ProtocolError> + Send + Sync + 'static,
    {
        self.entries.insert(
            family.to_string(),
            FamilyEntry {
                snapshot_tag,
                validate: Box::new(validate),
                build: Box::new(build),
            },
        );
    }

    /// Registered family names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// `true` when `family` is registered.
    #[must_use]
    pub fn contains(&self, family: &str) -> bool {
        self.entries.contains_key(family)
    }

    /// The snapshot tag `family`'s engines stamp on their checkpoints.
    #[must_use]
    pub fn snapshot_tag(&self, family: &str) -> Option<&'static str> {
        self.entries.get(family).map(|e| e.snapshot_tag)
    }

    fn entry(&self, family: &str) -> Result<&FamilyEntry, ProtocolError> {
        self.entries
            .get(family)
            .ok_or_else(|| ProtocolError::Invalid {
                field: "engine.family",
                message: format!(
                    "unknown family `{family}` (known: {})",
                    self.names().join(", ")
                ),
            })
    }

    /// Parse-time param validation for `family`.
    pub fn validate(&self, family: &str, params: &Json) -> Result<(), ProtocolError> {
        (self.entry(family)?.validate)(params)
    }

    /// Builds one engine of `family` from `ctx`.
    pub fn build(&self, family: &str, ctx: EngineCtx<'_>) -> Result<BoxedEngine, ProtocolError> {
        (self.entry(family)?.build)(ctx)
    }
}

impl fmt::Debug for FamilyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FamilyRegistry")
            .field("families", &self.names())
            .finish()
    }
}

/// The problem and family registries a server resolves specs against.
#[derive(Debug, Default)]
pub struct Registries {
    /// Problem kinds.
    pub problems: ProblemRegistry,
    /// Engine families.
    pub families: FamilyRegistry,
}

impl Registries {
    /// The process-wide built-in registries (all stock problems and all
    /// seven engine families), initialized once on first use.
    #[must_use]
    pub fn builtin() -> &'static Self {
        static BUILTIN: OnceLock<Registries> = OnceLock::new();
        BUILTIN.get_or_init(default_registries)
    }
}

fn config_err(err: ConfigError) -> ProtocolError {
    ProtocolError::Invalid {
        field: "engine",
        message: err.to_string(),
    }
}

/// A problem dimension: required, positive, bounded by 2^20.
fn pdim(params: &Json, key: &str, field: &'static str) -> Result<usize, ProtocolError> {
    let v = params
        .get(key)
        .and_then(Json::as_u64)
        .ok_or(ProtocolError::Missing(field))?;
    if v == 0 || v > 1 << 20 {
        return Err(ProtocolError::Invalid {
            field,
            message: format!("must be in 1..=2^20, got {v}"),
        });
    }
    usize::try_from(v).map_err(|_| ProtocolError::Invalid {
        field,
        message: "overflows usize".into(),
    })
}

/// An engine dimension: positive, bounded by 65 536; `default` (when
/// given) fills an absent field, otherwise absence is a typed error.
fn edim(
    params: &Json,
    key: &str,
    field: &'static str,
    default: Option<u64>,
) -> Result<usize, ProtocolError> {
    let v = match params.get(key).map(Json::as_u64) {
        Some(Some(v)) => v,
        Some(None) => {
            return Err(ProtocolError::Invalid {
                field,
                message: "must be a non-negative integer".into(),
            })
        }
        None => default.ok_or(ProtocolError::Missing(field))?,
    };
    if v == 0 || v > 1 << 16 {
        return Err(ProtocolError::Invalid {
            field,
            message: format!("must be in 1..=65536, got {v}"),
        });
    }
    Ok(v as usize)
}

fn ga_params(params: &Json) -> Result<(usize, usize), ProtocolError> {
    let pop = edim(params, "pop", "engine.pop", None)?;
    let elitism = match params.get("elitism").map(Json::as_u64) {
        Some(Some(e)) if e <= 1 << 16 => e as usize,
        None => 1,
        _ => {
            return Err(ProtocolError::Invalid {
                field: "engine.elitism",
                message: "must be a small non-negative integer".into(),
            })
        }
    };
    Ok((pop, elitism))
}

/// The stock registries: every benchmark problem and all seven engine
/// families. Each `register` call below is the *entire* wire surface of
/// its family — validation, construction, and snapshot-tag pairing.
#[must_use]
#[allow(clippy::too_many_lines)] // one linear list of registrations
pub fn default_registries() -> Registries {
    let mut problems = ProblemRegistry::new();
    problems.register("onemax", |p| {
        Ok(BuiltProblem::new(OneMax::new(pdim(
            p,
            "len",
            "problem.len",
        )?)))
    });
    problems.register("trap", |p| {
        Ok(BuiltProblem::new(DeceptiveTrap::new(
            pdim(p, "k", "problem.k")?,
            pdim(p, "blocks", "problem.blocks")?,
        )))
    });
    problems.register("ppeaks", |p| {
        let seed = p
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or(ProtocolError::Missing("problem.seed"))?;
        Ok(BuiltProblem::new(PPeaks::new(
            pdim(p, "p", "problem.p")?,
            pdim(p, "n", "problem.n")?,
            seed,
        )))
    });
    problems.register("royalroad", |p| {
        Ok(BuiltProblem::new(RoyalRoad::new(
            pdim(p, "block", "problem.block")?,
            pdim(p, "blocks", "problem.blocks")?,
        )))
    });

    let mut families = FamilyRegistry::new();
    families.register(
        "ga",
        "ga",
        |p| ga_params(p).map(|_| ()),
        |ctx| {
            let (pop, elitism) = ga_params(ctx.params)?;
            let mut ga = GaBuilder::new(ctx.problem)
                .seed(ctx.seed)
                .pop_size(pop)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(ctx.genome_len))
                .scheme(Scheme::Generational { elitism })
                .build()
                .map_err(config_err)?;
            if let Some(s) = ctx.stream {
                ga.ledger_mut().set_recorder(s);
            }
            Ok(Box::new(ga))
        },
    );
    families.register(
        "steady",
        "ga",
        |p| edim(p, "pop", "engine.pop", None).map(|_| ()),
        |ctx| {
            let pop = edim(ctx.params, "pop", "engine.pop", None)?;
            let mut ga = GaBuilder::new(ctx.problem)
                .seed(ctx.seed)
                .pop_size(pop)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(ctx.genome_len))
                .scheme(Scheme::SteadyState {
                    replacement: ReplacementPolicy::WorstIfBetter,
                })
                .build()
                .map_err(config_err)?;
            if let Some(s) = ctx.stream {
                ga.ledger_mut().set_recorder(s);
            }
            Ok(Box::new(ga))
        },
    );
    families.register(
        "cellular",
        "cellular",
        |p| {
            edim(p, "rows", "engine.rows", None)?;
            edim(p, "cols", "engine.cols", None).map(|_| ())
        },
        |ctx| {
            let rows = edim(ctx.params, "rows", "engine.rows", None)?;
            let cols = edim(ctx.params, "cols", "engine.cols", None)?;
            let mut cga = CellularGa::builder(ctx.problem)
                .grid(rows, cols)
                .seed(ctx.seed)
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(ctx.genome_len))
                .build()
                .map_err(config_err)?;
            if let Some(s) = ctx.stream {
                cga.ledger_mut().set_recorder(s);
            }
            Ok(Box::new(cga))
        },
    );
    families.register(
        "island",
        "archipelago",
        |p| {
            edim(p, "islands", "engine.islands", Some(4))?;
            edim(p, "pop", "engine.pop", None).map(|_| ())
        },
        |ctx| {
            let islands = edim(ctx.params, "islands", "engine.islands", Some(4))?;
            let pop = edim(ctx.params, "pop", "engine.pop", None)?;
            // Island seeds are successive splitmix64 draws from the job
            // seed, so islands diverge while the whole archipelago stays a
            // pure function of the job spec.
            let mut seeds = ctx.seed;
            let demes = (0..islands)
                .map(|_| {
                    let mut ga = GaBuilder::new(Arc::clone(&ctx.problem))
                        .seed(splitmix64(&mut seeds))
                        .pop_size(pop)
                        .selection(Tournament::binary())
                        .crossover(OnePoint)
                        .mutation(BitFlip::one_over_len(ctx.genome_len))
                        .scheme(Scheme::Generational { elitism: 1 })
                        .build()
                        .map_err(config_err)?;
                    if let Some(s) = &ctx.stream {
                        ga.ledger_mut().set_recorder(s.clone());
                    }
                    Ok(ga)
                })
                .collect::<Result<Vec<_>, ProtocolError>>()?;
            let arch = Archipelago::new(demes, Topology::RingUni, MigrationPolicy::default())
                .map_err(config_err)?;
            Ok(Box::new(arch))
        },
    );
    families.register(
        "async-steady",
        "async-steady",
        |p| {
            edim(p, "pop", "engine.pop", None)?;
            edim(p, "workers", "engine.workers", Some(4)).map(|_| ())
        },
        |ctx| {
            let pop = edim(ctx.params, "pop", "engine.pop", None)?;
            let workers = edim(ctx.params, "workers", "engine.workers", Some(4))?;
            // The virtual-cluster backend keeps the job deterministic and
            // snapshotable — both required by the spool — while still
            // exercising barrier-free arrival-order folding. Worker speeds
            // and evaluation costs are heterogeneous (seeded by the job
            // seed) so slices genuinely interleave in-flight work.
            let cluster =
                ClusterSpec::heterogeneous(workers, 3.0, ctx.seed, NetworkProfile::GigabitEthernet)
                    .map_err(config_err)?;
            let cost = EvalCostModel::uniform(5e-4, 5e-3).map_err(config_err)?;
            let mut ga = AsyncSteadyStateGa::builder(ctx.problem)
                .seed(ctx.seed)
                .pop_size(pop)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(ctx.genome_len))
                .virtual_cluster(cluster, cost)
                .build()
                .map_err(config_err)?;
            if let Some(s) = ctx.stream {
                ga.ledger_mut().set_recorder(s);
            }
            Ok(Box::new(ga))
        },
    );
    families.register(
        "cga",
        "cga",
        |p| edim(p, "virtual_pop", "engine.virtual_pop", Some(127)).map(|_| ()),
        |ctx| {
            let virtual_pop = edim(ctx.params, "virtual_pop", "engine.virtual_pop", Some(127))?;
            let mut builder = CompactGaBuilder::new(ctx.problem)
                .seed(ctx.seed)
                .virtual_pop(virtual_pop);
            if let Some(s) = ctx.stream {
                builder = builder.recorder(s);
            }
            Ok(Box::new(builder.build().map_err(config_err)?))
        },
    );
    families.register(
        "pcga",
        "pcga",
        |p| {
            edim(p, "virtual_pop", "engine.virtual_pop", Some(127))?;
            edim(p, "nodes", "engine.nodes", Some(8)).map(|_| ())
        },
        |ctx| {
            let virtual_pop = edim(ctx.params, "virtual_pop", "engine.virtual_pop", Some(127))?;
            let nodes = edim(ctx.params, "nodes", "engine.nodes", Some(8))?;
            let cluster = ClusterSpec::homogeneous(nodes, NetworkProfile::GigabitEthernet)
                .map_err(config_err)?;
            let mut builder = ShardedCompactGaBuilder::new(ctx.problem)
                .seed(ctx.seed)
                .virtual_pop(virtual_pop)
                .cluster(cluster);
            if let Some(s) = ctx.stream {
                builder = builder.recorder(s);
            }
            Ok(Box::new(builder.build().map_err(config_err)?))
        },
    );

    Registries { problems, families }
}

/// Instantiates the engine a spec describes via the built-in
/// registries, attaches `stream` as its observability recorder (when
/// given), and boxes it as a `dyn Engine` for the job runtime. The same
/// spec always yields a bit-identical engine.
pub fn build_engine(
    spec: &JobSpec,
    stream: Option<JsonlStream>,
) -> Result<BoxedEngine, ProtocolError> {
    let reg = Registries::builtin();
    let built = reg
        .problems
        .build(spec.problem.name(), spec.problem.params())?;
    reg.families.build(
        spec.engine.family(),
        EngineCtx {
            params: spec.engine.params(),
            problem: built.problem,
            genome_len: built.genome_len,
            seed: spec.seed,
            stream,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Budget, EngineSpec, ProblemSpec};

    fn spec(engine: EngineSpec) -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            problem: ProblemSpec::onemax(32),
            engine,
            seed: 11,
            budget: Budget {
                generations: Some(10),
                ..Budget::default()
            },
        }
    }

    #[test]
    fn every_family_builds_and_tags_match() {
        for engine in [
            EngineSpec::ga(16, 1),
            EngineSpec::steady(16),
            EngineSpec::cellular(4, 4),
            EngineSpec::island(3, 8),
            EngineSpec::async_steady(16, 4),
            EngineSpec::cga(64),
            EngineSpec::pcga(64, 8),
        ] {
            let s = spec(engine.clone());
            let built = build_engine(&s, None).expect("buildable spec");
            assert_eq!(
                Some(built.snapshot().engine_tag()),
                Registries::builtin().families.snapshot_tag(engine.family()),
                "family {}",
                engine.family()
            );
        }
    }

    #[test]
    fn registry_lists_all_seven_families_and_all_problems() {
        let reg = Registries::builtin();
        assert_eq!(
            reg.families.names(),
            vec![
                "async-steady",
                "cellular",
                "cga",
                "ga",
                "island",
                "pcga",
                "steady"
            ]
        );
        assert_eq!(
            reg.problems.names(),
            vec!["onemax", "ppeaks", "royalroad", "trap"]
        );
        assert!(reg.families.contains("cga"));
        assert!(!reg.families.contains("quantum"));
    }

    #[test]
    fn one_registration_call_admits_a_new_family() {
        // The point of the registry API: a family joins the wire surface
        // with one `register` call — no protocol, scheduler, or HTTP
        // edits. Here a "demo" family re-skins the compact GA.
        let mut reg = FamilyRegistry::new();
        reg.register(
            "demo",
            "cga",
            |_| Ok(()),
            |ctx| {
                let ga = CompactGaBuilder::new(ctx.problem)
                    .seed(ctx.seed)
                    .virtual_pop(31)
                    .build()
                    .map_err(config_err)?;
                Ok(Box::new(ga))
            },
        );
        assert_eq!(reg.snapshot_tag("demo"), Some("cga"));
        let built_problem = Registries::builtin()
            .problems
            .build("onemax", &Json::Obj(vec![("len".into(), Json::Num(16.0))]))
            .expect("problem builds");
        let mut engine = reg
            .build(
                "demo",
                EngineCtx {
                    params: &Json::Obj(vec![]),
                    problem: built_problem.problem,
                    genome_len: built_problem.genome_len,
                    seed: 3,
                    stream: None,
                },
            )
            .expect("registered family builds");
        let report = engine.step();
        assert_eq!(report.generation, 1);
        assert_eq!(engine.snapshot().engine_tag(), "cga");
    }

    #[test]
    fn unknown_names_are_typed_errors_listing_known_names() {
        let reg = Registries::builtin();
        let err = reg
            .families
            .validate("quantum", &Json::Obj(vec![]))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ProtocolError::Invalid { field, message }
                    if *field == "engine.family"
                        && message.contains("cga")
                        && message.contains("island")
            ),
            "expected Invalid listing known families, got {err:?}"
        );
        assert!(matches!(
            reg.problems.validate("sudoku", &Json::Obj(vec![])),
            Err(ProtocolError::Invalid {
                field: "problem.kind",
                ..
            })
        ));
    }

    #[test]
    fn same_spec_builds_bit_identical_engines() {
        for engine in [EngineSpec::island(3, 8), EngineSpec::pcga(31, 4)] {
            let s = spec(engine);
            let mut a = build_engine(&s, None).expect("buildable");
            let mut b = build_engine(&s, None).expect("buildable");
            for _ in 0..6 {
                assert_eq!(a.step(), b.step());
            }
            assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
        }
    }

    #[test]
    fn attaching_a_stream_does_not_perturb_the_trajectory() {
        for engine in [EngineSpec::ga(16, 1), EngineSpec::cga(64)] {
            let s = spec(engine);
            let stream = JsonlStream::with_capacity(256);
            let mut silent = build_engine(&s, None).expect("buildable");
            let mut streamed = build_engine(&s, Some(stream.clone())).expect("buildable");
            for _ in 0..8 {
                assert_eq!(silent.step(), streamed.step());
            }
            assert_eq!(silent.snapshot().to_bytes(), streamed.snapshot().to_bytes());
            assert!(!stream.is_empty(), "streamed engine should emit events");
        }
    }

    #[test]
    fn invalid_structure_maps_to_protocol_error() {
        let s = spec(EngineSpec::ga(4, 4));
        assert!(matches!(
            build_engine(&s, None),
            Err(ProtocolError::Invalid {
                field: "engine",
                ..
            })
        ));
        // pcga cannot shard 64 loci across 100 nodes.
        let s = spec(EngineSpec::pcga(31, 100));
        assert!(matches!(
            build_engine(&s, None),
            Err(ProtocolError::Invalid {
                field: "engine",
                ..
            })
        ));
    }
}
