//! Every wire family of the job server, boxed as `dyn Engine`, behaves
//! exactly like the concrete engine it boxes: the generic driver runs the
//! box directly, stepping matches the concrete engine bit for bit,
//! snapshots restore across boxes, and a checkpoint of one family is
//! refused by another.
//!
//! Families are enumerated from `Registries::builtin()`, so a newly
//! registered family fails here until it is given a spec below.

use parallel_ga::cellular::CellularGa;
use parallel_ga::cluster::{ClusterSpec, EvalCostModel, NetworkProfile};
use parallel_ga::compact::{CompactGaBuilder, ShardedCompactGaBuilder};
use parallel_ga::core::ops::{BitFlip, OnePoint, ReplacementPolicy, Tournament};
use parallel_ga::core::rng::splitmix64;
use parallel_ga::core::{
    BoxedEngine, Clock, Driver, Engine, ErasedRun, GaBuilder, Scheme, SnapshotError,
};
use parallel_ga::island::{Archipelago, MigrationPolicy};
use parallel_ga::master_slave::AsyncSteadyStateGa;
use parallel_ga::problems::OneMax;
use parallel_ga::serve::{build_engine, Budget, EngineSpec, JobSpec, ProblemSpec, Registries};
use parallel_ga::topology::Topology;
use std::sync::Arc;

const GENOME: usize = 48;
const SEED: u64 = 21;

/// A small spec of `family`.
fn spec(family: &str) -> JobSpec {
    let engine = match family {
        "ga" => EngineSpec::ga(12, 1),
        "steady" => EngineSpec::steady(12),
        "cellular" => EngineSpec::cellular(4, 4),
        "island" => EngineSpec::island(3, 8),
        "async-steady" => EngineSpec::async_steady(10, 3),
        "cga" => EngineSpec::cga(31),
        "pcga" => EngineSpec::pcga(31, 4),
        other => panic!("no test spec for the registered family `{other}`"),
    };
    JobSpec {
        tenant: "t".into(),
        problem: ProblemSpec::onemax(GENOME),
        engine,
        seed: SEED,
        budget: Budget {
            generations: Some(12),
            ..Budget::default()
        },
    }
}

fn families() -> Vec<&'static str> {
    Registries::builtin().families.names()
}

fn boxed(family: &str) -> BoxedEngine {
    build_engine(&spec(family), None).expect("spec builds")
}

#[test]
fn the_driver_runs_a_box_as_it_runs_the_forwarding_shim() {
    for family in families() {
        let termination = spec(family).budget.to_termination().unwrap();
        let driver = Driver::new(termination).keep_history(true);
        let mut direct = boxed(family);
        let mut shimmed = boxed(family);
        let a = driver.run(direct.as_mut()).unwrap();
        let b = driver.run(&mut ErasedRun(shimmed.as_mut())).unwrap();
        assert_eq!(a.best.to_bits(), b.best.to_bits(), "{family}");
        assert_eq!(a.best.to_bits(), a.best_fitness.to_bits(), "{family}");
        assert_eq!(
            a.best_fitness.to_bits(),
            b.best_fitness.to_bits(),
            "{family}"
        );
        assert_eq!(
            (a.generations, a.evaluations, a.stop, a.hit_optimum),
            (b.generations, b.evaluations, b.stop, b.hit_optimum),
            "{family}"
        );
        assert_eq!(a.history, b.history, "{family}");
        if let Clock::Virtual(_) = direct.clock() {
            assert_eq!(a.elapsed, b.elapsed, "{family}");
        }
        assert_eq!(
            direct.snapshot().to_bytes(),
            shimmed.snapshot().to_bytes(),
            "{family}"
        );

        // The shim forwards `poll_step` too (asynchronous families fold
        // partial work there instead of running the default full step).
        let mut direct = boxed(family);
        let mut shimmed = boxed(family);
        for _ in 0..20 {
            let shim_report = ErasedRun(shimmed.as_mut()).poll_step();
            assert_eq!(direct.poll_step(), shim_report, "{family}");
        }
        assert_eq!(
            direct.snapshot().to_bytes(),
            shimmed.snapshot().to_bytes(),
            "{family}"
        );
    }
}

/// Steps `concrete` next to the boxed engine built from `family`'s spec
/// and requires identical reports and snapshot bytes; then restores the
/// box's checkpoint into a fresh box and requires both to continue alike.
fn assert_box_tracks<E: Engine>(family: &str, mut concrete: E) {
    let mut engine = boxed(family);
    assert_eq!(engine.engine_id(), concrete.engine_id(), "{family}");
    for _ in 0..8 {
        assert_eq!(engine.step(), concrete.step(), "{family}");
    }
    let checkpoint = engine.snapshot();
    assert_eq!(
        checkpoint.to_bytes(),
        concrete.snapshot().to_bytes(),
        "{family}"
    );

    let mut resumed = boxed(family);
    resumed.restore(&checkpoint).unwrap();
    for _ in 0..4 {
        assert_eq!(resumed.step(), engine.step(), "{family}");
    }
    assert_eq!(
        resumed.snapshot().to_bytes(),
        engine.snapshot().to_bytes(),
        "{family}"
    );
}

#[test]
fn a_box_steps_like_the_concrete_engine_its_spec_describes() {
    let problem = Arc::new(OneMax::new(GENOME));
    let ga = |seed: u64, pop: usize, scheme: Scheme| {
        GaBuilder::new(Arc::clone(&problem))
            .seed(seed)
            .pop_size(pop)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(GENOME))
            .scheme(scheme)
            .build()
            .unwrap()
    };
    for family in families() {
        match family {
            "ga" => assert_box_tracks(family, ga(SEED, 12, Scheme::Generational { elitism: 1 })),
            "steady" => {
                let scheme = Scheme::SteadyState {
                    replacement: ReplacementPolicy::WorstIfBetter,
                };
                assert_box_tracks(family, ga(SEED, 12, scheme));
            }
            "cellular" => assert_box_tracks(
                family,
                CellularGa::builder(Arc::clone(&problem))
                    .grid(4, 4)
                    .seed(SEED)
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(GENOME))
                    .build()
                    .unwrap(),
            ),
            "island" => {
                let mut seeds = SEED;
                let demes = (0..3)
                    .map(|_| {
                        let seed = splitmix64(&mut seeds);
                        ga(seed, 8, Scheme::Generational { elitism: 1 })
                    })
                    .collect();
                let policy = MigrationPolicy::default();
                let arch = Archipelago::new(demes, Topology::RingUni, policy).unwrap();
                assert_box_tracks(family, arch);
            }
            "async-steady" => {
                let cluster =
                    ClusterSpec::heterogeneous(3, 3.0, SEED, NetworkProfile::GigabitEthernet)
                        .unwrap();
                let cost = EvalCostModel::uniform(5e-4, 5e-3).unwrap();
                let engine = AsyncSteadyStateGa::builder(Arc::clone(&problem))
                    .seed(SEED)
                    .pop_size(10)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(GENOME))
                    .virtual_cluster(cluster, cost)
                    .build()
                    .unwrap();
                assert_box_tracks(family, engine);
            }
            "cga" => assert_box_tracks(
                family,
                CompactGaBuilder::new(Arc::clone(&problem))
                    .seed(SEED)
                    .virtual_pop(31)
                    .build()
                    .unwrap(),
            ),
            "pcga" => {
                let cluster = ClusterSpec::homogeneous(4, NetworkProfile::GigabitEthernet).unwrap();
                let engine = ShardedCompactGaBuilder::new(Arc::clone(&problem))
                    .seed(SEED)
                    .virtual_pop(31)
                    .cluster(cluster)
                    .build()
                    .unwrap();
                assert_box_tracks(family, engine);
            }
            other => panic!("no concrete engine for the registered family `{other}`"),
        }
    }
}

#[test]
fn a_box_refuses_another_familys_checkpoint() {
    let registry = &Registries::builtin().families;
    for from in families() {
        let mut source = boxed(from);
        source.step();
        let checkpoint = source.snapshot();
        assert_eq!(
            checkpoint.engine_tag(),
            registry.snapshot_tag(from).unwrap()
        );
        for into in families() {
            if registry.snapshot_tag(into) == registry.snapshot_tag(from) {
                continue;
            }
            let err = boxed(into).restore(&checkpoint).unwrap_err();
            assert!(
                matches!(err, SnapshotError::WrongEngine { .. }),
                "{from} -> {into}: {err:?}"
            );
        }
    }
}
