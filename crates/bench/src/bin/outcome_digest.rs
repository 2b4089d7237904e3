//! Outcome digest: one line per seeded run of a fixed list of engine
//! configurations, for checking that a change leaves every run as it was.
//!
//! Each run goes through the shared `Driver` (generation budget plus
//! `until_optimum`) and prints its generation, evaluations, best-fitness
//! bits and the stored checksum of the engine's final snapshot. The list
//! covers every built-in `pga-serve` family (through `build_engine`), the
//! builder-made steady-state `Ga` under every replacement policy, the
//! generational `Ga` at elitism 0–2 and odd and even populations with
//! every bit-string crossover, every cellular update policy, and the
//! NSGA-II `MoEngine` on ZDT1. Only deterministic engines are listed, so
//! two runs of one build print the same bytes.
//!
//! ```sh
//! cargo run --release -q -p pga-bench --bin outcome_digest > change.txt
//! ```
//!
//! See the README's "Outcome digest" section for diffing against a base
//! commit.

use pga_cellular::{CellularGa, UpdatePolicy};
use pga_core::erased::BoxedEngine;
use pga_core::ops::{
    BitFlip, Crossover, GaussianMutation, Hux, NPoint, OnePoint, ReplacementPolicy, Sbx,
    Tournament, TwoPoint, Uniform,
};
use pga_core::{BitString, Driver, Ga, Problem, Rng64, Scheme, Termination};
use pga_multiobjective::{MoEngine, Zdt};
use pga_problems::{DeceptiveTrap, OneMax};
use pga_serve::{build_engine, Budget, EngineSpec, JobSpec, ProblemSpec};

const SEEDS: [u64; 6] = [1, 2, 3, 17, 101, 4242];
const GENERATIONS: u64 = 100;

/// Runs `engine` and prints its digest line.
fn digest(label: &str, seed: u64, mut engine: BoxedEngine) {
    let termination = Termination::new()
        .until_optimum()
        .max_generations(GENERATIONS);
    let outcome = Driver::new(termination)
        .run(engine.as_mut())
        .expect("bounded termination");
    let bytes = engine.snapshot().to_bytes();
    let mut stored = [0u8; 8];
    stored.copy_from_slice(&bytes[bytes.len() - 8..]);
    println!(
        "{label} seed={seed} gen={} evals={} best={:#018x} sum={:#018x}",
        outcome.generations,
        outcome.evaluations,
        outcome.best_fitness.to_bits(),
        u64::from_le_bytes(stored),
    );
}

fn builtin_families() {
    let problems = [
        ("onemax64", ProblemSpec::onemax(64)),
        ("trap4x16", ProblemSpec::trap(4, 16)),
    ];
    let engines = [
        ("ga(31,0)", EngineSpec::ga(31, 0)),
        ("ga(32,1)", EngineSpec::ga(32, 1)),
        ("ga(33,2)", EngineSpec::ga(33, 2)),
        ("steady(31)", EngineSpec::steady(31)),
        ("steady(32)", EngineSpec::steady(32)),
        ("cellular(6,6)", EngineSpec::cellular(6, 6)),
        ("cellular(5,7)", EngineSpec::cellular(5, 7)),
        ("island(4,8)", EngineSpec::island(4, 8)),
        ("island(3,9)", EngineSpec::island(3, 9)),
        ("async-steady(31,1)", EngineSpec::async_steady(31, 1)),
        ("async-steady(32,4)", EngineSpec::async_steady(32, 4)),
        ("cga(63)", EngineSpec::cga(63)),
        ("pcga(63,8)", EngineSpec::pcga(63, 8)),
    ];
    for (problem_name, problem) in &problems {
        for (engine_name, engine) in &engines {
            for seed in SEEDS {
                let spec = JobSpec {
                    tenant: "digest".into(),
                    problem: problem.clone(),
                    engine: engine.clone(),
                    seed,
                    budget: Budget::default(),
                };
                let built = build_engine(&spec, None).expect("valid spec");
                digest(&format!("{problem_name} {engine_name}"), seed, built);
            }
        }
    }
}

fn genome_len<P: Problem<Genome = BitString>>(problem: &P) -> usize {
    problem.random_genome(&mut Rng64::new(0)).len()
}

fn ga<P: Problem<Genome = BitString>>(
    problem: P,
    seed: u64,
    pop: usize,
    scheme: Scheme,
    crossover: impl Crossover<BitString> + 'static,
) -> BoxedEngine {
    let len = genome_len(&problem);
    Box::new(
        Ga::builder(problem)
            .seed(seed)
            .pop_size(pop)
            .selection(Tournament::binary())
            .crossover(crossover)
            .mutation(BitFlip::one_over_len(len))
            .scheme(scheme)
            .build()
            .expect("valid configuration"),
    )
}

fn steady_state() {
    for replacement in [
        ReplacementPolicy::Worst,
        ReplacementPolicy::WorstIfBetter,
        ReplacementPolicy::Random,
        ReplacementPolicy::RandomIfBetter,
    ] {
        for pop in [31, 32] {
            let scheme = Scheme::SteadyState { replacement };
            for seed in SEEDS {
                let label = format!("onemax64 steady {} pop={pop}", replacement.name());
                digest(
                    &label,
                    seed,
                    ga(OneMax::new(64), seed, pop, scheme, OnePoint),
                );
                let label = format!("trap4x16 steady {} pop={pop}", replacement.name());
                let trap = DeceptiveTrap::new(4, 16);
                digest(&label, seed, ga(trap, seed, pop, scheme, OnePoint));
            }
        }
    }
}

fn generational_with<X: Crossover<BitString> + Copy + 'static>(name: &str, crossover: X) {
    for elitism in 0..=2 {
        for pop in [31, 32, 33] {
            let scheme = Scheme::Generational { elitism };
            for seed in SEEDS {
                let label = format!("trap4x16 generational {name} elitism={elitism} pop={pop}");
                let trap = DeceptiveTrap::new(4, 16);
                digest(&label, seed, ga(trap, seed, pop, scheme, crossover));
            }
        }
    }
}

fn generational() {
    generational_with("one-point", OnePoint);
    generational_with("two-point", TwoPoint);
    generational_with("uniform", Uniform::half());
    generational_with("hux", Hux);
    generational_with("n-point-3", NPoint::new(3));
}

fn cellular() {
    for policy in UpdatePolicy::ALL {
        for seed in SEEDS {
            let engine = CellularGa::builder(DeceptiveTrap::new(4, 16))
                .grid(6, 7)
                .update_policy(policy)
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(64))
                .seed(seed)
                .build()
                .expect("valid configuration");
            let label = format!("trap4x16 cellular {}", policy.name());
            digest(&label, seed, Box::new(engine));
        }
    }
}

fn nsga() {
    for pop in [40, 41] {
        for seed in SEEDS {
            let zdt = Zdt::new(1, 12);
            let bounds = zdt.bounds().clone();
            let engine = MoEngine::builder(zdt)
                .seed(seed)
                .pop_size(pop)
                .crossover(Sbx::new(bounds.clone()))
                .mutation(GaussianMutation {
                    p: 0.1,
                    sigma: 0.1,
                    bounds,
                })
                .build()
                .expect("valid configuration");
            digest(&format!("zdt1 nsga pop={pop}"), seed, Box::new(engine));
        }
    }
}

fn main() {
    builtin_families();
    steady_state();
    generational();
    cellular();
    nsga();
}
