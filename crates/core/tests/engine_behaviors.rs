//! Behavioural integration tests for the sequential engine: termination
//! criteria, scheme mechanics, and diversity dynamics.

use pga_core::diversity::mean_hamming;
use pga_core::ops::{BitFlip, NoMutation, OnePoint, Roulette, Sus, Tournament, Uniform};
use pga_core::{
    BitString, Engine, Ga, GaBuilder, Objective, Problem, Rng64, Scheme, StopReason, Termination,
};
use std::sync::Arc;
use std::time::Duration;

struct OneMax(usize);
impl Problem for OneMax {
    type Genome = BitString;
    fn name(&self) -> String {
        "onemax".into()
    }
    fn objective(&self) -> Objective {
        Objective::Maximize
    }
    fn evaluate(&self, g: &BitString) -> f64 {
        g.count_ones() as f64
    }
    fn random_genome(&self, rng: &mut Rng64) -> BitString {
        BitString::random(self.0, rng)
    }
    fn optimum(&self) -> Option<f64> {
        Some(self.0 as f64)
    }
}

fn builder(len: usize, seed: u64) -> pga_core::GaBuilder<OneMax> {
    GaBuilder::new(OneMax(len))
        .seed(seed)
        .pop_size(30)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(len))
}

#[test]
fn stagnation_terminates_converged_runs() {
    // No mutation + no crossover: the population can only converge.
    let mut ga = GaBuilder::new(OneMax(64))
        .seed(3)
        .pop_size(20)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .crossover_rate(0.0)
        .mutation(NoMutation)
        .build()
        .unwrap();
    let r = ga
        .run(
            &Termination::new()
                .max_stagnation(10)
                .max_generations(10_000),
        )
        .unwrap();
    assert_eq!(r.stop, StopReason::Stagnation);
    assert!(r.generations < 10_000);
}

#[test]
fn wall_clock_terminates() {
    let mut ga = builder(256, 1).build().unwrap();
    let r = ga
        .run(&Termination::new().wall_clock(Duration::from_millis(30)))
        .unwrap();
    assert_eq!(r.stop, StopReason::WallClock);
    assert!(r.elapsed >= Duration::from_millis(30));
}

#[test]
fn step_offspring_advances_steady_state_incrementally() {
    let mut ga = builder(32, 5)
        .scheme(Scheme::SteadyState {
            replacement: pga_core::ops::ReplacementPolicy::WorstIfBetter,
        })
        .build()
        .unwrap();
    let before = ga.ledger().evaluations();
    ga.step_offspring(7);
    assert_eq!(ga.ledger().evaluations(), before + 7);
    // Generation counter is only advanced by full steps.
    assert_eq!(ga.ledger().generation(), 0);
}

#[test]
fn zero_crossover_rate_still_evolves_via_mutation() {
    let mut ga = builder(48, 9).crossover_rate(0.0).build().unwrap();
    let r = ga
        .run(&Termination::new().until_optimum().max_generations(2000))
        .unwrap();
    assert!(r.hit_optimum, "mutation-only run should still solve OneMax");
}

#[test]
fn alternative_selectors_solve_onemax() {
    for (name, sel) in [
        (
            "roulette",
            Box::new(Roulette) as Box<dyn pga_core::ops::selection::Selection<BitString>>,
        ),
        ("sus", Box::new(Sus)),
    ] {
        let mut ga = GaBuilder::new(OneMax(48)).seed(11).pop_size(60);
        ga = match name {
            "roulette" => ga.selection(Roulette),
            _ => ga.selection(Sus),
        };
        let mut ga = ga
            .crossover(Uniform::half())
            .mutation(BitFlip::one_over_len(48))
            .build()
            .unwrap();
        let r = ga
            .run(&Termination::new().until_optimum().max_generations(3000))
            .unwrap();
        assert!(r.hit_optimum, "{name}: best {}", r.best_fitness);
        drop(sel);
    }
}

#[test]
fn diversity_collapses_as_population_converges() {
    let mut ga = builder(128, 21).build().unwrap();
    let mut rng = Rng64::new(0);
    let initial = mean_hamming(ga.population(), &mut rng);
    for _ in 0..150 {
        ga.step();
    }
    let converged = mean_hamming(ga.population(), &mut rng);
    assert!(
        converged < initial / 2.0,
        "diversity {initial:.3} -> {converged:.3} did not collapse"
    );
}

#[test]
fn shared_problem_instances_can_drive_many_engines() {
    let shared = Arc::new(OneMax(32));
    let mut engines: Vec<Ga<Arc<OneMax>>> = (0..3)
        .map(|i| {
            GaBuilder::new(Arc::clone(&shared))
                .seed(i)
                .pop_size(20)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(32))
                .build()
                .unwrap()
        })
        .collect();
    for ga in &mut engines {
        ga.step();
    }
    assert!(engines.iter().all(|g| g.ledger().generation() == 1));
}

#[test]
fn scheme_names_for_tables() {
    assert_eq!(Scheme::Generational { elitism: 1 }.name(), "generational");
    assert_eq!(
        Scheme::SteadyState {
            replacement: pga_core::ops::ReplacementPolicy::Worst
        }
        .name(),
        "steady-state"
    );
}
