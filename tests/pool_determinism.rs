//! Determinism suite for the persistent work-stealing pool.
//!
//! The pool may reorder *execution* freely (stealing, parking, chunk
//! scheduling) but must never change *results*: a pool-backed run has to be
//! bit-identical to a serial run with the same seed, and to itself across
//! worker counts. The suite also pins the pool's two contractual behaviours
//! beyond determinism: nested `install` scoping and worker-panic
//! propagation.

use parallel_ga::cellular::{CellularGa, UpdatePolicy};
use parallel_ga::core::ops::{BitFlip, OnePoint, Tournament};
use parallel_ga::core::{BitString, Engine, Evaluator, Ga, GaBuilder, Scheme, SerialEvaluator};
use parallel_ga::master_slave::RayonEvaluator;
use parallel_ga::problems::OneMax;
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const LEN: usize = 96;
const GENS: usize = 25;

fn ga<E: Evaluator<Arc<OneMax>>>(evaluator: E, seed: u64) -> Ga<Arc<OneMax>, E> {
    GaBuilder::new(Arc::new(OneMax::new(LEN)))
        .seed(seed)
        .pop_size(48)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(LEN))
        .scheme(Scheme::Generational { elitism: 1 })
        .evaluator(evaluator)
        .build()
        .expect("valid configuration")
}

/// Per-generation fingerprint of a GA run: exact stats plus the best genome.
fn ga_trajectory<E: Evaluator<Arc<OneMax>>>(evaluator: E, seed: u64) -> Vec<(f64, f64, BitString)> {
    let mut engine = ga(evaluator, seed);
    (0..GENS)
        .map(|_| {
            let s = engine.step();
            (s.best, s.mean, engine.ledger().best_ever().genome.clone())
        })
        .collect()
}

#[test]
fn pool_runs_are_bit_identical_to_serial_across_worker_counts() {
    let reference = ga_trajectory(SerialEvaluator, 41);
    for workers in [1usize, 2, 8] {
        let pool = ga_trajectory(RayonEvaluator::new(workers).unwrap(), 41);
        assert_eq!(pool, reference, "workers = {workers} diverged from serial");
    }
}

#[test]
fn min_chunk_hint_does_not_change_results() {
    let reference = ga_trajectory(SerialEvaluator, 17);
    for min_chunk in [1usize, 7, 48, 1000] {
        let pool = ga_trajectory(
            RayonEvaluator::new(4)
                .unwrap()
                .with_min_chunk(min_chunk)
                .unwrap(),
            17,
        );
        assert_eq!(pool, reference, "min_chunk = {min_chunk} diverged");
    }
}

/// Fingerprint of a synchronous cellular run executed entirely inside a
/// dedicated pool of the given size.
fn cellular_trajectory(workers: usize) -> Vec<(f64, f64, BitString)> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .expect("pool");
    pool.install(|| {
        let mut cga = CellularGa::builder(OneMax::new(48))
            .grid(12, 12)
            .update_policy(UpdatePolicy::Synchronous)
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(48))
            .seed(23)
            .build()
            .expect("valid grid");
        (0..30)
            .map(|_| {
                let s = cga.step();
                (s.best, s.mean, cga.ledger().best_ever().genome.clone())
            })
            .collect()
    })
}

#[test]
fn cellular_sweeps_are_bit_identical_across_worker_counts() {
    let reference = cellular_trajectory(1);
    for workers in [2usize, 8] {
        assert_eq!(
            cellular_trajectory(workers),
            reference,
            "workers = {workers} diverged"
        );
    }
}

#[test]
fn nested_install_scopes_pools_correctly() {
    let outer = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("outer pool");
    let inner = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .expect("inner pool");
    let (outer_before, inner_seen, outer_after, evals) = outer.install(|| {
        let before = rayon::current_num_threads();
        let (seen, evals) = inner.install(|| {
            // Real work on the inner pool: the dedicated registry must
            // receive it, not the outer pool or the global one.
            let stats0 = inner.stats();
            let mut data = vec![1u64; 10_000];
            let total: u64 = data.par_iter_mut().map(|x| *x).sum();
            assert_eq!(total, 10_000);
            (rayon::current_num_threads(), inner.stats().delta(&stats0))
        });
        (before, seen, rayon::current_num_threads(), evals)
    });
    assert_eq!(outer_before, 2);
    assert_eq!(inner_seen, 3);
    assert_eq!(outer_after, 2, "outer scope must be restored");
    assert_eq!(evals.calls, 1);
    assert!(evals.tasks_executed >= 1);
}

#[test]
fn worker_panic_propagates_and_evaluator_survives() {
    struct Bomb;
    impl parallel_ga::core::Problem for Bomb {
        type Genome = BitString;
        fn name(&self) -> String {
            "bomb".into()
        }
        fn objective(&self) -> parallel_ga::core::Objective {
            parallel_ga::core::Objective::Maximize
        }
        fn evaluate(&self, g: &BitString) -> f64 {
            assert!(g.count_ones() != 3, "boom");
            g.count_ones() as f64
        }
        fn random_genome(&self, rng: &mut parallel_ga::core::Rng64) -> BitString {
            BitString::random(8, rng)
        }
    }

    let evaluator = RayonEvaluator::new(4).unwrap();
    let mut members: Vec<_> = (0..64)
        .map(|i| {
            let mut g = BitString::zeros(8);
            // One member trips the bomb (exactly three ones).
            if i == 40 {
                g = BitString::ones(8);
                for b in 3..8 {
                    g.set(b, false);
                }
            }
            parallel_ga::core::Individual::unevaluated(g)
        })
        .collect();
    let result = catch_unwind(AssertUnwindSafe(|| {
        evaluator.evaluate_batch(&Bomb, &mut members);
    }));
    assert!(result.is_err(), "panic in a worker must reach the caller");

    // The pool keeps working after the propagated panic.
    let p = OneMax::new(8);
    let mut fresh = vec![parallel_ga::core::Individual::unevaluated(BitString::ones(
        8,
    ))];
    assert_eq!(evaluator.evaluate_batch(&p, &mut fresh), 1);
    assert_eq!(fresh[0].fitness(), 8.0);
}
