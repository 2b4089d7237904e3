//! Allocation contract of the population engines' hot loop.
//!
//! After one warm-up step, a generational or steady-state `Ga` step, a
//! cellular sweep and an asynchronous steady-state generation on virtual
//! time make no heap allocation when no recorder is attached: offspring
//! are bred into the genomes of the members they replace (a generational
//! step writes over the retired generation; a steady-state insertion
//! hands back the retired member or the rejected child), the elite and
//! parent picks go to recycled index buffers, the n-point and HUX
//! crossovers keep their index buffers per thread, and an improving best
//! is copied into the genome the ledger already holds.
//!
//! A counting global allocator counts the allocations of the calling
//! thread only, so tests running in parallel do not disturb each other.
//! The synchronous cellular sweep runs inside a one-thread pool, where
//! the parallel loop runs on the calling thread and every allocation it
//! made would be counted.

use parallel_ga::cellular::{CellularGa, UpdatePolicy};
use parallel_ga::cluster::{ClusterSpec, EvalCostModel, NetworkProfile};
use parallel_ga::core::ops::{
    BitFlip, Crossover, Hux, NPoint, OnePoint, ReplacementPolicy, Tournament, TwoPoint, Uniform,
};
use parallel_ga::core::{BitString, Engine, Ga, Problem, Rng64, Scheme};
use parallel_ga::master_slave::AsyncSteadyStateGa;
use parallel_ga::problems::{DeceptiveTrap, OneMax};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation against the thread
/// that asked for it.
struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One warm-up step, then `steps` steps that must allocate nothing.
fn assert_steps_allocate_nothing(engine: &mut dyn Engine, steps: usize, label: &str) {
    engine.step();
    for step in 1..=steps {
        let n = allocations_in(|| {
            engine.step();
        });
        assert_eq!(
            n, 0,
            "{label}: step {step} after warm-up allocated {n} times"
        );
    }
}

fn genome_len<P: Problem<Genome = BitString>>(problem: &P) -> usize {
    problem.random_genome(&mut Rng64::new(0)).len()
}

fn ga<P: Problem<Genome = BitString>>(
    problem: P,
    pop: usize,
    scheme: Scheme,
    crossover: impl Crossover<BitString> + 'static,
) -> Ga<P> {
    let len = genome_len(&problem);
    Ga::builder(problem)
        .seed(11)
        .pop_size(pop)
        .selection(Tournament::binary())
        .crossover(crossover)
        .mutation(BitFlip::one_over_len(len))
        .scheme(scheme)
        .build()
        .expect("valid configuration")
}

/// OneMax and Trap GAs with elitism 0, 1 and 2 at odd and even
/// population sizes (an odd number of offspring drops a second child).
fn check_ga(name: &str, crossover: impl Crossover<BitString> + Copy + 'static) {
    for elitism in [0, 1, 2] {
        let scheme = Scheme::Generational { elitism };
        for pop in [31, 32] {
            let label = format!("onemax {name} elitism {elitism} pop {pop}");
            let mut onemax = ga(OneMax::new(200), pop, scheme, crossover);
            assert_steps_allocate_nothing(&mut onemax, 20, &label);
            let label = format!("trap {name} elitism {elitism} pop {pop}");
            let mut trap = ga(DeceptiveTrap::new(4, 32), pop, scheme, crossover);
            assert_steps_allocate_nothing(&mut trap, 20, &label);
        }
    }
}

#[test]
fn generational_ga_steps_allocate_nothing_after_warm_up() {
    check_ga("one-point", OnePoint);
    check_ga("two-point", TwoPoint);
    check_ga("uniform", Uniform::half());
}

#[test]
fn generational_ga_steps_with_hux_and_n_point_allocate_nothing_after_warm_up() {
    check_ga("hux", Hux);
    check_ga("3-point", NPoint::new(3));
    check_ga("1-point", NPoint::new(1));
}

#[test]
fn steady_state_ga_steps_allocate_nothing_after_warm_up() {
    for replacement in [
        ReplacementPolicy::Worst,
        ReplacementPolicy::WorstIfBetter,
        ReplacementPolicy::Random,
        ReplacementPolicy::RandomIfBetter,
    ] {
        let scheme = Scheme::SteadyState { replacement };
        for pop in [31, 32] {
            let label = format!("onemax steady {} pop {pop}", replacement.name());
            let mut onemax = ga(OneMax::new(200), pop, scheme, OnePoint);
            assert_steps_allocate_nothing(&mut onemax, 20, &label);
            let label = format!("trap steady {} pop {pop}", replacement.name());
            let mut trap = ga(DeceptiveTrap::new(4, 32), pop, scheme, OnePoint);
            assert_steps_allocate_nothing(&mut trap, 20, &label);
        }
    }
}

#[test]
fn virtual_async_steady_generations_allocate_nothing_after_warm_up() {
    for nodes in [1, 4] {
        let cluster = ClusterSpec::heterogeneous(nodes, 3.0, 9, NetworkProfile::FastEthernet)
            .expect("valid cluster");
        let cost = EvalCostModel::uniform(5e-4, 5e-3).expect("valid cost model");
        let mut engine = AsyncSteadyStateGa::builder(OneMax::new(200))
            .seed(11)
            .pop_size(32)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(200))
            .virtual_cluster(cluster, cost)
            .build()
            .expect("valid configuration");
        let label = format!("async-steady on {nodes} virtual nodes");
        assert_steps_allocate_nothing(&mut engine, 20, &label);
    }
}

fn cellular(policy: UpdatePolicy) -> CellularGa<DeceptiveTrap> {
    CellularGa::builder(DeceptiveTrap::new(4, 32))
        .grid(8, 9)
        .update_policy(policy)
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(128))
        .seed(5)
        .build()
        .expect("valid configuration")
}

#[test]
fn synchronous_cellular_sweeps_allocate_nothing_in_a_one_thread_pool() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool");
    let mut cga = cellular(UpdatePolicy::Synchronous);
    pool.install(|| assert_steps_allocate_nothing(&mut cga, 20, "synchronous"));
}

#[test]
fn asynchronous_cellular_sweeps_allocate_nothing() {
    for policy in UpdatePolicy::ALL {
        if policy.is_asynchronous() {
            let mut cga = cellular(policy);
            assert_steps_allocate_nothing(&mut cga, 20, policy.name());
        }
    }
}
