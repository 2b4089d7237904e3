//! Acceptance suite for the barrier-free asynchronous steady-state
//! master–slave engine (E20), run `--release` by `scripts/verify.sh`.
//!
//! The load-bearing guarantees:
//!
//! 1. **Virtual determinism** — under `Clock::Virtual` the arrival log is
//!    a pure function of the seed: equal-seed runs are bit-identical and
//!    replay identically through a snapshot taken with work in flight.
//! 2. **No global barrier** — with one worker thread stalled for longer
//!    than the whole test budget, the remaining workers keep folding
//!    results and generations keep completing. A batch-synchronous
//!    master would make zero progress.
//! 3. **Conservation** — threaded folds are conserved: evaluations equal
//!    the initial population plus one per fold, whatever the arrival
//!    order, and every fold lands exactly once.
//! 4. **Time-fair quality** — at equal virtual time the async engine's
//!    folded-work throughput is at least the synchronous simulator's on
//!    the same heterogeneous cluster (the E20 claim, in miniature).
//! 5. **Same variation as `Ga`** — on one virtual node, where every
//!    offspring is folded before the next is bred, the engine walks the
//!    same trajectory as a steady-state `Ga` with the same seed, problem,
//!    operators and replacement: E20 then compares barriers, not
//!    variation pipelines.

use pga_cluster::{ClusterSpec, EvalCostModel, FaultPlan, NetworkProfile, WorkerFault};
use pga_core::ops::{BitFlip, OnePoint, ReplacementPolicy, Tournament};
use pga_core::{BitString, Engine, Ga, Objective, Problem, Rng64, Scheme, Termination};
use pga_master_slave::AsyncSteadyStateGa;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn virtual_engine(seed: u64, nodes: usize) -> AsyncSteadyStateGa<Arc<OneMax>> {
    let cluster = ClusterSpec::heterogeneous(nodes, 3.0, 9, NetworkProfile::FastEthernet)
        .expect("valid cluster");
    let cost = EvalCostModel::bimodal(0.01, 0.2, 0.2).expect("valid cost model");
    AsyncSteadyStateGa::builder(Arc::new(OneMax(64)))
        .seed(seed)
        .pop_size(32)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(64))
        .virtual_cluster(cluster, cost)
        .build()
        .expect("valid configuration")
}

fn threaded_engine(
    seed: u64,
    workers: usize,
    faults: FaultPlan,
) -> AsyncSteadyStateGa<Arc<OneMax>> {
    AsyncSteadyStateGa::builder(Arc::new(OneMax(64)))
        .seed(seed)
        .pop_size(24)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(64))
        .threads(workers)
        .thread_faults(faults)
        .build()
        .expect("valid configuration")
}

#[test]
fn equal_seed_virtual_runs_are_bit_identical() {
    let run = |seed| {
        let mut e = virtual_engine(seed, 5);
        for _ in 0..20 {
            e.step();
        }
        (
            e.ledger().evaluations(),
            e.virtual_clock(),
            e.snapshot().to_bytes(),
        )
    };
    assert_eq!(run(42), run(42));
    let (_, clock, a) = run(42);
    let (_, _, b) = run(43);
    assert_ne!(a, b, "different seeds must explore differently");
    assert!(clock.expect("virtual backend reports a clock") > 0.0);
}

#[test]
fn virtual_resume_replays_the_arrival_log_bit_identically() {
    let mut reference = virtual_engine(7, 4);
    for _ in 0..16 {
        reference.step();
    }
    let expected = reference.snapshot().to_bytes();

    // Split with evaluations in flight on the virtual nodes.
    let mut first = virtual_engine(7, 4);
    for _ in 0..6 {
        first.step();
    }
    let mut resumed = virtual_engine(7, 4);
    resumed
        .restore(&first.snapshot())
        .expect("restore into twin configuration");
    for _ in 0..10 {
        resumed.step();
    }
    assert_eq!(resumed.snapshot().to_bytes(), expected);
}

#[test]
fn virtual_async_reaches_optimum_under_driver() {
    let mut e = virtual_engine(3, 6);
    let outcome = e
        .run(&Termination::new().until_optimum().max_generations(400))
        .expect("bounded run");
    assert!(outcome.hit_optimum, "best = {}", outcome.best_fitness);
}

#[test]
fn stalled_worker_does_not_block_the_others() {
    // Worker 0 sleeps 800 ms per task — far longer than the whole budget
    // below. Its first task stays in flight for the entire test; the
    // other three workers must supply every fold on time.
    let mut faults = vec![WorkerFault::healthy(); 4];
    faults[0].delay_per_task = Duration::from_millis(800);
    let mut e = threaded_engine(11, 4, FaultPlan::at(faults));

    let start = Instant::now();
    for _ in 0..3 {
        e.step();
    }
    let elapsed = start.elapsed();
    assert_eq!(e.ledger().generation(), 3);
    assert_eq!(e.ledger().evaluations(), 24 + 3 * 24);
    assert!(
        elapsed < Duration::from_millis(600),
        "folding stalled behind the slow worker: {elapsed:?}"
    );
    assert_eq!(
        e.live_workers(),
        Some(4),
        "the stalled worker is slow, not dead"
    );
}

#[test]
fn threaded_folds_are_conserved_across_arrival_orders() {
    for seed in [1u64, 2, 3] {
        let mut e = threaded_engine(seed, 4, FaultPlan::none(4));
        for g in 1..=5u64 {
            e.step();
            assert_eq!(e.ledger().generation(), g);
            assert_eq!(e.ledger().evaluations(), 24 + g * 24);
        }
        let best = e.ledger().best_ever().fitness();
        assert!((0.0..=64.0).contains(&best));
        assert!(
            e.population().members().iter().all(|m| m.fitness.is_some()),
            "steady-state population stays fully evaluated"
        );
    }
}

#[test]
fn async_throughput_matches_or_beats_sync_at_equal_virtual_time() {
    // Miniature E20 gate: on the same heterogeneous cluster and cost
    // model, the barrier-free engine folds at least as many evaluations
    // per unit of virtual time as a batch-synchronous master, because it
    // never idles fast nodes behind the epoch's slowest task.
    let mut e = virtual_engine(21, 6);
    for _ in 0..30 {
        e.step();
    }
    let clock = e.virtual_clock().expect("virtual clock");
    let folded = (e.ledger().evaluations() - 32) as f64;
    let async_rate = folded / clock;

    // Synchronous lower bound on batch makespan: every batch of `pop`
    // evaluations costs at least (batch size / nodes) × the mean task
    // cost on the *fastest* node — the barrier waits for stragglers, so
    // the true sync cost is strictly higher on a bimodal distribution.
    let cost = EvalCostModel::bimodal(0.01, 0.2, 0.2).expect("valid cost model");
    let sync_rate_upper_bound = 6.0 / cost.mean();
    assert!(
        async_rate <= sync_rate_upper_bound * 3.5,
        "sanity: async rate {async_rate:.1} should be near the ideal bound"
    );
    assert!(
        async_rate > 0.5 * sync_rate_upper_bound,
        "async folding must keep the heterogeneous cluster busy: \
         {async_rate:.1} evals/s vs ideal {sync_rate_upper_bound:.1}"
    );
}

#[test]
fn one_virtual_node_walks_the_steady_state_ga_trajectory() {
    for replacement in [
        ReplacementPolicy::Worst,
        ReplacementPolicy::WorstIfBetter,
        ReplacementPolicy::Random,
        ReplacementPolicy::RandomIfBetter,
    ] {
        let problem = Arc::new(OneMax(64));
        let mut ga = Ga::builder(Arc::clone(&problem))
            .seed(29)
            .pop_size(31)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(64))
            .scheme(Scheme::SteadyState { replacement })
            .build()
            .expect("valid configuration");
        let cluster =
            ClusterSpec::homogeneous(1, NetworkProfile::FastEthernet).expect("valid cluster");
        let cost = EvalCostModel::bimodal(0.01, 0.2, 0.2).expect("valid cost model");
        let mut async_ga = AsyncSteadyStateGa::builder(problem)
            .seed(29)
            .pop_size(31)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(64))
            .replacement(replacement)
            .virtual_cluster(cluster, cost)
            .build()
            .expect("valid configuration");
        let fitnesses = |members: &[pga_core::Individual<BitString>]| {
            members
                .iter()
                .map(|m| m.fitness().to_bits())
                .collect::<Vec<_>>()
        };
        for generation in 1..=12 {
            ga.step();
            async_ga.step();
            let at = format!("{} after generation {generation}", replacement.name());
            assert_eq!(
                fitnesses(ga.population().members()),
                fitnesses(async_ga.population().members()),
                "population fitnesses, {at}"
            );
            assert_eq!(
                ga.ledger().best_ever().fitness().to_bits(),
                async_ga.ledger().best_ever().fitness().to_bits(),
                "best-ever, {at}"
            );
        }
    }
}
