//! Cross-engine consistency: the parallel engines must be search-equivalent
//! to their sequential counterparts where the design promises it
//! (DESIGN.md §6), and deterministic replay must hold everywhere.

use parallel_ga::cluster::{ClusterSpec, FailurePlan, NetworkProfile};
use parallel_ga::core::ops::{BitFlip, OnePoint, Tournament};
use parallel_ga::core::{Engine, Ga, GaBuilder, Scheme, SerialEvaluator, Termination};
use parallel_ga::island::{run_threaded, Archipelago, MigrationPolicy};
use parallel_ga::master_slave::{RayonEvaluator, SimulatedMasterSlaveGa};
use parallel_ga::problems::{DeceptiveTrap, OneMax};
use parallel_ga::topology::Topology;
use std::sync::Arc;

fn onemax_ga<E: parallel_ga::core::Evaluator<Arc<OneMax>>>(
    evaluator: E,
    seed: u64,
) -> Ga<Arc<OneMax>, E> {
    GaBuilder::new(Arc::new(OneMax::new(64)))
        .seed(seed)
        .pop_size(40)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(64))
        .scheme(Scheme::Generational { elitism: 1 })
        .evaluator(evaluator)
        .build()
        .expect("valid configuration")
}

#[test]
fn master_slave_is_search_equivalent_to_serial() {
    let mut serial = onemax_ga(SerialEvaluator, 42);
    let mut rayon2 = onemax_ga(RayonEvaluator::new(2).unwrap(), 42);
    let mut rayon4 = onemax_ga(RayonEvaluator::new(4).unwrap(), 42);
    for _ in 0..25 {
        let a = serial.step();
        let b = rayon2.step();
        let c = rayon4.step();
        assert_eq!(a.best, b.best);
        assert_eq!(a.best, c.best);
        assert_eq!(a.mean, b.mean);
        assert_eq!(a.evaluations, c.evaluations);
    }
}

fn trap_islands(seed: u64) -> Vec<Ga<Arc<DeceptiveTrap>, SerialEvaluator>> {
    let problem = Arc::new(DeceptiveTrap::new(4, 10));
    (0..4)
        .map(|i| {
            GaBuilder::new(Arc::clone(&problem))
                .seed(seed + i)
                .pop_size(30)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(40))
                .scheme(Scheme::Generational { elitism: 1 })
                .build()
                .expect("valid configuration")
        })
        .collect()
}

#[test]
fn threaded_sync_islands_match_sequential_stepper_exactly() {
    // 48 generations crosses three migration epochs.
    let stop = Termination::new().max_generations(48);
    let threaded = run_threaded(
        trap_islands(9),
        &Topology::RingUni,
        MigrationPolicy::default(),
        &stop,
        true,
    )
    .expect("valid island configuration");
    let mut arch = Archipelago::new(
        trap_islands(9),
        Topology::RingUni,
        MigrationPolicy::default(),
    )
    .expect("valid island configuration")
    .with_history(true);
    let sequential = arch.run(&stop).expect("bounded");

    assert_eq!(threaded.per_island_best, sequential.per_island_best);
    assert_eq!(threaded.total_evaluations, sequential.total_evaluations);
    assert_eq!(threaded.migrants_sent, sequential.migrants_sent);
    // Full per-generation trajectories agree island by island.
    for (ht, hs) in threaded.histories.iter().zip(&sequential.histories) {
        assert_eq!(ht.len(), hs.len());
        for (a, b) in ht.iter().zip(hs) {
            assert_eq!(a.best, b.best);
            assert_eq!(a.mean, b.mean);
        }
    }
}

#[test]
fn threaded_run_is_deterministic_across_replays() {
    let stop = Termination::new().max_generations(32);
    let a = run_threaded(
        trap_islands(77),
        &Topology::Complete,
        MigrationPolicy::default(),
        &stop,
        false,
    )
    .expect("valid island configuration");
    let b = run_threaded(
        trap_islands(77),
        &Topology::Complete,
        MigrationPolicy::default(),
        &stop,
        false,
    )
    .expect("valid island configuration");
    assert_eq!(a.per_island_best, b.per_island_best);
    assert_eq!(a.total_evaluations, b.total_evaluations);
}

#[test]
fn simulated_cluster_failures_never_change_search_results() {
    let spec = ClusterSpec::heterogeneous(8, 4.0, 5, NetworkProfile::FastEthernet).unwrap();
    let healthy = SimulatedMasterSlaveGa::new(
        onemax_ga(SerialEvaluator, 3),
        spec.clone(),
        FailurePlan::none(8),
        0.01,
    )
    .expect("valid cluster configuration")
    .run(&Termination::new().until_optimum().max_generations(40))
    .expect("bounded");
    let faulty = SimulatedMasterSlaveGa::new(
        onemax_ga(SerialEvaluator, 3),
        spec,
        FailurePlan::exponential(8, 2.0, 100.0, 9).unwrap(),
        0.01,
    )
    .expect("valid cluster configuration")
    .run(&Termination::new().until_optimum().max_generations(40))
    .expect("bounded");
    assert_eq!(healthy.best_fitness, faulty.best_fitness);
    assert_eq!(healthy.generations, faulty.generations);
    assert_eq!(healthy.evaluations, faulty.evaluations);
    assert!(faulty.virtual_seconds >= healthy.virtual_seconds);
}

#[test]
fn migration_accepts_are_bounded_by_sends() {
    let mut arch = Archipelago::new(
        trap_islands(13),
        Topology::RingBi,
        MigrationPolicy::default(),
    )
    .expect("valid island configuration");
    let r = arch
        .run(&Termination::new().max_generations(64))
        .expect("bounded");
    assert!(r.migrants_accepted <= r.migrants_sent);
    // Ring-bi, 4 islands, migration every 16 gens over 64 gens: 4 epochs,
    // 2 out-edges per island, 1 migrant each.
    assert_eq!(r.migrants_sent, 4 * 2 * 4);
}
