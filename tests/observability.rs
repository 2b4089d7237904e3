//! Seed-transparency of the observability layer: attaching or detaching
//! recorders must not perturb any RNG stream, so instrumented and plain
//! runs of the same seed must produce identical search results.

use parallel_ga::cellular::{CellularGa, UpdatePolicy};
use parallel_ga::cluster::{ClusterSpec, EvalCostModel, NetworkProfile};
use parallel_ga::compact::{CompactGa, ShardedCompactGa};
use parallel_ga::core::ops::{BitFlip, OnePoint, Tournament};
use parallel_ga::core::{Engine, GaBuilder, Scheme, SerialEvaluator, Termination};
use parallel_ga::island::{Archipelago, MigrationPolicy, SyncMode};
use parallel_ga::master_slave::AsyncSteadyStateGa;
use parallel_ga::observe::{EventKind, RingRecorder};
use parallel_ga::problems::OneMax;
use parallel_ga::topology::Topology;
use std::sync::Arc;

const GENOME: usize = 48;

fn ga(seed: u64) -> GaBuilder<Arc<OneMax>, SerialEvaluator> {
    GaBuilder::new(Arc::new(OneMax::new(GENOME)))
        .seed(seed)
        .pop_size(40)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(GENOME))
        .scheme(Scheme::Generational { elitism: 1 })
}

#[test]
fn recorder_attach_detach_does_not_change_single_ga_run() {
    let termination = Termination::new().until_optimum().max_generations(300);

    let mut plain = ga(11).build().unwrap();
    let plain_result = plain.run(&termination).unwrap();

    let ring = RingRecorder::new(1 << 14);
    let mut observed = ga(11).recorder(ring.clone()).build().unwrap();
    let observed_result = observed.run(&termination).unwrap();

    assert_eq!(plain_result.generations, observed_result.generations);
    assert_eq!(plain_result.evaluations, observed_result.evaluations);
    assert_eq!(plain_result.best.fitness(), observed_result.best.fitness());
    assert_eq!(plain_result.hit_optimum, observed_result.hit_optimum);
    assert!(!ring.is_empty(), "the observed run must emit events");
}

#[test]
fn recorder_attach_detach_does_not_change_island_run() {
    let stop = Termination::new().max_generations(60);
    let policy = MigrationPolicy {
        interval: 8,
        ..MigrationPolicy::default()
    };

    let run = |record: bool| {
        let ring = RingRecorder::new(1 << 16);
        let islands = (0..4)
            .map(|i| {
                let builder = ga(100 + i);
                if record {
                    builder.recorder(ring.clone()).build().unwrap()
                } else {
                    builder.build().unwrap()
                }
            })
            .collect();
        let mut arch = Archipelago::new(islands, Topology::RingUni, policy).unwrap();
        (arch.run(&stop).unwrap(), ring)
    };

    let (plain, _) = run(false);
    let (observed, ring) = run(true);

    assert_eq!(plain.total_evaluations, observed.total_evaluations);
    assert_eq!(plain.best.fitness(), observed.best.fitness());
    assert_eq!(plain.generations, observed.generations);
    assert_eq!(plain.per_island_best, observed.per_island_best);
    assert_eq!(plain.migrants_sent, observed.migrants_sent);
    assert_eq!(plain.migrants_accepted, observed.migrants_accepted);

    // The instrumented run saw the full event vocabulary of an island run.
    let events = ring.take_events();
    for expected in [
        "run_started",
        "generation_completed",
        "migration_sent",
        "migration_received",
    ] {
        assert!(
            events.iter().any(|e| e.kind.name() == expected),
            "missing {expected}"
        );
    }
    let sent: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MigrationSent { count, .. } => Some(count),
            _ => None,
        })
        .sum();
    assert_eq!(sent, observed.migrants_sent);
}

#[test]
fn recorder_attach_detach_does_not_change_async_steady_run() {
    // The async engine emits one `async_fold` per folded result, so it is
    // the highest-volume event source in the workspace — and the fold
    // order (hence the whole search) must still be recorder-independent,
    // down to identical snapshot bytes.
    let build = |ring: Option<RingRecorder>| {
        let cluster = ClusterSpec::heterogeneous(4, 3.0, 9, NetworkProfile::FastEthernet)
            .expect("valid cluster");
        let cost = EvalCostModel::bimodal(0.01, 0.2, 0.2).expect("valid cost model");
        let mut b = AsyncSteadyStateGa::builder(Arc::new(OneMax::new(GENOME)))
            .seed(77)
            .pop_size(32)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(GENOME))
            .virtual_cluster(cluster, cost);
        if let Some(r) = ring {
            b = b.recorder(r);
        }
        b.build().expect("valid configuration")
    };

    let mut plain = build(None);
    let ring = RingRecorder::new(1 << 15);
    let mut observed = build(Some(ring.clone()));
    for _ in 0..12 {
        plain.step();
        observed.step();
    }
    // Mid-run detach must also be inert.
    let detached = observed.ledger_mut().take_recorder();
    assert!(detached.is_some(), "recorder was attached");
    for _ in 0..4 {
        plain.step();
        observed.step();
    }

    assert_eq!(
        plain.ledger().evaluations(),
        observed.ledger().evaluations()
    );
    assert_eq!(
        plain.ledger().best_ever().fitness(),
        observed.ledger().best_ever().fitness()
    );
    assert_eq!(
        plain.snapshot().to_bytes(),
        observed.snapshot().to_bytes(),
        "recorder attach/detach changed the async trajectory"
    );
    let folds = ring
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AsyncFold { .. }))
        .count();
    assert_eq!(
        folds,
        12 * 32,
        "one async_fold per folded result while attached"
    );
}

#[test]
fn recorder_attach_detach_does_not_change_compact_ga_run() {
    // The compact engine's only RNG stream drives the model sampling, so
    // any recorder leakage would shift the probability vector itself.
    let build = |ring: Option<RingRecorder>| {
        let mut b = CompactGa::builder(Arc::new(OneMax::new(GENOME)))
            .seed(41)
            .virtual_pop(63);
        if let Some(r) = ring {
            b = b.recorder(r);
        }
        b.build().expect("valid configuration")
    };

    let mut plain = build(None);
    let ring = RingRecorder::new(1 << 12);
    let mut observed = build(Some(ring.clone()));
    for _ in 0..40 {
        plain.step();
        observed.step();
    }
    // Mid-run detach must also be inert.
    assert!(
        observed.ledger_mut().take_recorder().is_some(),
        "recorder was attached"
    );
    for _ in 0..10 {
        plain.step();
        observed.step();
    }

    assert_eq!(
        plain.snapshot().to_bytes(),
        observed.snapshot().to_bytes(),
        "recorder attach/detach changed the compact trajectory"
    );
    let generations = ring
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GenerationCompleted { .. }))
        .count();
    assert_eq!(
        generations, 40,
        "one generation_completed per step while attached"
    );
}

#[test]
fn recorder_attach_detach_does_not_change_cellular_run() {
    // The synchronous sweep breeds on the pool and the asynchronous one in
    // place; neither may let the recorder touch a cell stream.
    for policy in [UpdatePolicy::Synchronous, UpdatePolicy::UniformChoice] {
        let build = |ring: Option<RingRecorder>| {
            let mut b = CellularGa::builder(Arc::new(OneMax::new(GENOME)))
                .grid(6, 6)
                .update_policy(policy)
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(GENOME))
                .seed(47);
            if let Some(r) = ring {
                b = b.recorder(r);
            }
            b.build().expect("valid configuration")
        };

        let mut plain = build(None);
        let ring = RingRecorder::new(1 << 12);
        let mut observed = build(Some(ring.clone()));
        for _ in 0..20 {
            assert_eq!(plain.step(), observed.step(), "{}", policy.name());
        }
        // Mid-run detach must also be inert.
        assert!(
            observed.ledger_mut().take_recorder().is_some(),
            "recorder was attached"
        );
        for _ in 0..10 {
            assert_eq!(plain.step(), observed.step(), "{}", policy.name());
        }

        assert_eq!(
            plain.snapshot().to_bytes(),
            observed.snapshot().to_bytes(),
            "recorder attach/detach changed the {} cellular trajectory",
            policy.name()
        );
        let generations = ring
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::GenerationCompleted { .. }))
            .count();
        assert_eq!(
            generations, 20,
            "one generation_completed per sweep while attached"
        );
    }
}

#[test]
fn recorder_attach_detach_does_not_change_sharded_compact_run() {
    let build = |ring: Option<RingRecorder>| {
        let cluster =
            ClusterSpec::homogeneous(6, NetworkProfile::FastEthernet).expect("valid cluster");
        let mut b = ShardedCompactGa::builder(Arc::new(OneMax::new(GENOME)))
            .cluster(cluster)
            .virtual_pop(63)
            .seed(43);
        if let Some(r) = ring {
            b = b.recorder(r);
        }
        b.build().expect("valid configuration")
    };

    let mut plain = build(None);
    let ring = RingRecorder::new(1 << 12);
    let mut observed = build(Some(ring.clone()));
    for _ in 0..30 {
        plain.step();
        observed.step();
    }
    assert!(
        observed.ledger_mut().take_recorder().is_some(),
        "recorder was attached"
    );
    for _ in 0..10 {
        plain.step();
        observed.step();
    }

    // Identical snapshot bytes cover the per-shard RNGs, the probability
    // slices, the wire counters, and the virtual clock.
    assert_eq!(
        plain.snapshot().to_bytes(),
        observed.snapshot().to_bytes(),
        "recorder attach/detach changed the sharded compact trajectory"
    );
    assert!(
        ring.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::GenerationCompleted { .. })),
        "sharded runs must trace generations while attached"
    );
}

#[test]
fn recorder_attach_detach_does_not_change_overlap_island_run() {
    let stop = Termination::new().max_generations(60);
    let policy = MigrationPolicy {
        interval: 8,
        sync: SyncMode::Overlap,
        ..MigrationPolicy::default()
    };

    let run = |record: bool| {
        let ring = RingRecorder::new(1 << 16);
        let islands = (0..4)
            .map(|i| {
                let builder = ga(200 + i);
                if record {
                    builder.recorder(ring.clone()).build().unwrap()
                } else {
                    builder.build().unwrap()
                }
            })
            .collect();
        let mut arch = Archipelago::new(islands, Topology::RingUni, policy).unwrap();
        (arch.run(&stop).unwrap(), ring)
    };

    let (plain, _) = run(false);
    let (observed, ring) = run(true);

    assert_eq!(plain.total_evaluations, observed.total_evaluations);
    assert_eq!(plain.best.fitness(), observed.best.fitness());
    assert_eq!(plain.per_island_best, observed.per_island_best);
    assert_eq!(plain.migrants_sent, observed.migrants_sent);
    assert_eq!(plain.migrants_accepted, observed.migrants_accepted);
    assert!(
        ring.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::AsyncImmigrantsDrained { .. })),
        "overlap runs must trace opportunistic drains"
    );
}
