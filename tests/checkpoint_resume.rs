//! Checkpoint/resume: for every engine family, stopping at generation `g`,
//! serializing the snapshot to bytes, restoring it into a freshly built
//! engine of the same configuration, and continuing must be bit-identical
//! to an uninterrupted run. Corrupted and mismatched snapshots must be
//! rejected with typed errors, never a panic.

use parallel_ga::cellular::CellularGa;
use parallel_ga::cluster::{ClusterSpec, EvalCostModel, FailurePlan, NetworkProfile};
use parallel_ga::compact::{CompactGa, ShardedCompactGa};
use parallel_ga::core::ops::{
    BitFlip, BlxAlpha, GaussianMutation, OnePoint, ReplacementPolicy, Sbx, Tournament,
};
use parallel_ga::core::{
    BitString, Bounds, Engine, Ga, GaBuilder, Scheme, Snapshot, SnapshotError,
};
use parallel_ga::hierarchical::{BlurredFidelity, Hga, HgaConfig, LevelView};
use parallel_ga::island::{Archipelago, Deme, MigrationPolicy};
use parallel_ga::island::{EmigrantSelection, SyncMode};
use parallel_ga::master_slave::{AsyncSteadyStateGa, SimulatedMasterSlaveGa};
use parallel_ga::multiobjective::{MoEngine, Zdt};
use parallel_ga::problems::{DeceptiveTrap, OneMax, RealFunction, RealProblem};
use parallel_ga::topology::Topology;
use std::sync::Arc;

/// Runs `total` steps uninterrupted, serializing the state at every step
/// boundary. Then, from each boundary `split` in turn, replays the run as
/// byte roundtrip → restore into a fresh engine → remaining steps, and
/// asserts that every later serialized state is byte-for-byte equal to
/// the uninterrupted run's at the same boundary.
fn assert_bit_identical_resume<E: Engine>(mut make: impl FnMut() -> E, total: u64) {
    let mut reference = make();
    let mut boundaries = vec![reference.snapshot().to_bytes()];
    for _ in 0..total {
        reference.step();
        boundaries.push(reference.snapshot().to_bytes());
    }
    for split in 0..boundaries.len() - 1 {
        let checkpoint =
            Snapshot::from_bytes(&boundaries[split]).expect("snapshot roundtrips through bytes");
        let mut resumed = make();
        resumed
            .restore(&checkpoint)
            .expect("restore into an identically configured engine");
        for (at, expected) in boundaries.iter().enumerate().skip(split + 1) {
            resumed.step();
            assert_eq!(
                &resumed.snapshot().to_bytes(),
                expected,
                "run resumed at step {split} diverged at step {at} ({})",
                reference.engine_id()
            );
        }
    }
}

fn onemax_ga(seed: u64) -> Ga<Arc<OneMax>> {
    GaBuilder::new(Arc::new(OneMax::new(48)))
        .seed(seed)
        .pop_size(30)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(48))
        .scheme(Scheme::Generational { elitism: 1 })
        .build()
        .expect("valid configuration")
}

#[test]
fn sequential_ga_resumes_bit_identically() {
    assert_bit_identical_resume(|| onemax_ga(11), 20);
}

#[test]
fn steady_state_ga_resumes_bit_identically() {
    assert_bit_identical_resume(
        || {
            GaBuilder::new(Arc::new(OneMax::new(48)))
                .seed(13)
                .pop_size(30)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(48))
                .scheme(Scheme::SteadyState {
                    replacement: ReplacementPolicy::WorstIfBetter,
                })
                .build()
                .expect("valid configuration")
        },
        20,
    );
}

#[test]
fn archipelago_resumes_bit_identically() {
    assert_bit_identical_resume(
        || {
            let problem = Arc::new(DeceptiveTrap::new(4, 8));
            let islands = (0..4)
                .map(|i| {
                    GaBuilder::new(Arc::clone(&problem))
                        .seed(40 + i)
                        .pop_size(20)
                        .selection(Tournament::binary())
                        .crossover(OnePoint)
                        .mutation(BitFlip::one_over_len(32))
                        .scheme(Scheme::Generational { elitism: 1 })
                        .build()
                        .expect("valid configuration")
                })
                .collect();
            Archipelago::new(islands, Topology::RingUni, MigrationPolicy::default())
                .expect("valid island configuration")
        },
        // Crosses four migration epochs; the checkpoints fall mid-epoch
        // and at epoch boundaries.
        40,
    );
}

#[test]
fn mixed_cellular_and_panmictic_archipelago_resumes_bit_identically() {
    // Boxed demes of two families in one ring: each island's nested
    // snapshot goes through the box to the engine inside.
    assert_bit_identical_resume(
        || {
            let problem = Arc::new(OneMax::new(48));
            let mut demes: Vec<Box<dyn Deme<Genome = BitString>>> = Vec::new();
            for i in 0..2 {
                demes.push(Box::new(
                    CellularGa::builder(Arc::clone(&problem))
                        .grid(5, 5)
                        .seed(70 + i)
                        .crossover(OnePoint)
                        .mutation(BitFlip::one_over_len(48))
                        .build()
                        .expect("valid configuration"),
                ));
                demes.push(Box::new(
                    GaBuilder::new(Arc::clone(&problem))
                        .seed(80 + i)
                        .pop_size(25)
                        .selection(Tournament::binary())
                        .crossover(OnePoint)
                        .mutation(BitFlip::one_over_len(48))
                        .build()
                        .expect("valid configuration"),
                ));
            }
            let policy = MigrationPolicy {
                interval: 3,
                ..MigrationPolicy::default()
            };
            Archipelago::new(demes, Topology::RingBi, policy).expect("valid island configuration")
        },
        16,
    );
}

#[test]
fn cellular_ga_resumes_bit_identically() {
    assert_bit_identical_resume(
        || {
            CellularGa::builder(OneMax::new(32))
                .grid(8, 8)
                .seed(5)
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(32))
                .build()
                .expect("valid configuration")
        },
        15,
    );
}

#[test]
fn hga_resumes_bit_identically() {
    assert_bit_identical_resume(
        || {
            let problem = Arc::new(BlurredFidelity::new(
                RealProblem::new(RealFunction::Sphere, 4).with_target(0.05),
                2,
                0.1,
                4.0,
            ));
            Hga::new(
                problem,
                HgaConfig::default(),
                5,
                |view: LevelView<_>, seed| {
                    let bounds = Bounds::uniform(-5.12, 5.12, 4);
                    GaBuilder::new(view)
                        .seed(seed)
                        .pop_size(12)
                        .selection(Tournament::binary())
                        .crossover(BlxAlpha::new(bounds.clone()))
                        .mutation(GaussianMutation {
                            p: 0.25,
                            sigma: 0.3,
                            bounds,
                        })
                        .scheme(Scheme::Generational { elitism: 1 })
                        .build()
                        .expect("valid configuration")
                },
            )
            .expect("valid hierarchy configuration")
        },
        10,
    );
}

#[test]
fn nsga_resumes_bit_identically() {
    assert_bit_identical_resume(
        || {
            let p = Zdt::new(1, 6);
            let b = p.bounds().clone();
            MoEngine::builder(p)
                .seed(23)
                .pop_size(20)
                .crossover(Sbx::new(b.clone()))
                .mutation(GaussianMutation {
                    p: 0.1,
                    sigma: 0.1,
                    bounds: b,
                })
                .build()
                .expect("valid configuration")
        },
        18,
    );
}

#[test]
fn simulated_master_slave_resumes_bit_identically() {
    assert_bit_identical_resume(
        || {
            let spec = ClusterSpec::heterogeneous(6, 4.0, 5, NetworkProfile::FastEthernet).unwrap();
            SimulatedMasterSlaveGa::new(
                onemax_ga(3),
                spec,
                FailurePlan::exponential(6, 2.0, 100.0, 9).unwrap(),
                0.01,
            )
            .expect("valid cluster configuration")
        },
        16,
    );
}

fn async_steady(seed: u64) -> AsyncSteadyStateGa<Arc<OneMax>> {
    let cluster =
        ClusterSpec::heterogeneous(5, 3.0, 7, NetworkProfile::FastEthernet).expect("valid cluster");
    let cost = EvalCostModel::bimodal(0.01, 0.2, 0.25).expect("valid cost model");
    AsyncSteadyStateGa::builder(Arc::new(OneMax::new(48)))
        .seed(seed)
        .pop_size(24)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(48))
        .virtual_cluster(cluster, cost)
        .build()
        .expect("valid configuration")
}

#[test]
fn async_steady_resumes_bit_identically() {
    // Every checkpoint leaves evaluations in flight on the virtual nodes;
    // the snapshot must carry them (and the arrival clock) for the resumed
    // run to fold results in the identical order.
    assert_bit_identical_resume(|| async_steady(17), 18);
}

#[test]
fn overlap_archipelago_resumes_bit_identically() {
    assert_bit_identical_resume(
        || {
            let problem = Arc::new(DeceptiveTrap::new(4, 8));
            let islands = (0..4)
                .map(|i| {
                    GaBuilder::new(Arc::clone(&problem))
                        .seed(60 + i)
                        .pop_size(20)
                        .selection(Tournament::binary())
                        .crossover(OnePoint)
                        .mutation(BitFlip::one_over_len(32))
                        .scheme(Scheme::Generational { elitism: 1 })
                        .build()
                        .expect("valid configuration")
                })
                .collect();
            let policy = MigrationPolicy {
                interval: 8,
                count: 2,
                emigrant: EmigrantSelection::Best,
                replacement: ReplacementPolicy::WorstIfBetter,
                sync: SyncMode::Overlap,
            };
            Archipelago::new(islands, Topology::RingUni, policy)
                .expect("valid island configuration")
        },
        // Checkpoints at epoch boundaries fall while migrants are in
        // flight toward the next generation's replacement point.
        20,
    );
}

fn compact(seed: u64) -> CompactGa<Arc<OneMax>> {
    CompactGa::builder(Arc::new(OneMax::new(48)))
        .seed(seed)
        .virtual_pop(63)
        .build()
        .expect("valid configuration")
}

#[test]
fn compact_ga_resumes_bit_identically() {
    // The snapshot is just the probability vector + RNG + counters, so the
    // roundtrip exercises the full model state.
    assert_bit_identical_resume(|| compact(29), 30);
}

fn sharded_compact(seed: u64) -> ShardedCompactGa<Arc<OneMax>> {
    let cluster = ClusterSpec::homogeneous(6, NetworkProfile::FastEthernet).expect("valid cluster");
    ShardedCompactGa::builder(Arc::new(OneMax::new(48)))
        .cluster(cluster)
        .virtual_pop(63)
        .seed(seed)
        .build()
        .expect("valid configuration")
}

#[test]
fn sharded_compact_ga_resumes_bit_identically() {
    // Every checkpoint leaves the virtual clock mid-run; the snapshot must
    // carry the per-shard slices and the clock for the resumed run to
    // replay the same gather/broadcast schedule.
    assert_bit_identical_resume(|| sharded_compact(31), 25);
}

#[test]
fn compact_rejects_mismatched_virtual_pop_on_restore() {
    let donor = compact(1);
    let mut other = CompactGa::builder(Arc::new(OneMax::new(48)))
        .seed(1)
        .virtual_pop(127) // differs from the snapshot's 63
        .build()
        .expect("valid configuration");
    assert!(matches!(
        other.restore(&donor.snapshot()),
        Err(SnapshotError::Invalid(_))
    ));
    // Cross-family restore between the serial and sharded variants is a
    // typed WrongEngine, not a silent reinterpretation.
    let mut sharded = sharded_compact(1);
    assert!(matches!(
        sharded.restore(&donor.snapshot()),
        Err(SnapshotError::WrongEngine { .. })
    ));
}

#[test]
fn async_steady_rejects_wrong_engine_and_mismatched_cluster() {
    let sequential = onemax_ga(1);
    let mut engine = async_steady(2);
    assert!(matches!(
        engine.restore(&sequential.snapshot()),
        Err(SnapshotError::WrongEngine { .. })
    ));
    // Same engine family, different virtual node count: typed rejection.
    let other = {
        let cluster = ClusterSpec::homogeneous(3, NetworkProfile::FastEthernet).expect("valid");
        let cost = EvalCostModel::fixed(0.01).expect("valid cost model");
        AsyncSteadyStateGa::builder(Arc::new(OneMax::new(48)))
            .seed(2)
            .pop_size(24)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(48))
            .virtual_cluster(cluster, cost)
            .build()
            .expect("valid configuration")
    };
    assert!(matches!(
        engine.restore(&other.snapshot()),
        Err(SnapshotError::Invalid(_))
    ));
}

#[test]
fn corrupted_snapshot_bytes_are_rejected() {
    let ga = onemax_ga(1);
    let mut bytes = ga.snapshot().to_bytes();
    // Flip one payload bit; the word checksum catches every single-byte
    // change.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    assert_eq!(
        Snapshot::from_bytes(&bytes),
        Err(SnapshotError::ChecksumMismatch)
    );
}

#[test]
fn truncated_and_garbage_snapshots_are_rejected() {
    let bytes = onemax_ga(1).snapshot().to_bytes();
    assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    assert!(Snapshot::from_bytes(&[]).is_err());
    assert_eq!(
        Snapshot::from_bytes(b"not a snapshot at all"),
        Err(SnapshotError::BadHeader)
    );
}

#[test]
fn wrong_engine_snapshot_is_rejected_on_restore() {
    let sequential = onemax_ga(1);
    let mut cellular = CellularGa::builder(OneMax::new(48))
        .grid(6, 5)
        .seed(2)
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(48))
        .build()
        .expect("valid configuration");
    match cellular.restore(&sequential.snapshot()) {
        Err(SnapshotError::WrongEngine { expected, found }) => {
            assert_eq!(expected, cellular.engine_id());
            assert_eq!(found, sequential.engine_id());
        }
        other => panic!("expected WrongEngine, got {other:?}"),
    }
}

#[test]
fn mismatched_configuration_is_rejected_on_restore() {
    let big = onemax_ga(1);
    let mut small = GaBuilder::new(Arc::new(OneMax::new(48)))
        .seed(1)
        .pop_size(10) // differs from the snapshot's 30
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(48))
        .scheme(Scheme::Generational { elitism: 1 })
        .build()
        .expect("valid configuration");
    assert!(matches!(
        small.restore(&big.snapshot()),
        Err(SnapshotError::Invalid(_))
    ));
}
