//! A snapshot is untrusted input: a count field claiming more items than
//! the payload can hold must come back as a typed `SnapshotError`, never
//! as an allocation of that many items. An allocation that large aborts
//! the process, which neither `catch_unwind` nor the job server's slice
//! isolation can contain.
//!
//! One case per decoder that sizes a buffer from a count. Each case takes
//! a real snapshot, checks that the count sits where the format puts it,
//! overwrites it with a count of 2^60 and restores.

use parallel_ga::compact::CompactGa;
use parallel_ga::core::ops::ReplacementPolicy;
use parallel_ga::core::ops::{BitFlip, BlxAlpha, GaussianMutation, OnePoint, Tournament};
use parallel_ga::core::{
    BitString, Bounds, Engine, GaBuilder, Genome, Permutation, Scheme, Snapshot, SnapshotError,
    SnapshotReader, SnapshotWriter,
};
use parallel_ga::hierarchical::{BlurredFidelity, Hga, HgaConfig, LevelView};
use parallel_ga::island::{Archipelago, EmigrantSelection, MigrationPolicy, SyncMode};
use parallel_ga::master_slave::AsyncSteadyStateGa;
use parallel_ga::problems::{OneMax, RealFunction, RealProblem};
use parallel_ga::topology::Topology;
use std::sync::Arc;

const HUGE: u64 = 1 << 60;

fn u64_at(payload: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(payload[offset..offset + 8].try_into().unwrap())
}

/// `snapshot` with the u64 at `offset` replaced by [`HUGE`], after
/// checking that it currently holds `expected`.
fn with_huge_count(snapshot: &Snapshot, offset: usize, expected: u64) -> Snapshot {
    let mut payload = snapshot.payload().to_vec();
    assert_eq!(
        u64_at(&payload, offset),
        expected,
        "the {} format moved its count field",
        snapshot.engine_tag()
    );
    payload[offset..offset + 8].copy_from_slice(&HUGE.to_le_bytes());
    Snapshot::new(snapshot.engine_tag(), payload)
}

fn assert_truncated(result: Result<(), SnapshotError>) {
    assert!(
        matches!(result, Err(SnapshotError::Truncated)),
        "expected Truncated, got {result:?}"
    );
}

#[test]
fn bit_string_with_a_huge_length_is_rejected() {
    let mut w = SnapshotWriter::new();
    w.put_u64(HUGE);
    w.put_u64(0);
    let bytes = w.into_bytes();
    let err = BitString::decode(&mut SnapshotReader::new(&bytes)).unwrap_err();
    assert_eq!(err, SnapshotError::Truncated);
}

#[test]
fn permutation_with_a_huge_length_is_rejected() {
    let mut w = SnapshotWriter::new();
    w.put_u64(HUGE);
    w.put_u64(0);
    let bytes = w.into_bytes();
    let err = Permutation::decode(&mut SnapshotReader::new(&bytes)).unwrap_err();
    assert_eq!(err, SnapshotError::Truncated);
}

#[test]
fn compact_ga_with_a_huge_probability_vector_is_rejected() {
    let make = || {
        CompactGa::builder(Arc::new(OneMax::new(48)))
            .seed(3)
            .virtual_pop(31)
            .build()
            .unwrap()
    };
    let mut engine = make();
    engine.step();
    let snapshot = engine.snapshot();
    // The vector is the payload's tail: its length, then 48 f64 loci.
    let offset = snapshot.payload().len() - 8 * 48 - 8;
    let crafted = with_huge_count(&snapshot, offset, 48);
    assert_truncated(make().restore(&crafted));
}

#[test]
fn hga_with_a_huge_trajectory_is_rejected() {
    let make = || {
        let problem = Arc::new(BlurredFidelity::new(
            RealProblem::new(RealFunction::Sphere, 4),
            2,
            0.1,
            4.0,
        ));
        Hga::new(
            problem,
            HgaConfig::default(),
            3,
            |view: LevelView<_>, seed| {
                let bounds = Bounds::uniform(-5.12, 5.12, 4);
                GaBuilder::new(view)
                    .seed(seed)
                    .pop_size(8)
                    .selection(Tournament::binary())
                    .crossover(BlxAlpha::new(bounds.clone()))
                    .mutation(GaussianMutation {
                        p: 0.25,
                        sigma: 0.3,
                        bounds,
                    })
                    .scheme(Scheme::Generational { elitism: 1 })
                    .build()
                    .unwrap()
            },
        )
        .unwrap()
    };
    let mut engine = make();
    engine.step();
    let snapshot = engine.snapshot();
    let payload = snapshot.payload();
    // cost, epochs, stagnant epochs, then an optional best (flag + f64).
    let mut offset = 24 + if payload[24] == 1 { 9 } else { 1 };
    // Per-island evaluation charges, then the trajectory, then the
    // island count again (ahead of the nested island snapshots).
    let islands = u64_at(payload, offset);
    offset += 8 + 8 * islands as usize;
    let points = u64_at(payload, offset);
    assert!(points > 0, "one step records a trajectory point");
    assert_eq!(u64_at(payload, offset + 8 + 16 * points as usize), islands);
    let crafted = with_huge_count(&snapshot, offset, points);
    assert_truncated(make().restore(&crafted));
}

#[test]
fn overlap_archipelago_with_a_huge_inbox_is_rejected() {
    let make = || {
        let problem = Arc::new(OneMax::new(32));
        let islands = (0..3)
            .map(|i| {
                GaBuilder::new(Arc::clone(&problem))
                    .seed(40 + i)
                    .pop_size(10)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(32))
                    .scheme(Scheme::Generational { elitism: 1 })
                    .build()
                    .unwrap()
            })
            .collect();
        let policy = MigrationPolicy {
            interval: 4,
            count: 2,
            emigrant: EmigrantSelection::Best,
            replacement: ReplacementPolicy::WorstIfBetter,
            sync: SyncMode::Overlap,
        };
        Archipelago::new(islands, Topology::RingUni, policy).unwrap()
    };
    let mut engine = make();
    engine.step();
    let snapshot = engine.snapshot();
    // Away from an epoch boundary every inbox is empty: the payload ends
    // with one zero count per island.
    let offset = snapshot.payload().len() - 3 * 8;
    let crafted = with_huge_count(&snapshot, offset, 0);
    assert_truncated(make().restore(&crafted));
}

#[test]
fn threaded_async_steady_with_a_huge_backlog_is_rejected() {
    let make = || {
        AsyncSteadyStateGa::builder(Arc::new(OneMax::new(48)))
            .seed(5)
            .pop_size(8)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(48))
            .threads(1)
            .build()
            .unwrap()
    };
    let snapshot = make().snapshot();
    let payload = snapshot.payload();
    // The payload ends with the threaded backend tag (1), the backlog
    // count, and that many 48-bit genomes (length + one word each).
    let genome_bytes = 16;
    let (offset, count) = (0..=8)
        .map(|c| (payload.len() - c * genome_bytes - 8, c as u64))
        .find(|&(o, c)| payload[o - 1] == 1 && u64_at(payload, o) == c)
        .expect("a threaded backlog at the payload's tail");
    let crafted = with_huge_count(&snapshot, offset, count);
    assert_truncated(make().restore(&crafted));
}
