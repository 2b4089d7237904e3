//! Snapshot bytes are a trust boundary: a checkpoint read back from disk
//! or the wire may be damaged in any way, and decoding it must give a
//! typed [`SnapshotError`], never a panic and never a snapshot.
//!
//! [`assert_every_flip_and_truncation_is_typed`] is the check, written to
//! take any serialized snapshot; the test feeds it a real checkpoint of
//! every wire family of the job server. Families are enumerated from
//! `Registries::builtin()`, so a newly registered family fails here until
//! it is given a spec below.

use std::panic::{catch_unwind, AssertUnwindSafe};

use parallel_ga::core::{Snapshot, SnapshotError};
use parallel_ga::serve::{build_engine, Budget, EngineSpec, JobSpec, ProblemSpec, Registries};

/// Bytes of the PGAS header checked before the checksum: magic, version.
const HEADER: usize = 5;

/// Decodes `bytes`, turning a panic into a test failure naming `what`.
fn decode(bytes: &[u8], what: &str) -> Result<Snapshot, SnapshotError> {
    catch_unwind(AssertUnwindSafe(|| Snapshot::from_bytes(bytes)))
        .unwrap_or_else(|_| panic!("{what}: decoding panicked"))
}

/// Requires every single-byte flip of `bytes` (a `Snapshot::to_bytes`
/// output) to fail with [`SnapshotError::BadHeader`] inside the magic and
/// version, and with [`SnapshotError::ChecksumMismatch`] anywhere after
/// them; and every truncation to fail with some typed error. Nothing may
/// panic.
fn assert_every_flip_and_truncation_is_typed(label: &str, bytes: &[u8]) {
    assert!(decode(bytes, label).is_ok(), "{label}: intact bytes decode");
    let mut flipped = bytes.to_vec();
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xff] {
            flipped[at] ^= mask;
            let what = format!("{label}: flip {mask:#04x} at byte {at}");
            let expected = if at < HEADER {
                SnapshotError::BadHeader
            } else {
                SnapshotError::ChecksumMismatch
            };
            assert_eq!(decode(&flipped, &what).err(), Some(expected), "{what}");
            flipped[at] ^= mask;
        }
    }
    for keep in 0..bytes.len() {
        let what = format!("{label}: truncated to {keep} bytes");
        assert!(decode(&bytes[..keep], &what).is_err(), "{what}");
    }
}

/// A small spec of `family`.
fn spec(family: &str, seed: u64) -> JobSpec {
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
        problem: ProblemSpec::onemax(40),
        engine,
        seed,
        budget: Budget {
            generations: Some(20),
            ..Budget::default()
        },
    }
}

#[test]
fn every_byte_flip_and_truncation_of_a_family_checkpoint_is_a_typed_error() {
    for family in Registries::builtin().families.names() {
        let mut engine = build_engine(&spec(family, 5), None).expect("spec builds");
        // A checkpoint taken mid-run, not the freshly seeded state.
        for _ in 0..3 {
            engine.step();
        }
        let bytes = engine.snapshot().to_bytes();
        assert_every_flip_and_truncation_is_typed(family, &bytes);
    }
}
