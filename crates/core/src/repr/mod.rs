//! Genome representations.
//!
//! The survey (§1.1) notes that chromosomes are "mostly represented as a
//! binary string [… but] there are more strings which are not necessarily of
//! a binary type". This module provides the four encodings exercised by the
//! surveyed literature:
//!
//! * [`BitString`] — packed binary strings (OneMax, traps, NK, MAXSAT, …);
//! * [`RealVector`] — bounded real vectors (Rastrigin, ARGA-style aerodynamic
//!   and spectral-estimation parameters);
//! * [`IntVector`] — bounded integer vectors (parameter grids, reactor-style
//!   discrete design variables);
//! * [`Permutation`] — permutations (TSP, scheduling).

mod bitstring;
mod intvec;
mod permutation;
mod realvec;

pub use bitstring::{bernoulli_word, BitString};
pub use intvec::IntVector;
pub use permutation::Permutation;
pub use realvec::{Bounds, RealVector};

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Trait for chromosome types.
///
/// A genome must be cheaply cloneable and sendable across threads: the island
/// engine moves genomes between demes through channels, and the master–slave
/// engine evaluates them on a rayon pool. It must also round-trip through the
/// snapshot format so any engine's population can be checkpointed and
/// resumed bit-identically.
pub trait Genome: Clone + Send + Sync + 'static {
    /// Serializes the genome into a snapshot payload. Every encoding takes
    /// at least one byte: decoders bound a claimed genome count by the
    /// bytes left (see [`SnapshotReader::take_count`]).
    fn encode(&self, w: &mut SnapshotWriter);

    /// Deserializes a genome written by [`Genome::encode`], validating
    /// structural invariants (bounds, permutation closure) so corrupted
    /// payloads are rejected instead of panicking.
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>
    where
        Self: Sized;
}

impl Genome for BitString {
    fn encode(&self, w: &mut SnapshotWriter) {
        // The in-memory layout is already the wire layout (canonical
        // LSB-first words), so the payload streams straight out.
        w.put_usize(self.len());
        for &word in self.words() {
            w.put_u64(word);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let n_words = len.div_ceil(64);
        r.check_room(n_words, 8)?;
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(r.take_u64()?);
        }
        // `from_words` re-masks the tail, matching the old decoder's
        // tolerance of non-canonical payloads.
        Ok(BitString::from_words(words, len))
    }
}

impl Genome for RealVector {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.values().len());
        for &v in self.values() {
            w.put_f64(v);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let mut values = Vec::new();
        for _ in 0..len {
            values.push(r.take_f64()?);
        }
        Ok(RealVector::new(values))
    }
}

impl Genome for IntVector {
    fn encode(&self, w: &mut SnapshotWriter) {
        let (lo, hi) = self.bounds();
        w.put_i64(lo);
        w.put_i64(hi);
        w.put_usize(self.values().len());
        for &v in self.values() {
            w.put_i64(v);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let lo = r.take_i64()?;
        let hi = r.take_i64()?;
        if lo > hi {
            return Err(SnapshotError::Invalid(format!(
                "IntVector bounds inverted: [{lo}, {hi}]"
            )));
        }
        let len = r.take_usize()?;
        let mut values = Vec::new();
        for _ in 0..len {
            let v = r.take_i64()?;
            if !(lo..=hi).contains(&v) {
                return Err(SnapshotError::Invalid(format!(
                    "IntVector gene {v} outside [{lo}, {hi}]"
                )));
            }
            values.push(v);
        }
        Ok(IntVector::new(values, lo, hi))
    }
}

impl Genome for Permutation {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for &v in self.order() {
            w.put_u64(u64::from(v));
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_count(8)?;
        let mut order = Vec::with_capacity(len);
        let mut seen = vec![false; len];
        for _ in 0..len {
            let v = r.take_u64()?;
            let i = usize::try_from(v)
                .ok()
                .filter(|&i| i < len)
                .ok_or_else(|| {
                    SnapshotError::Invalid(format!("Permutation value {v} out of 0..{len}"))
                })?;
            if std::mem::replace(&mut seen[i], true) {
                return Err(SnapshotError::Invalid(format!(
                    "Permutation repeats value {i}"
                )));
            }
            order.push(v as u32);
        }
        Ok(Permutation::new(order))
    }
}

impl Genome for Vec<f64> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for &v in self {
            w.put_f64(v);
        }
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.take_usize()?;
        let mut values = Vec::new();
        for _ in 0..len {
            values.push(r.take_f64()?);
        }
        Ok(values)
    }
}

impl Genome for Vec<u8> {
    fn encode(&self, w: &mut SnapshotWriter) {
        w.put_bytes(self);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_bytes()?.to_vec())
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::rng::Rng64;

    fn roundtrip<G: Genome + PartialEq + std::fmt::Debug>(g: &G) {
        let mut w = SnapshotWriter::new();
        g.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let back = G::decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");
        assert_eq!(&back, g);
    }

    #[test]
    fn all_representations_roundtrip() {
        let mut rng = Rng64::new(5);
        roundtrip(&BitString::random(97, &mut rng));
        roundtrip(&BitString::zeros(0));
        roundtrip(&RealVector::new(vec![1.5, -0.0, f64::MAX]));
        roundtrip(&IntVector::new(vec![3, -2, 7], -5, 10));
        roundtrip(&Permutation::random(31, &mut rng));
        roundtrip(&vec![0.25f64, 4.0]);
        roundtrip(&vec![1u8, 2, 3]);
    }

    #[test]
    fn corrupted_permutation_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_usize(3);
        for v in [0u64, 1, 1] {
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        let err = Permutation::decode(&mut SnapshotReader::new(&bytes));
        assert!(matches!(err, Err(SnapshotError::Invalid(_))));
    }

    #[test]
    fn out_of_bounds_int_gene_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_i64(0);
        w.put_i64(5);
        w.put_usize(1);
        w.put_i64(9);
        let bytes = w.into_bytes();
        let err = IntVector::decode(&mut SnapshotReader::new(&bytes));
        assert!(matches!(err, Err(SnapshotError::Invalid(_))));
    }
}
