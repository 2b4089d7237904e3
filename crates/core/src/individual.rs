//! A genome paired with its (cached) fitness.

use crate::repr::Genome;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// One member of a population.
///
/// Fitness is `None` until an [`Evaluator`](crate::eval::Evaluator) fills it
/// in; engines never evaluate the same genome twice. Migrants travel between
/// islands as whole `Individual`s so their fitness survives the move.
#[derive(Debug, PartialEq)]
pub struct Individual<G> {
    /// The chromosome.
    pub genome: G,
    /// Cached fitness; `None` for freshly created offspring.
    pub fitness: Option<f64>,
}

impl<G: Clone> Clone for Individual<G> {
    fn clone(&self) -> Self {
        Self {
            genome: self.genome.clone(),
            fitness: self.fitness,
        }
    }

    /// Copies through the genome's own `clone_from`, so a recycled member
    /// keeps its buffers.
    fn clone_from(&mut self, source: &Self) {
        self.genome.clone_from(&source.genome);
        self.fitness = source.fitness;
    }
}

impl<G> Individual<G> {
    /// A not-yet-evaluated individual.
    #[must_use]
    pub fn unevaluated(genome: G) -> Self {
        Self {
            genome,
            fitness: None,
        }
    }

    /// An individual with known fitness.
    #[must_use]
    pub fn evaluated(genome: G, fitness: f64) -> Self {
        Self {
            genome,
            fitness: Some(fitness),
        }
    }

    /// Cached fitness; panics when not yet evaluated.
    ///
    /// Engines uphold the invariant that selection and replacement only ever
    /// see evaluated individuals, so a panic here is an engine bug rather
    /// than a user error.
    #[inline]
    #[must_use]
    pub fn fitness(&self) -> f64 {
        self.fitness
            .expect("individual used before fitness evaluation")
    }

    /// `true` once fitness is cached.
    #[inline]
    #[must_use]
    pub fn is_evaluated(&self) -> bool {
        self.fitness.is_some()
    }

    /// Clears the fitness cache (after in-place genome modification).
    #[inline]
    pub fn invalidate(&mut self) {
        self.fitness = None;
    }
}

impl<G: Genome> Individual<G> {
    /// Appends the genome and the cached fitness to a snapshot payload.
    pub fn encode(&self, w: &mut SnapshotWriter) {
        self.genome.encode(w);
        w.put_opt_f64(self.fitness);
    }

    /// Reads an individual written by [`encode`](Self::encode).
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let genome = G::decode(r)?;
        let fitness = r.take_opt_f64()?;
        Ok(Self { genome, fitness })
    }

    /// Appends a member count, then every member.
    pub fn encode_all(members: &[Self], w: &mut SnapshotWriter) {
        w.put_usize(members.len());
        for member in members {
            member.encode(w);
        }
    }

    /// Reads members written by [`encode_all`](Self::encode_all),
    /// refusing any count but the engine's own `len`.
    pub fn decode_all(r: &mut SnapshotReader<'_>, len: usize) -> Result<Vec<Self>, SnapshotError> {
        let count = r.take_count(1)?;
        if count != len {
            return Err(SnapshotError::Invalid(format!(
                "snapshot holds {count} members, the engine has {len}"
            )));
        }
        (0..count).map(|_| Self::decode(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut ind = Individual::unevaluated(vec![1.0, 2.0]);
        assert!(!ind.is_evaluated());
        ind.fitness = Some(3.5);
        assert!(ind.is_evaluated());
        assert_eq!(ind.fitness(), 3.5);
        ind.invalidate();
        assert!(!ind.is_evaluated());
    }

    #[test]
    #[should_panic(expected = "before fitness evaluation")]
    fn fitness_before_eval_panics() {
        let _ = Individual::unevaluated(0u8).fitness();
    }

    #[test]
    fn evaluated_constructor() {
        let ind = Individual::evaluated(7u8, 1.0);
        assert_eq!(ind.fitness(), 1.0);
        assert_eq!(ind.genome, 7);
    }
}
