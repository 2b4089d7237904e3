//! Replacement policies: how offspring (or immigrants) enter a population.

use crate::individual::Individual;
use crate::population::Population;
use crate::problem::Objective;
use crate::repr::Genome;
use crate::rng::Rng64;

/// Where an incoming (evaluated) individual lands in the population.
///
/// Used both by the steady-state engine for offspring and by the island
/// engine for immigrants, matching the policies studied by Alba & Troya
/// (2000) for the migration step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Always replace the current worst member.
    Worst,
    /// Replace the worst member only if the incomer is strictly better
    /// (elitist steady-state; never loses ground).
    WorstIfBetter,
    /// Replace a uniformly random member.
    Random,
    /// Replace a uniformly random member only if the incomer is better.
    RandomIfBetter,
}

impl ReplacementPolicy {
    /// Applies the policy; returns the replaced index, or `None` when the
    /// incomer was rejected. The incomer must already be evaluated. An
    /// accepted incomer is swapped into its slot, so `incomer` then holds
    /// the retired member; a rejected one stays where it was. Either way
    /// the caller may reuse its genome as the next child's buffer.
    pub fn insert<G: Genome>(
        self,
        pop: &mut Population<G>,
        incomer: &mut Individual<G>,
        objective: Objective,
        rng: &mut Rng64,
    ) -> Option<usize> {
        assert!(
            incomer.is_evaluated(),
            "replacement requires evaluated incomer"
        );
        assert!(!pop.is_empty(), "replacement into empty population");
        let target = match self {
            Self::Worst | Self::WorstIfBetter => pop.worst_index(objective),
            Self::Random | Self::RandomIfBetter => rng.below(pop.len()),
        };
        let conditional = matches!(self, Self::WorstIfBetter | Self::RandomIfBetter);
        if conditional && !objective.better(incomer.fitness(), pop.members()[target].fitness()) {
            return None;
        }
        std::mem::swap(&mut pop.members_mut()[target], incomer);
        Some(target)
    }

    /// Short name for harness tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Worst => "worst",
            Self::WorstIfBetter => "worst-if-better",
            Self::Random => "random",
            Self::RandomIfBetter => "random-if-better",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(fs: &[f64]) -> Population<Vec<f64>> {
        Population::new(
            fs.iter()
                .map(|&f| Individual::evaluated(vec![f], f))
                .collect(),
        )
    }

    #[test]
    fn worst_always_replaces() {
        let mut p = pop(&[3.0, 1.0, 2.0]);
        let mut rng = Rng64::new(0);
        let mut incomer = Individual::evaluated(vec![0.5], 0.5);
        let idx =
            ReplacementPolicy::Worst.insert(&mut p, &mut incomer, Objective::Maximize, &mut rng);
        assert_eq!(idx, Some(1));
        assert_eq!(p[1].fitness(), 0.5);
        // The retired member comes back in the incomer's place.
        assert_eq!(incomer.genome, vec![1.0]);
    }

    #[test]
    fn worst_if_better_rejects_worse() {
        let mut p = pop(&[3.0, 1.0, 2.0]);
        let mut rng = Rng64::new(0);
        let mut incomer = Individual::evaluated(vec![0.5], 0.5);
        let idx = ReplacementPolicy::WorstIfBetter.insert(
            &mut p,
            &mut incomer,
            Objective::Maximize,
            &mut rng,
        );
        assert_eq!(idx, None);
        assert_eq!(p[1].fitness(), 1.0);
        assert_eq!(incomer.genome, vec![0.5], "a rejected incomer stays put");
        let idx = ReplacementPolicy::WorstIfBetter.insert(
            &mut p,
            &mut Individual::evaluated(vec![9.0], 9.0),
            Objective::Maximize,
            &mut rng,
        );
        assert_eq!(idx, Some(1));
    }

    #[test]
    fn minimize_direction() {
        let mut p = pop(&[3.0, 1.0, 2.0]);
        let mut rng = Rng64::new(0);
        // Under minimize, 3.0 is worst.
        let idx = ReplacementPolicy::Worst.insert(
            &mut p,
            &mut Individual::evaluated(vec![0.1], 0.1),
            Objective::Minimize,
            &mut rng,
        );
        assert_eq!(idx, Some(0));
    }

    #[test]
    fn random_replaces_somewhere() {
        let mut p = pop(&[1.0, 2.0, 3.0, 4.0]);
        let mut rng = Rng64::new(7);
        let idx = ReplacementPolicy::Random
            .insert(
                &mut p,
                &mut Individual::evaluated(vec![-1.0], -1.0),
                Objective::Maximize,
                &mut rng,
            )
            .unwrap();
        assert!(idx < 4);
        assert_eq!(p[idx].fitness(), -1.0);
    }

    #[test]
    fn random_if_better_never_downgrades_much() {
        // Equal fitness is NOT better, so insertion must be rejected.
        let mut p = pop(&[2.0, 2.0]);
        let mut rng = Rng64::new(1);
        let idx = ReplacementPolicy::RandomIfBetter.insert(
            &mut p,
            &mut Individual::evaluated(vec![2.0], 2.0),
            Objective::Maximize,
            &mut rng,
        );
        assert_eq!(idx, None);
    }
}
