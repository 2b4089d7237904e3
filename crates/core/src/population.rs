//! Populations and per-generation statistics.

use crate::individual::Individual;
use crate::problem::Objective;
use crate::repr::{BitString, Genome};

/// Summary statistics of an evaluated population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PopStats {
    /// Best fitness under the objective.
    pub best: f64,
    /// Worst fitness under the objective.
    pub worst: f64,
    /// Mean fitness.
    pub mean: f64,
    /// Population standard deviation of fitness.
    pub std_dev: f64,
}

/// An ordered collection of individuals.
///
/// The engine invariant is that all members are evaluated between steps;
/// freshly created offspring are evaluated before they enter the population.
///
/// Fitness values are mirrored into a contiguous `Vec<f64>` slab
/// (structure-of-arrays) so statistics, selection weights, and ranking scans
/// are cache-linear passes over plain floats instead of pointer-chasing
/// through `Individual`s. The slab is refreshed lazily: handing out
/// `members_mut()` marks it stale, and the next slab consumer rebuilds it.
/// Unevaluated members appear as NaN in the slab.
#[derive(Clone, Debug)]
pub struct Population<G> {
    members: Vec<Individual<G>>,
    fitness: Vec<f64>,
    fitness_stale: bool,
}

impl<G: Genome> Population<G> {
    /// Wraps a vector of individuals.
    #[must_use]
    pub fn new(members: Vec<Individual<G>>) -> Self {
        let fitness = members
            .iter()
            .map(|m| m.fitness.unwrap_or(f64::NAN))
            .collect();
        Self {
            members,
            fitness,
            fitness_stale: false,
        }
    }

    /// An empty population.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            members: Vec::new(),
            fitness: Vec::new(),
            fitness_stale: false,
        }
    }

    /// Member count.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no members exist.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Immutable member slice.
    #[inline]
    #[must_use]
    pub fn members(&self) -> &[Individual<G>] {
        &self.members
    }

    /// Mutable member slice. Marks the fitness slab stale — callers may
    /// re-evaluate members through it.
    #[inline]
    pub fn members_mut(&mut self) -> &mut [Individual<G>] {
        self.fitness_stale = true;
        &mut self.members
    }

    /// Consumes the population, yielding its members.
    #[must_use]
    pub fn into_members(self) -> Vec<Individual<G>> {
        self.members
    }

    /// Appends an individual.
    pub fn push(&mut self, ind: Individual<G>) {
        if !self.fitness_stale {
            self.fitness.push(ind.fitness.unwrap_or(f64::NAN));
        }
        self.members.push(ind);
    }

    /// Rebuilds the fitness slab from the members.
    pub fn refresh_fitness(&mut self) {
        self.fitness.clear();
        self.fitness
            .extend(self.members.iter().map(|m| m.fitness.unwrap_or(f64::NAN)));
        self.fitness_stale = false;
    }

    /// Contiguous fitness values, one per member in member order
    /// (NaN for unevaluated members). Refreshes the slab if stale.
    #[inline]
    pub fn fitness_slice(&mut self) -> &[f64] {
        if self.fitness_stale {
            self.refresh_fitness();
        }
        &self.fitness
    }

    /// The fitness slab if it is current, `None` when a `members_mut`
    /// borrow has made it stale. For immutable contexts; prefer
    /// [`fitness_slice`](Self::fitness_slice) where `&mut self` is available.
    #[inline]
    #[must_use]
    pub fn fitness_cached(&self) -> Option<&[f64]> {
        if self.fitness_stale {
            None
        } else {
            Some(&self.fitness)
        }
    }

    /// Swaps the member storage with `buf` (an arena owned by the caller)
    /// and refreshes the fitness slab. The previous members land in `buf`
    /// for reuse as the next generation's offspring arena.
    pub fn swap_members(&mut self, buf: &mut Vec<Individual<G>>) {
        std::mem::swap(&mut self.members, buf);
        self.refresh_fitness();
    }

    /// `true` when every member carries a cached fitness.
    #[must_use]
    pub fn all_evaluated(&self) -> bool {
        self.members.iter().all(Individual::is_evaluated)
    }

    /// Index of the best member under `objective`. Panics on an empty or
    /// unevaluated population.
    #[must_use]
    pub fn best_index(&self, objective: Objective) -> usize {
        self.extreme_index(objective, true)
    }

    /// Index of the worst member under `objective`.
    #[must_use]
    pub fn worst_index(&self, objective: Objective) -> usize {
        self.extreme_index(objective, false)
    }

    fn extreme_index(&self, objective: Objective, want_best: bool) -> usize {
        assert!(!self.members.is_empty(), "empty population");
        if let Some(fs) = self.fitness_cached() {
            let mut idx = 0;
            let mut val = fs[0];
            for (i, &f) in fs.iter().enumerate().skip(1) {
                let beats = objective.better(f, val);
                if beats == want_best && f != val {
                    idx = i;
                    val = f;
                }
            }
            return idx;
        }
        let mut idx = 0;
        let mut val = self.members[0].fitness();
        for (i, m) in self.members.iter().enumerate().skip(1) {
            let f = m.fitness();
            let beats = objective.better(f, val);
            if beats == want_best && f != val {
                idx = i;
                val = f;
            }
        }
        idx
    }

    /// Reference to the best member under `objective`.
    #[must_use]
    pub fn best(&self, objective: Objective) -> &Individual<G> {
        &self.members[self.best_index(objective)]
    }

    /// Fitness summary statistics. Panics on an empty population; a member
    /// that is unevaluated when the fitness slab is current surfaces as NaN
    /// in `mean`/`std_dev`, and panics otherwise.
    ///
    /// Single pass with Welford's online mean/variance — numerically stable
    /// on fitness scales where `sum-of-squares` accumulation cancels, and
    /// cache-linear over the slab when it is current.
    #[must_use]
    pub fn stats(&self, objective: Objective) -> PopStats {
        assert!(!self.members.is_empty(), "empty population");
        let welford = |fs: &mut dyn Iterator<Item = f64>| {
            let mut best = f64::NAN;
            let mut worst = f64::NAN;
            let mut mean = 0.0;
            let mut m2 = 0.0;
            let mut n = 0.0f64;
            for f in fs {
                if n == 0.0 {
                    best = f;
                    worst = f;
                }
                if objective.better(f, best) {
                    best = f;
                }
                if objective.better(worst, f) {
                    worst = f;
                }
                n += 1.0;
                let delta = f - mean;
                mean += delta / n;
                m2 += delta * (f - mean);
            }
            PopStats {
                best,
                worst,
                mean,
                std_dev: (m2 / n).sqrt(),
            }
        };
        match self.fitness_cached() {
            Some(fs) => welford(&mut fs.iter().copied()),
            None => welford(&mut self.members.iter().map(Individual::fitness)),
        }
    }

    /// Indices of the `k` best members (best first). `k` is clamped to the
    /// population size.
    #[must_use]
    pub fn top_k_indices(&self, objective: Objective, k: usize) -> Vec<usize> {
        let mut idx = Vec::new();
        self.top_k_indices_into(objective, k, &mut idx);
        idx
    }

    /// [`top_k_indices`](Self::top_k_indices) into a recycled buffer.
    ///
    /// Members are ranked by fitness, ties by index (lower first), so the
    /// order is total and a partial selection of the `k` best followed by
    /// a sort of just those equals a stable sort of the whole population
    /// truncated to `k`.
    pub fn top_k_indices_into(&self, objective: Objective, k: usize, out: &mut Vec<usize>) {
        out.clear();
        let k = k.min(self.members.len());
        if k == 0 {
            return;
        }
        out.extend(0..self.members.len());
        // NaN fitness ranks worst (consistent with `Objective::better`,
        // which never prefers NaN) instead of inheriting total_cmp's
        // NaN-above-infinity ordering.
        let key = |f: f64| {
            if f.is_nan() {
                objective.worst_value()
            } else {
                f
            }
        };
        let cached = self.fitness_cached();
        let fetch = |i: usize| match cached {
            Some(fs) => fs[i],
            None => self.members[i].fitness(),
        };
        let rank = |&a: &usize, &b: &usize| {
            let fa = key(fetch(a));
            let fb = key(fetch(b));
            match objective {
                Objective::Maximize => fb.total_cmp(&fa),
                Objective::Minimize => fa.total_cmp(&fb),
            }
            .then(a.cmp(&b))
        };
        if k < out.len() {
            out.select_nth_unstable_by(k - 1, rank);
            out.truncate(k);
        }
        out.sort_unstable_by(rank);
    }
}

impl Population<BitString> {
    /// Mean pairwise-independent diversity estimate for binary populations:
    /// average, over loci, of `2·p·(1−p)` where `p` is the frequency of ones
    /// at that locus. Ranges from 0 (converged) to 0.5 (maximal diversity).
    #[must_use]
    pub fn bit_diversity(&self) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let len = self.members[0].genome.len();
        if len == 0 {
            return 0.0;
        }
        let n = self.members.len() as f64;
        // One pass over the packed words per member: iterate set bits with
        // the clear-lowest trick instead of a per-locus `get` scan. Tail
        // bits beyond `len` are canonically zero, so no locus index escapes
        // the counts table.
        let mut counts = vec![0u32; len];
        for m in &self.members {
            for (wi, &word) in m.genome.words().iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    counts[wi * 64 + w.trailing_zeros() as usize] += 1;
                    w &= w - 1;
                }
            }
        }
        let mut acc = 0.0;
        for &ones in &counts {
            let p = f64::from(ones) / n;
            acc += 2.0 * p * (1.0 - p);
        }
        acc / len as f64
    }
}

impl<G: Genome> std::ops::Index<usize> for Population<G> {
    type Output = Individual<G>;
    fn index(&self, i: usize) -> &Individual<G> {
        &self.members[i]
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
    fn best_worst_maximize() {
        let p = pop(&[1.0, 5.0, 3.0]);
        assert_eq!(p.best_index(Objective::Maximize), 1);
        assert_eq!(p.worst_index(Objective::Maximize), 0);
    }

    #[test]
    fn best_worst_minimize() {
        let p = pop(&[1.0, 5.0, 3.0]);
        assert_eq!(p.best_index(Objective::Minimize), 0);
        assert_eq!(p.worst_index(Objective::Minimize), 1);
    }

    #[test]
    fn first_extreme_wins_ties() {
        let p = pop(&[2.0, 2.0, 1.0]);
        assert_eq!(p.best_index(Objective::Maximize), 0);
    }

    #[test]
    fn stats_are_correct() {
        let p = pop(&[1.0, 2.0, 3.0, 4.0]);
        let s = p.stats(Objective::Maximize);
        assert_eq!(s.best, 4.0);
        assert_eq!(s.worst, 1.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn top_k_sorted() {
        let p = pop(&[1.0, 5.0, 3.0, 4.0]);
        assert_eq!(p.top_k_indices(Objective::Maximize, 2), vec![1, 3]);
        assert_eq!(p.top_k_indices(Objective::Minimize, 3), vec![0, 2, 3]);
        assert_eq!(p.top_k_indices(Objective::Minimize, 99).len(), 4);
    }

    #[test]
    fn bit_diversity_extremes() {
        use crate::repr::BitString;
        let converged = Population::new(vec![Individual::evaluated(BitString::ones(32), 1.0); 8]);
        assert_eq!(converged.bit_diversity(), 0.0);

        let mut members = Vec::new();
        for i in 0..8 {
            let g = if i % 2 == 0 {
                BitString::ones(32)
            } else {
                BitString::zeros(32)
            };
            members.push(Individual::evaluated(g, 0.0));
        }
        let diverse = Population::new(members);
        assert!((diverse.bit_diversity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_evaluated_flag() {
        let mut p = pop(&[1.0]);
        assert!(p.all_evaluated());
        p.push(Individual::unevaluated(vec![0.0]));
        assert!(!p.all_evaluated());
    }
}
