//! Mutation operators for each genome representation.

use crate::repr::{BitString, Bounds, IntVector, Permutation, RealVector};
use crate::rng::Rng64;

/// A mutation operator modifying a genome in place.
pub trait Mutation<G>: Send + Sync {
    /// Mutates `genome` in place.
    fn mutate(&self, genome: &mut G, rng: &mut Rng64);

    /// Operator name for harness tables.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Binary
// ---------------------------------------------------------------------------

/// Independent per-bit flip mutation with probability `p` per locus.
///
/// The classical setting is `p = 1/len`, which [`BitFlip::one_over_len`]
/// computes for you. The sparse regime's `ln(1 − p)` is computed once,
/// here, rather than on every mutated genome.
#[derive(Clone, Copy, Debug)]
pub struct BitFlip {
    p: f64,
    ln_keep: f64,
}

impl BitFlip {
    /// Flips each bit independently with probability `p`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        Self {
            p,
            ln_keep: (-p).ln_1p(),
        }
    }

    /// The canonical rate `1/len`.
    #[must_use]
    pub fn one_over_len(len: usize) -> Self {
        Self::new(1.0 / len.max(1) as f64)
    }

    /// Per-bit flip probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Mutation<BitString> for BitFlip {
    fn mutate(&self, genome: &mut BitString, rng: &mut Rng64) {
        // Two-regime word kernel: geometric gap sampling when p·64 is small
        // (cost scales with the number of flips, the p = 1/len regime),
        // dense per-word Bernoulli masks otherwise. The scalar loop is
        // retained as `ops::scalar::ScalarBitFlip`.
        genome.flip_bernoulli(self.p, self.ln_keep, rng);
    }

    fn name(&self) -> &'static str {
        "bit-flip"
    }
}

// ---------------------------------------------------------------------------
// Real-coded
// ---------------------------------------------------------------------------

/// Gaussian creep mutation: each gene is perturbed by `N(0, σ)` with
/// probability `p`, then clamped to the bounds.
#[derive(Clone, Debug)]
pub struct GaussianMutation {
    /// Per-gene mutation probability.
    pub p: f64,
    /// Perturbation standard deviation (absolute units).
    pub sigma: f64,
    /// Box constraints used for clamping.
    pub bounds: Bounds,
}

impl Mutation<RealVector> for GaussianMutation {
    fn mutate(&self, genome: &mut RealVector, rng: &mut Rng64) {
        for i in 0..genome.len() {
            if rng.chance(self.p) {
                let v = genome.values()[i] + rng.gaussian_with(0.0, self.sigma);
                genome.values_mut()[i] = self.bounds.clamp(i, v);
            }
        }
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

/// Uniform-reset mutation: with probability `p`, a gene is redrawn uniformly
/// from its interval.
#[derive(Clone, Debug)]
pub struct UniformReset {
    /// Per-gene reset probability.
    pub p: f64,
    /// Box constraints defining the reset intervals.
    pub bounds: Bounds,
}

impl Mutation<RealVector> for UniformReset {
    fn mutate(&self, genome: &mut RealVector, rng: &mut Rng64) {
        for i in 0..genome.len() {
            if rng.chance(self.p) {
                let (lo, hi) = self.bounds.interval(i);
                genome.values_mut()[i] = rng.range_f64(lo, hi);
            }
        }
    }

    fn name(&self) -> &'static str {
        "uniform-reset"
    }
}

/// Polynomial mutation (Deb 1996) with distribution index `eta`; standard in
/// real-coded and multiobjective GAs.
#[derive(Clone, Debug)]
pub struct Polynomial {
    /// Per-gene mutation probability.
    pub p: f64,
    /// Distribution index (typically 20).
    pub eta: f64,
    /// Box constraints.
    pub bounds: Bounds,
}

impl Mutation<RealVector> for Polynomial {
    fn mutate(&self, genome: &mut RealVector, rng: &mut Rng64) {
        for i in 0..genome.len() {
            if !rng.chance(self.p) {
                continue;
            }
            let (lo, hi) = self.bounds.interval(i);
            let span = hi - lo;
            if span <= 0.0 {
                continue;
            }
            let x = genome.values()[i];
            let d1 = (x - lo) / span;
            let d2 = (hi - x) / span;
            let u = rng.next_f64();
            let pow = 1.0 / (self.eta + 1.0);
            let delta = if u < 0.5 {
                let b = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1).powf(self.eta + 1.0);
                b.powf(pow) - 1.0
            } else {
                let b = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2).powf(self.eta + 1.0);
                1.0 - b.powf(pow)
            };
            genome.values_mut()[i] = self.bounds.clamp(i, x + delta * span);
        }
    }

    fn name(&self) -> &'static str {
        "polynomial"
    }
}

// ---------------------------------------------------------------------------
// Integer
// ---------------------------------------------------------------------------

/// Integer reset mutation: with probability `p`, a gene is redrawn uniformly
/// from the genome's bounds.
#[derive(Clone, Copy, Debug)]
pub struct IntReset {
    /// Per-gene reset probability.
    pub p: f64,
}

impl Mutation<IntVector> for IntReset {
    fn mutate(&self, genome: &mut IntVector, rng: &mut Rng64) {
        for i in 0..genome.len() {
            if rng.chance(self.p) {
                genome.reset_gene(i, rng);
            }
        }
    }

    fn name(&self) -> &'static str {
        "int-reset"
    }
}

/// Integer creep mutation: with probability `p`, a gene moves ±`step`
/// (uniform sign), clamped to bounds.
#[derive(Clone, Copy, Debug)]
pub struct IntCreep {
    /// Per-gene mutation probability.
    pub p: f64,
    /// Maximum absolute step size (step drawn uniformly from `1..=max_step`).
    pub max_step: i64,
}

impl Mutation<IntVector> for IntCreep {
    fn mutate(&self, genome: &mut IntVector, rng: &mut Rng64) {
        assert!(self.max_step >= 1, "IntCreep requires max_step >= 1");
        for i in 0..genome.len() {
            if rng.chance(self.p) {
                let step = 1 + (rng.next_u64() % self.max_step as u64) as i64;
                let signed = if rng.coin() { step } else { -step };
                let v = genome.values()[i] + signed;
                genome.set_clamped(i, v);
            }
        }
    }

    fn name(&self) -> &'static str {
        "int-creep"
    }
}

// ---------------------------------------------------------------------------
// Permutation
// ---------------------------------------------------------------------------

/// Swap mutation: exchanges two random positions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Swap;

impl Mutation<Permutation> for Swap {
    fn mutate(&self, genome: &mut Permutation, rng: &mut Rng64) {
        if genome.len() < 2 {
            return;
        }
        let (i, j) = rng.two_distinct(genome.len());
        genome.order_mut().swap(i, j);
        debug_assert!(genome.is_valid());
    }

    fn name(&self) -> &'static str {
        "swap"
    }
}

/// Insertion mutation: removes one element and reinserts it elsewhere.
#[derive(Clone, Copy, Debug, Default)]
pub struct Insertion;

impl Mutation<Permutation> for Insertion {
    fn mutate(&self, genome: &mut Permutation, rng: &mut Rng64) {
        let n = genome.len();
        if n < 2 {
            return;
        }
        let (from, to) = rng.two_distinct(n);
        let order = genome.order_mut();
        let v = order[from];
        if from < to {
            order.copy_within(from + 1..=to, from);
        } else {
            order.copy_within(to..from, to + 1);
        }
        order[to] = v;
        debug_assert!(genome.is_valid());
    }

    fn name(&self) -> &'static str {
        "insertion"
    }
}

/// Inversion (2-opt style) mutation: reverses a random segment. The natural
/// neighborhood move for tour-length problems.
#[derive(Clone, Copy, Debug, Default)]
pub struct Inversion;

impl Mutation<Permutation> for Inversion {
    fn mutate(&self, genome: &mut Permutation, rng: &mut Rng64) {
        let n = genome.len();
        if n < 2 {
            return;
        }
        let (x, y) = rng.two_distinct(n);
        let (lo, hi) = (x.min(y), x.max(y));
        genome.order_mut()[lo..=hi].reverse();
        debug_assert!(genome.is_valid());
    }

    fn name(&self) -> &'static str {
        "inversion"
    }
}

/// Scramble mutation: shuffles a random segment.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scramble;

impl Mutation<Permutation> for Scramble {
    fn mutate(&self, genome: &mut Permutation, rng: &mut Rng64) {
        let n = genome.len();
        if n < 2 {
            return;
        }
        let (x, y) = rng.two_distinct(n);
        let (lo, hi) = (x.min(y), x.max(y));
        rng.shuffle(&mut genome.order_mut()[lo..=hi]);
        debug_assert!(genome.is_valid());
    }

    fn name(&self) -> &'static str {
        "scramble"
    }
}

/// No-op mutation, useful as a control arm in ablations.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMutation;

impl<G: crate::repr::Genome> Mutation<G> for NoMutation {
    fn mutate(&self, _genome: &mut G, _rng: &mut Rng64) {}

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng64 {
        Rng64::new(777)
    }

    #[test]
    fn bitflip_rate_statistics() {
        let mut r = rng();
        let mut flips = 0usize;
        let trials = 500;
        let len = 100;
        for _ in 0..trials {
            let mut g = BitString::zeros(len);
            BitFlip::new(0.05).mutate(&mut g, &mut r);
            flips += g.count_ones();
        }
        let rate = flips as f64 / (trials * len) as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bitflip_zero_and_one() {
        let mut r = rng();
        let mut g = BitString::zeros(64);
        BitFlip::new(0.0).mutate(&mut g, &mut r);
        assert_eq!(g.count_ones(), 0);
        BitFlip::new(1.0).mutate(&mut g, &mut r);
        assert_eq!(g.count_ones(), 64);
    }

    #[test]
    fn gaussian_respects_bounds() {
        let mut r = rng();
        let bounds = Bounds::uniform(-1.0, 1.0, 10);
        let op = GaussianMutation {
            p: 1.0,
            sigma: 10.0,
            bounds: bounds.clone(),
        };
        for _ in 0..100 {
            let mut g = bounds.sample(&mut r);
            op.mutate(&mut g, &mut r);
            assert!(bounds.contains(&g));
        }
    }

    #[test]
    fn polynomial_respects_bounds_and_is_local() {
        let mut r = rng();
        let bounds = Bounds::uniform(0.0, 1.0, 1);
        let op = Polynomial {
            p: 1.0,
            eta: 20.0,
            bounds: bounds.clone(),
        };
        let mut total_move = 0.0;
        for _ in 0..1000 {
            let mut g = RealVector::new(vec![0.5]);
            op.mutate(&mut g, &mut r);
            assert!(bounds.contains(&g));
            total_move += (g[0] - 0.5).abs();
        }
        // eta=20 keeps moves small: average displacement well under 0.1.
        assert!(total_move / 1000.0 < 0.1);
    }

    #[test]
    fn uniform_reset_redraws_in_interval() {
        let mut r = rng();
        let bounds = Bounds::per_dim(vec![(0.0, 1.0), (5.0, 6.0)]);
        let op = UniformReset {
            p: 1.0,
            bounds: bounds.clone(),
        };
        let mut g = RealVector::new(vec![0.5, 5.5]);
        op.mutate(&mut g, &mut r);
        assert!(bounds.contains(&g));
    }

    #[test]
    fn int_ops_respect_bounds() {
        let mut r = rng();
        for _ in 0..200 {
            let mut g = IntVector::random(20, -5, 5, &mut r);
            IntReset { p: 0.5 }.mutate(&mut g, &mut r);
            assert!(g.in_bounds());
            IntCreep {
                p: 1.0,
                max_step: 20,
            }
            .mutate(&mut g, &mut r);
            assert!(g.in_bounds());
        }
    }

    #[test]
    fn permutation_mutations_preserve_closure() {
        let mut r = rng();
        let ops: Vec<Box<dyn Mutation<Permutation>>> = vec![
            Box::new(Swap),
            Box::new(Insertion),
            Box::new(Inversion),
            Box::new(Scramble),
        ];
        for op in &ops {
            for n in [2usize, 3, 10, 63] {
                for _ in 0..100 {
                    let mut g = Permutation::random(n, &mut r);
                    op.mutate(&mut g, &mut r);
                    assert!(g.is_valid(), "{} n={n}", op.name());
                }
            }
        }
    }

    #[test]
    fn swap_changes_exactly_two_positions() {
        let mut r = rng();
        let orig = Permutation::random(30, &mut r);
        let mut g = orig.clone();
        Swap.mutate(&mut g, &mut r);
        assert_eq!(orig.mismatch_distance(&g), 2);
    }

    #[test]
    fn insertion_moves_one_element() {
        let mut r = rng();
        for _ in 0..100 {
            let orig = Permutation::random(12, &mut r);
            let mut g = orig.clone();
            Insertion.mutate(&mut g, &mut r);
            assert!(g.is_valid());
            // Relative order of all elements except one must be preserved:
            // removing the moved element from both yields equal sequences.
            let moved: Vec<u32> = (0..12u32)
                .filter(|&v| {
                    let po = orig.position_of(v).unwrap();
                    let pg = g.position_of(v).unwrap();
                    po != pg
                })
                .collect();
            if moved.is_empty() {
                continue; // adjacent move landed back
            }
            // Try each candidate as "the moved one".
            let ok = moved.iter().any(|&cand| {
                let a: Vec<u32> = orig
                    .order()
                    .iter()
                    .copied()
                    .filter(|&v| v != cand)
                    .collect();
                let b: Vec<u32> = g.order().iter().copied().filter(|&v| v != cand).collect();
                a == b
            });
            assert!(ok, "insertion moved more than one element");
        }
    }

    #[test]
    fn inversion_reverses_a_segment() {
        let mut r = rng();
        let orig = Permutation::identity(20);
        let mut g = orig.clone();
        Inversion.mutate(&mut g, &mut r);
        // Find the changed window and verify it is reversed.
        let lo = (0..20).find(|&i| g.order()[i] != i as u32).unwrap();
        let hi = (0..20).rfind(|&i| g.order()[i] != i as u32).unwrap();
        for k in lo..=hi {
            assert_eq!(g.order()[k], (hi + lo - k) as u32);
        }
    }

    #[test]
    fn tiny_permutations_are_safe() {
        let mut r = rng();
        {
            let op = &Swap as &dyn Mutation<Permutation>;
            let mut g = Permutation::identity(1);
            op.mutate(&mut g, &mut r);
            assert!(g.is_valid());
            let mut g = Permutation::identity(0);
            op.mutate(&mut g, &mut r);
            assert!(g.is_valid());
        }
    }
}
