//! Property-based tests for operator and representation invariants.

use pga_core::ops::crossover::{Crossover, Cx, OnePoint, Ox, Pmx, TwoPoint, Uniform};
use pga_core::ops::mutation::{
    BitFlip, GaussianMutation, Insertion, Inversion, Mutation, Polynomial, Scramble, Swap,
};
use pga_core::ops::selection::{LinearRank, Roulette, Selection, Sus, Tournament, Truncation};
use pga_core::{
    BitString, Bounds, Individual, Objective, Permutation, Population, RealVector, Rng64,
};
use proptest::prelude::*;

fn arb_seed() -> impl Strategy<Value = u64> {
    any::<u64>()
}

proptest! {
    // ---- RNG ----

    #[test]
    fn rng_below_always_in_range(seed in arb_seed(), n in 1usize..10_000) {
        let mut rng = Rng64::new(seed);
        for _ in 0..64 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn rng_sample_distinct_is_distinct(seed in arb_seed(), n in 1usize..200, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = Rng64::new(seed);
        let s = rng.sample_distinct(n, k);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), s.len());
    }

    // ---- BitString ----

    #[test]
    fn bitstring_canonical_after_ops(seed in arb_seed(), len in 1usize..300) {
        let mut rng = Rng64::new(seed);
        let mut s = BitString::random(len, &mut rng);
        for _ in 0..16 {
            s.flip(rng.below(len));
        }
        prop_assert!(s.tail_is_canonical());
        prop_assert!(s.count_ones() <= len);
    }

    #[test]
    fn hamming_triangle_inequality(seed in arb_seed(), len in 1usize..200) {
        let mut rng = Rng64::new(seed);
        let a = BitString::random(len, &mut rng);
        let b = BitString::random(len, &mut rng);
        let c = BitString::random(len, &mut rng);
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
    }

    // ---- Binary crossovers preserve per-locus material ----

    #[test]
    fn binary_crossovers_exchange_material(seed in arb_seed(), len in 2usize..200) {
        let mut rng = Rng64::new(seed);
        let a = BitString::random(len, &mut rng);
        let b = BitString::random(len, &mut rng);
        let ops: Vec<Box<dyn Crossover<BitString>>> = vec![
            Box::new(OnePoint), Box::new(TwoPoint), Box::new(Uniform::half()),
        ];
        for op in &ops {
            let (c, d) = op.crossover(&a, &b, &mut rng);
            prop_assert!(c.tail_is_canonical() && d.tail_is_canonical());
            for i in 0..len {
                // Each locus of {c,d} is a rearrangement of {a,b} at i.
                let parents = [a.get(i), b.get(i)];
                let children = [c.get(i), d.get(i)];
                let mut p = parents; p.sort_unstable();
                let mut ch = children; ch.sort_unstable();
                prop_assert_eq!(p, ch, "locus {} not conserved by {}", i, op.name());
            }
        }
    }

    // ---- Permutation operators preserve closure ----

    #[test]
    fn permutation_crossover_closure(seed in arb_seed(), n in 2usize..128) {
        let mut rng = Rng64::new(seed);
        let a = Permutation::random(n, &mut rng);
        let b = Permutation::random(n, &mut rng);
        let ops: Vec<Box<dyn Crossover<Permutation>>> =
            vec![Box::new(Pmx), Box::new(Ox), Box::new(Cx)];
        for op in &ops {
            let (c, d) = op.crossover(&a, &b, &mut rng);
            prop_assert!(c.is_valid(), "{} child c", op.name());
            prop_assert!(d.is_valid(), "{} child d", op.name());
        }
    }

    #[test]
    fn permutation_mutation_closure(seed in arb_seed(), n in 0usize..128) {
        let mut rng = Rng64::new(seed);
        let ops: Vec<Box<dyn Mutation<Permutation>>> = vec![
            Box::new(Swap), Box::new(Insertion), Box::new(Inversion), Box::new(Scramble),
        ];
        for op in &ops {
            let mut g = Permutation::random(n, &mut rng);
            op.mutate(&mut g, &mut rng);
            prop_assert!(g.is_valid(), "{} n={}", op.name(), n);
        }
    }

    // ---- Real operators respect bounds ----

    #[test]
    fn real_mutations_respect_bounds(seed in arb_seed(), dim in 1usize..30,
                                     lo in -100.0f64..0.0, span in 0.001f64..200.0) {
        let hi = lo + span;
        let bounds = Bounds::uniform(lo, hi, dim);
        let mut rng = Rng64::new(seed);
        let ops: Vec<Box<dyn Mutation<RealVector>>> = vec![
            Box::new(GaussianMutation { p: 1.0, sigma: span, bounds: bounds.clone() }),
            Box::new(Polynomial { p: 1.0, eta: 20.0, bounds: bounds.clone() }),
        ];
        for op in &ops {
            let mut g = bounds.sample(&mut rng);
            op.mutate(&mut g, &mut rng);
            prop_assert!(bounds.contains(&g), "{} escaped bounds", op.name());
        }
    }

    #[test]
    fn bitflip_flip_count_bounded(seed in arb_seed(), len in 1usize..300, p in 0.0f64..=1.0) {
        let mut rng = Rng64::new(seed);
        let orig = BitString::random(len, &mut rng);
        let mut g = orig.clone();
        BitFlip::new(p).mutate(&mut g, &mut rng);
        prop_assert!(g.hamming(&orig) <= len);
        if p == 0.0 {
            prop_assert_eq!(g.hamming(&orig), 0);
        }
    }

    // ---- Selection returns valid indices, biased the right way ----

    #[test]
    fn selections_return_valid_indices(seed in arb_seed(), n in 1usize..100) {
        let mut rng = Rng64::new(seed);
        let pop = Population::new(
            (0..n).map(|i| Individual::evaluated(vec![i as f64], i as f64)).collect(),
        );
        let selectors: Vec<Box<dyn Selection<Vec<f64>>>> = vec![
            Box::new(Tournament::binary()),
            Box::new(Roulette),
            Box::new(Sus),
            Box::new(LinearRank::new(1.8)),
            Box::new(Truncation::new(0.3)),
        ];
        for obj in [Objective::Maximize, Objective::Minimize] {
            for s in &selectors {
                let i = s.select(&pop, obj, &mut rng);
                prop_assert!(i < n, "{} returned {} >= {}", s.name(), i, n);
                let many = s.select_many(&pop, obj, 7, &mut rng);
                prop_assert_eq!(many.len(), 7);
                prop_assert!(many.iter().all(|&j| j < n));
            }
        }
    }
}
