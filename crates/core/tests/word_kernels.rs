//! Equivalence suite: word-level binary kernels vs the retained scalar
//! reference operators (`ops::scalar`).
//!
//! The word kernels draw from the RNG in a different pattern than the
//! scalar loops (per-word masks vs per-bit `chance` calls), so bit-identical
//! outputs are not the contract. Equivalence here means:
//!
//! 1. **Structural invariants** both families satisfy on arbitrary lengths,
//!    including non-multiples of 64: per-locus material conservation for
//!    crossover, and the canonical-form invariant (zero tail bits) after
//!    every operation.
//! 2. **Statistical rates**: uniform crossover swaps each locus with the
//!    same probability, and bit-flip mutation flips at the same rate in
//!    both the sparse (geometric skip) and dense (word mask) regimes.
//!
//! The in-place form of every bit-string crossover, `crossover_into`, is
//! held to the stricter contract: the same children bit for bit as
//! `crossover`, and the same next RNG output, whatever the recycled
//! offspring buffers held before (other lengths included).

use pga_core::ops::crossover::{Crossover, OnePoint, TwoPoint, Uniform};
use pga_core::ops::extra::{Hux, NPoint};
use pga_core::ops::mutation::{BitFlip, Mutation};
use pga_core::ops::scalar::{ScalarBitFlip, ScalarUniform};
use pga_core::{BitString, Rng64};
use proptest::prelude::*;

fn arb_seed() -> impl Strategy<Value = u64> {
    any::<u64>()
}

/// Word-boundary lengths that a random draw from `1..300` would rarely hit
/// exactly; every structural property is checked on these too.
const BOUNDARY_LENS: [usize; 6] = [1, 63, 64, 65, 128, 192];

fn assert_locus_conserved(a: &BitString, b: &BitString, c: &BitString, d: &BitString, op: &str) {
    for i in 0..a.len() {
        let mut p = [a.get(i), b.get(i)];
        let mut ch = [c.get(i), d.get(i)];
        p.sort_unstable();
        ch.sort_unstable();
        assert_eq!(p, ch, "locus {i} not conserved by {op} at len {}", a.len());
    }
}

fn check_crossovers(seed: u64, len: usize, p: f64) {
    let mut rng = Rng64::new(seed);
    let a = BitString::random(len, &mut rng);
    let b = BitString::random(len, &mut rng);
    let ops: Vec<Box<dyn Crossover<BitString>>> = vec![
        Box::new(Uniform { p }),
        Box::new(ScalarUniform { p }),
        Box::new(OnePoint),
        Box::new(TwoPoint),
        Box::new(NPoint::new(3.min(len.saturating_sub(1)).max(1))),
        Box::new(Hux),
    ];
    for op in &ops {
        let (c, d) = op.crossover(&a, &b, &mut rng);
        assert!(
            c.tail_is_canonical(),
            "{} child c tail, len {len}",
            op.name()
        );
        assert!(
            d.tail_is_canonical(),
            "{} child d tail, len {len}",
            op.name()
        );
        assert_eq!(c.len(), len);
        assert_eq!(d.len(), len);
        assert_locus_conserved(&a, &b, &c, &d, op.name());
        // Conservation implies the total material is preserved too.
        assert_eq!(
            c.count_ones() + d.count_ones(),
            a.count_ones() + b.count_ones()
        );
    }
}

fn check_bitflip(seed: u64, len: usize, p: f64) {
    let mut rng = Rng64::new(seed);
    let mut g = BitString::random(len, &mut rng);
    BitFlip::new(p).mutate(&mut g, &mut rng);
    assert!(g.tail_is_canonical(), "bit-flip tail at len {len} p {p}");
    assert_eq!(g.len(), len);

    // p = 0: both families are no-ops. p = 1: both complement every bit.
    let orig = BitString::random(len, &mut rng);
    for p in [0.0, 1.0] {
        let mut w = orig.clone();
        let mut s = orig.clone();
        BitFlip::new(p).mutate(&mut w, &mut rng);
        ScalarBitFlip { p }.mutate(&mut s, &mut rng);
        assert_eq!(w, s, "bit-flip families disagree at p = {p}, len {len}");
    }
}

fn check_uniform_extremes(seed: u64, len: usize) {
    let mut rng = Rng64::new(seed);
    let a = BitString::random(len, &mut rng);
    let b = BitString::random(len, &mut rng);
    for p in [0.0, 1.0] {
        let (wc, wd) = Uniform { p }.crossover(&a, &b, &mut rng);
        let (sc, sd) = ScalarUniform { p }.crossover(&a, &b, &mut rng);
        assert_eq!(wc, sc, "uniform child c at p = {p}, len {len}");
        assert_eq!(wd, sd, "uniform child d at p = {p}, len {len}");
    }
}

fn check_crossover_into(seed: u64, len: usize, p: f64) {
    let mut rng = Rng64::new(seed);
    let a = BitString::random(len, &mut rng);
    let b = BitString::random(len, &mut rng);
    let ops: Vec<Box<dyn Crossover<BitString>>> = vec![
        Box::new(OnePoint),
        Box::new(TwoPoint),
        Box::new(Uniform { p }),
        Box::new(NPoint::new(3)),
        Box::new(Hux),
    ];
    for op in &ops {
        // Recycled buffers: empty, shorter, the same length, and longer
        // by more than a word, all holding stale bits.
        for dirty_len in [0, len / 2, len, len + 65] {
            let mut fresh_rng = Rng64::new(seed ^ 0x5eed);
            let mut into_rng = fresh_rng.clone();
            let (c, d) = op.crossover(&a, &b, &mut fresh_rng);
            let mut rc = BitString::random(dirty_len, &mut rng);
            let mut rd = BitString::ones(dirty_len);
            op.crossover_into(&a, &b, &mut rc, &mut rd, &mut into_rng);
            let at = format!("{} at len {len} into dirty len {dirty_len}", op.name());
            assert_eq!(rc, c, "child c of {at}");
            assert_eq!(rd, d, "child d of {at}");
            assert!(rc.tail_is_canonical() && rd.tail_is_canonical(), "{at}");
            assert_eq!(
                into_rng.next_u64(),
                fresh_rng.next_u64(),
                "next draw after {at}"
            );
        }
    }
}

proptest! {
    #[test]
    fn crossover_into_recycled_buffers_equals_crossover(
        seed in arb_seed(),
        len in 1usize..300,
        p in 0.0f64..=1.0,
    ) {
        check_crossover_into(seed, len, p);
        for boundary in BOUNDARY_LENS {
            check_crossover_into(seed, boundary, p);
        }
    }

    // ---- Structural: word kernels satisfy the same invariants as the
    // scalar references on random lengths (incl. non-multiples of 64) ----

    #[test]
    fn word_crossovers_conserve_loci_and_canonical_form(
        seed in arb_seed(),
        len in 2usize..300,
        p in 0.0f64..=1.0,
    ) {
        check_crossovers(seed, len, p);
        for boundary in BOUNDARY_LENS {
            if boundary >= 2 {
                check_crossovers(seed, boundary, p);
            }
        }
    }

    #[test]
    fn word_bitflip_stays_canonical_and_matches_extremes(
        seed in arb_seed(),
        len in 1usize..300,
        p in 0.0f64..=1.0,
    ) {
        check_bitflip(seed, len, p);
        for boundary in BOUNDARY_LENS {
            check_bitflip(seed, boundary, p);
        }
    }

    #[test]
    fn uniform_extremes_match_scalar(seed in arb_seed(), len in 1usize..300) {
        check_uniform_extremes(seed, len);
        for boundary in BOUNDARY_LENS {
            check_uniform_extremes(seed, boundary);
        }
    }
}

// ---- Statistical: word and scalar kernels act at the same rates ----

/// Mean per-locus action rate of `f` over `trials` applications to
/// all-zero genomes of length `len` (counting set bits afterwards).
fn flip_rate(
    mut f: impl FnMut(&mut BitString, &mut Rng64),
    len: usize,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut rng = Rng64::new(seed);
    let mut flipped = 0usize;
    for _ in 0..trials {
        let mut g = BitString::zeros(len);
        f(&mut g, &mut rng);
        flipped += g.count_ones();
    }
    flipped as f64 / (len * trials) as f64
}

#[test]
fn bitflip_rates_match_scalar_in_both_regimes() {
    // Sparse regime (p < SPARSE_FLIP_THRESHOLD = 1/32) exercises the
    // geometric skip sampler; dense exercises the Bernoulli word masks.
    for (p, len) in [
        (0.008, 1024), // sparse, ~1/len scale
        (0.02, 250),   // sparse, non-word-aligned length
        (0.05, 1024),  // dense
        (0.3, 137),    // dense, non-word-aligned length
    ] {
        let trials = 400;
        let word = flip_rate(|g, rng| BitFlip::new(p).mutate(g, rng), len, trials, 901);
        let scalar = flip_rate(
            |g, rng| ScalarBitFlip { p }.mutate(g, rng),
            len,
            trials,
            902,
        );
        // ~6 sigma of the binomial rate estimator, plus quantization slack.
        let tol = 6.0 * (p * (1.0 - p) / (len * trials) as f64).sqrt() + 1e-4;
        assert!(
            (word - p).abs() < tol,
            "word rate {word} departs from p={p} (len {len})"
        );
        assert!(
            (word - scalar).abs() < 2.0 * tol,
            "word {word} vs scalar {scalar} at p={p} len={len}"
        );
    }
}

#[test]
fn uniform_swap_rates_match_scalar() {
    // a = ones, b = zeros: a swapped locus shows up as a zero in child c.
    for (p, len) in [(0.25, 1024), (0.5, 137), (0.8, 250)] {
        let trials = 300;
        let rate = |word: bool, seed: u64| {
            let a = BitString::ones(len);
            let b = BitString::zeros(len);
            let mut rng = Rng64::new(seed);
            let mut swapped = 0usize;
            for _ in 0..trials {
                let (c, _d) = if word {
                    Uniform { p }.crossover(&a, &b, &mut rng)
                } else {
                    ScalarUniform { p }.crossover(&a, &b, &mut rng)
                };
                swapped += len - c.count_ones();
            }
            swapped as f64 / (len * trials) as f64
        };
        let word = rate(true, 911);
        let scalar = rate(false, 912);
        let tol = 6.0 * (p * (1.0 - p) / (len * trials) as f64).sqrt() + 1e-3;
        assert!(
            (word - p).abs() < tol,
            "word swap rate {word} departs from p={p} (len {len})"
        );
        assert!(
            (word - scalar).abs() < 2.0 * tol,
            "word {word} vs scalar {scalar} at p={p} len={len}"
        );
    }
}

#[test]
fn hux_swaps_exactly_half_the_differing_loci() {
    let mut rng = Rng64::new(77);
    for len in [63usize, 64, 129, 500] {
        let a = BitString::random(len, &mut rng);
        let b = BitString::random(len, &mut rng);
        let differing = a.hamming(&b);
        let (c, _d) = Hux.crossover(&a, &b, &mut rng);
        if differing < 2 {
            assert_eq!(c, a);
            continue;
        }
        // c differs from a at exactly floor(differing/2) loci, all of
        // which are loci where a and b disagree.
        assert_eq!(c.hamming(&a), differing / 2);
        assert_eq!(c.hamming(&b), differing - differing / 2);
    }
}
