//! Bit-at-a-time reference versions of the compact GA's model kernels, and
//! the suite that holds the word-at-a-time kernels in [`crate::cga`] to
//! them.
//!
//! Unlike the GA operators' scalar references, these draw from the RNG in
//! exactly the same order as the word kernels (one `chance` per locus, in
//! locus order), so the contract is bit identity: the same sampled bits,
//! the same marginals after an update, the same moved count, and the same
//! RNG state afterwards.

use pga_core::repr::BitString;
use pga_core::rng::Rng64;
use proptest::prelude::*;

use crate::cga::{sample_genome, sample_into, update_slice};

/// Per-bit sampling of loci `offset..offset + p.len()` into `g`.
fn scalar_sample_slice(g: &mut BitString, offset: usize, p: &[f64], rng: &mut Rng64) {
    for (i, &pi) in p.iter().enumerate() {
        if rng.chance(pi) {
            g.set(offset + i, true);
        }
    }
}

/// Per-bit sampling of a whole genome.
fn scalar_sample_genome(p: &[f64], rng: &mut Rng64) -> BitString {
    let mut g = BitString::zeros(p.len());
    scalar_sample_slice(&mut g, 0, p, rng);
    g
}

/// Per-bit update: reads both competitors at every locus of the slice.
fn scalar_update_slice(
    p: &mut [f64],
    winner: &BitString,
    loser: &BitString,
    offset: usize,
    step: f64,
) -> usize {
    let mut moved = 0;
    for (i, pi) in p.iter_mut().enumerate() {
        let w = winner.get(offset + i);
        if w != loser.get(offset + i) {
            *pi = if w {
                (*pi + step).min(1.0)
            } else {
                (*pi - step).max(0.0)
            };
            moved += 1;
        }
    }
    moved
}

/// Lengths at and around word boundaries that a draw from `1..=300`
/// would rarely hit; every property runs on these as well.
const BOUNDARY_LENS: [usize; 5] = [1, 63, 64, 65, 128];

/// Marginals mixing exact `0.0` and `1.0`, values one update step from
/// either bound, and arbitrary values in between.
fn marginals(len: usize, step: f64, rng: &mut Rng64) -> Vec<f64> {
    (0..len)
        .map(|_| match rng.below(6) {
            0 => 0.0,
            1 => 1.0,
            2 => step,
            3 => 1.0 - step,
            4 => 0.5,
            _ => rng.next_f64(),
        })
        .collect()
}

/// Splits `len` loci into up to `max_shards` contiguous, non-empty slices
/// at random cut points; returns each slice's first locus and length.
fn shards(len: usize, max_shards: usize, rng: &mut Rng64) -> Vec<(usize, usize)> {
    let mut cuts: Vec<usize> = (0..max_shards.min(len) - 1)
        .map(|_| 1 + rng.below(len - 1))
        .collect();
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| (w[0], w[1] - w[0])).collect()
}

fn assert_same_bits(word: &BitString, scalar: &BitString, what: &str) {
    assert_eq!(
        word.words(),
        scalar.words(),
        "{what}: sampled bits differ at len {}",
        word.len()
    );
}

fn assert_same_marginals(word: &[f64], scalar: &[f64], what: &str) {
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(word), bits(scalar), "{what}: marginals differ");
}

fn check_sample_genome(len: usize, seed: u64) {
    let mut setup = Rng64::new(seed);
    let p = marginals(len, 1.0 / 64.0, &mut setup);
    let (mut word_rng, mut scalar_rng) = (Rng64::new(seed ^ 1), Rng64::new(seed ^ 1));
    let word = sample_genome(&p, &mut word_rng);
    let scalar = scalar_sample_genome(&p, &mut scalar_rng);
    assert_same_bits(&word, &scalar, "sample_genome");
    assert_eq!(
        word_rng.next_u64(),
        scalar_rng.next_u64(),
        "RNG streams diverged"
    );
}

/// pcGA-style sampling: every shard ORs its slice of both competitors
/// into the shared words from its own stream, slice `a` before slice `b`.
fn check_sharded_sample(len: usize, max_shards: usize, seed: u64) {
    let mut setup = Rng64::new(seed);
    let p = marginals(len, 1.0 / 32.0, &mut setup);
    let slices = shards(len, max_shards, &mut setup);
    let words = len.div_ceil(64);
    let (mut wa, mut wb) = (vec![0; words], vec![0; words]);
    let (mut sa, mut sb) = (BitString::zeros(len), BitString::zeros(len));
    for (node, &(lo, n)) in slices.iter().enumerate() {
        let slice = &p[lo..lo + n];
        let mut word_rng = Rng64::new(seed).fork(node as u64);
        let mut scalar_rng = Rng64::new(seed).fork(node as u64);
        sample_into(&mut wa, lo, slice, &mut word_rng);
        sample_into(&mut wb, lo, slice, &mut word_rng);
        scalar_sample_slice(&mut sa, lo, slice, &mut scalar_rng);
        scalar_sample_slice(&mut sb, lo, slice, &mut scalar_rng);
        assert_eq!(
            word_rng.next_u64(),
            scalar_rng.next_u64(),
            "shard {node} at {lo}..{}: RNG streams diverged",
            lo + n
        );
    }
    assert_same_bits(&BitString::from_words(wa, len), &sa, "sharded a");
    assert_same_bits(&BitString::from_words(wb, len), &sb, "sharded b");
}

fn check_update(len: usize, offset: usize, virtual_pop: u64, seed: u64) {
    let mut setup = Rng64::new(seed);
    let step = 1.0 / virtual_pop as f64;
    let p = marginals(len, step, &mut setup);
    let total = offset + len + setup.below(70);
    let winner = BitString::random(total, &mut setup);
    let loser = BitString::random(total, &mut setup);
    let (mut word, mut scalar) = (p.clone(), p);
    let moved = update_slice(&mut word, &winner, &loser, offset, step);
    let scalar_moved = scalar_update_slice(&mut scalar, &winner, &loser, offset, step);
    assert_same_marginals(&word, &scalar, "update_slice");
    assert_eq!(moved, scalar_moved, "moved counts differ");
}

proptest! {
    #[test]
    fn sample_genome_matches_scalar(len in 1usize..=300, seed in any::<u64>()) {
        check_sample_genome(len, seed);
        for len in BOUNDARY_LENS {
            check_sample_genome(len, seed);
        }
    }

    #[test]
    fn sharded_sampling_matches_scalar(
        len in 1usize..=300,
        max_shards in 1usize..=12,
        seed in any::<u64>(),
    ) {
        check_sharded_sample(len, max_shards, seed);
        for len in BOUNDARY_LENS {
            check_sharded_sample(len, max_shards, seed);
        }
    }

    #[test]
    fn update_slice_matches_scalar(
        len in 1usize..=300,
        offset in 0usize..=130,
        virtual_pop in 2u64..=200,
        seed in any::<u64>(),
    ) {
        check_update(len, offset, virtual_pop, seed);
        for len in BOUNDARY_LENS {
            check_update(len, offset, virtual_pop, seed);
            check_update(len, 0, virtual_pop, seed);
        }
    }
}

#[test]
fn empty_update_slice_moves_nothing() {
    let (w, l) = (BitString::ones(130), BitString::zeros(130));
    for offset in [0, 1, 63, 64, 65, 130] {
        assert_eq!(update_slice(&mut [], &w, &l, offset, 0.5), 0);
    }
}
