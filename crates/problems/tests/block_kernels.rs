//! Equivalence suite: the word-at-a-time full-block kernel of the trap
//! and royal-road problems vs the retained per-bit references
//! (`pga_problems::scalar`).
//!
//! Both compute an exact integer score, so equivalence here is bit for
//! bit: the same `f64` fitness on every genome. Block orders cover the
//! small traps of the experiments (2–9), the widths around one word
//! (31–33, 63–65) where a block starts near a word's end and spills into
//! the next, and a block wider than a word (65, 100), which takes the
//! per-block word-range path.

use pga_core::{BitString, Problem, Rng64};
use pga_problems::{scalar, DeceptiveTrap, RoyalRoad};
use proptest::prelude::*;

const ORDERS: [usize; 15] = [2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100];

/// All-zero, all-one, dense and random genomes of `k · blocks` bits. The
/// dense genome sets every block to ones and then clears one random bit
/// in about half of them, so full and one-short blocks sit side by side.
fn genomes(k: usize, blocks: usize, rng: &mut Rng64) -> Vec<(&'static str, BitString)> {
    let len = k * blocks;
    let mut dense = BitString::ones(len);
    for b in 0..blocks {
        if rng.chance(0.5) {
            dense.set(b * k + rng.below(k), false);
        }
    }
    vec![
        ("all-zero", BitString::zeros(len)),
        ("all-one", BitString::ones(len)),
        ("dense", dense),
        ("random", BitString::random(len, rng)),
    ]
}

fn check(k: usize, blocks: usize, seed: u64) {
    let trap = DeceptiveTrap::new(k, blocks);
    let road = RoyalRoad::new(k, blocks);
    let mut rng = Rng64::new(seed);
    for (kind, g) in genomes(k, blocks, &mut rng) {
        assert_eq!(
            trap.evaluate(&g).to_bits(),
            scalar::trap(k, blocks, &g).to_bits(),
            "trap k={k} blocks={blocks} on the {kind} genome"
        );
        assert_eq!(
            road.evaluate(&g).to_bits(),
            scalar::royal_road(k, blocks, &g).to_bits(),
            "royal road block={k} blocks={blocks} on the {kind} genome"
        );
    }
}

proptest! {
    #[test]
    fn word_kernel_matches_the_per_bit_reference(
        seed in any::<u64>(),
        order in 0usize..ORDERS.len(),
        blocks in 1usize..=40,
    ) {
        check(ORDERS[order], blocks, seed);
    }
}

#[test]
fn every_order_matches_at_edge_block_counts() {
    for k in ORDERS {
        for blocks in [1, 2, 3, 16, 40] {
            for seed in 0..4 {
                check(k, blocks, seed);
            }
        }
    }
}

#[test]
fn the_optimum_and_the_deceptive_attractor_score_as_defined() {
    for k in ORDERS {
        let trap = DeceptiveTrap::new(k, 5);
        assert_eq!(trap.evaluate(&BitString::ones(5 * k)), (5 * k) as f64);
        assert_eq!(
            trap.evaluate(&BitString::zeros(5 * k)),
            (5 * (k - 1)) as f64
        );
    }
}
