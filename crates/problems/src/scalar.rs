//! Per-bit reference evaluations of the block-scored binary problems.
//!
//! [`DeceptiveTrap`](crate::DeceptiveTrap) and
//! [`RoyalRoad`](crate::RoyalRoad) count full blocks a word at a time.
//! These are the loops they replaced, one bounds-checked read per locus,
//! kept so the equivalence tests can check the word kernel gives the same
//! fitness bit for bit and so the ops bench can time both in one run.

use pga_core::BitString;

/// Concatenated traps of order `k` over `blocks` blocks: each block scores
/// `k` when all ones, otherwise `k − 1 − u` for its `u` ones.
#[must_use]
pub fn trap(k: usize, blocks: usize, g: &BitString) -> f64 {
    let mut total = 0usize;
    for b in 0..blocks {
        let mut u = 0usize;
        for i in 0..k {
            if g.get(b * k + i) {
                u += 1;
            }
        }
        total += if u == k { k } else { k - 1 - u };
    }
    total as f64
}

/// Royal road R1 over `blocks` blocks of `block` bits: the summed size of
/// the all-ones blocks.
#[must_use]
pub fn royal_road(block: usize, blocks: usize, g: &BitString) -> f64 {
    let mut total = 0usize;
    for b in 0..blocks {
        let full = (0..block).all(|i| g.get(b * block + i));
        if full {
            total += block;
        }
    }
    total as f64
}
