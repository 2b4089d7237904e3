//! Classic binary benchmark landscapes.
//!
//! These are the problem classes of Alba & Troya (2000): *easy* (OneMax),
//! *deceptive* (concatenated traps), and *multimodal* (P-PEAKS), plus the
//! Royal Road function used throughout the early PGA literature.
//!
//! Traps and the royal road score a genome by its blocks. Both count
//! their all-ones blocks a word at a time and take the rest from the
//! popcount, so an evaluation costs a few word operations per 64 loci
//! instead of one bounds-checked read per locus. The per-bit loops they
//! replace are kept in `pga_problems::scalar` as references.

use pga_core::{BitString, Objective, Problem, Rng64};

/// OneMax: fitness is the number of one bits. The canonical *easy*
/// (unimodal, separable) landscape.
#[derive(Clone, Debug)]
pub struct OneMax {
    len: usize,
}

impl OneMax {
    /// OneMax over `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "OneMax needs at least one bit");
        Self { len }
    }

    /// Chromosome length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false; the instance is never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Problem for OneMax {
    type Genome = BitString;

    fn name(&self) -> String {
        format!("onemax-{}", self.len)
    }

    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn evaluate(&self, g: &BitString) -> f64 {
        debug_assert_eq!(g.len(), self.len);
        g.count_ones() as f64
    }

    fn random_genome(&self, rng: &mut Rng64) -> BitString {
        BitString::random(self.len, rng)
    }

    fn optimum(&self) -> Option<f64> {
        Some(self.len as f64)
    }
}

/// Concatenated deceptive trap functions of order `k` (Deb & Goldberg 1993).
///
/// Each block of `k` bits scores `k` when all ones, otherwise `k − 1 − u`
/// where `u` is the number of ones — so hill-climbing within a block leads
/// *away* from the optimum. The canonical *deceptive* landscape, and the
/// workload on which island PGAs exhibit super-linear numerical speedup
/// (Alba 2002).
#[derive(Clone, Debug)]
pub struct DeceptiveTrap {
    k: usize,
    blocks: usize,
    full: FullBlocks,
}

impl DeceptiveTrap {
    /// `blocks` concatenated traps of order `k` (chromosome length
    /// `k·blocks`). Requires `k >= 2`.
    #[must_use]
    pub fn new(k: usize, blocks: usize) -> Self {
        assert!(k >= 2, "trap order must be >= 2");
        assert!(blocks >= 1, "need at least one block");
        Self {
            k,
            blocks,
            full: FullBlocks::new(k, blocks),
        }
    }

    /// Chromosome length `k · blocks`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.k * self.blocks
    }

    /// Always false; instances are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Trap order `k`.
    #[must_use]
    pub fn order(&self) -> usize {
        self.k
    }
}

impl Problem for DeceptiveTrap {
    type Genome = BitString;

    fn name(&self) -> String {
        format!("trap{}x{}", self.k, self.blocks)
    }

    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn evaluate(&self, g: &BitString) -> f64 {
        debug_assert_eq!(g.len(), self.len());
        // Each block scores k − 1 − u, plus k + 1 when full (u = k), so
        // the sum is blocks·(k − 1) − ones + (k + 1)·full. Added before
        // the subtraction, so it never underflows.
        let full = self.full.count(g.words());
        let (k, blocks) = (self.k, self.blocks);
        (blocks * (k - 1) + (k + 1) * full - g.count_ones()) as f64
    }

    fn random_genome(&self, rng: &mut Rng64) -> BitString {
        BitString::random(self.len(), rng)
    }

    fn optimum(&self) -> Option<f64> {
        Some((self.k * self.blocks) as f64)
    }
}

/// P-PEAKS multimodal generator (Kennedy & Spears 1998; used by Alba & Troya).
///
/// `p` random `n`-bit peaks are drawn at construction; fitness of a string is
/// its best normalized Hamming closeness to any peak:
/// `max_i (n − H(x, peak_i)) / n`. Optimum is 1.0 (sitting on a peak).
#[derive(Clone, Debug)]
pub struct PPeaks {
    peaks: Vec<BitString>,
    len: usize,
}

impl PPeaks {
    /// Generates `p` random peaks over `n`-bit strings from `seed`.
    #[must_use]
    pub fn new(p: usize, n: usize, seed: u64) -> Self {
        assert!(p >= 1 && n >= 1, "need at least one peak and one bit");
        let mut rng = Rng64::new(seed);
        let peaks = (0..p).map(|_| BitString::random(n, &mut rng)).collect();
        Self { peaks, len: n }
    }

    /// Number of peaks.
    #[must_use]
    pub fn peak_count(&self) -> usize {
        self.peaks.len()
    }
}

impl Problem for PPeaks {
    type Genome = BitString;

    fn name(&self) -> String {
        format!("p-peaks-{}x{}", self.peaks.len(), self.len)
    }

    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn evaluate(&self, g: &BitString) -> f64 {
        debug_assert_eq!(g.len(), self.len);
        let closest = self
            .peaks
            .iter()
            .map(|p| self.len - p.hamming(g))
            .max()
            .unwrap_or(0);
        closest as f64 / self.len as f64
    }

    fn random_genome(&self, rng: &mut Rng64) -> BitString {
        BitString::random(self.len, rng)
    }

    fn optimum(&self) -> Option<f64> {
        Some(1.0)
    }

    fn optimum_epsilon(&self) -> f64 {
        1e-12
    }
}

/// Royal Road R1 (Mitchell, Forrest & Holland 1992): fitness is the summed
/// size of fully-set, non-overlapping schemata blocks.
#[derive(Clone, Debug)]
pub struct RoyalRoad {
    block: usize,
    blocks: usize,
    full: FullBlocks,
}

impl RoyalRoad {
    /// `blocks` blocks of `block` bits each.
    #[must_use]
    pub fn new(block: usize, blocks: usize) -> Self {
        assert!(block >= 1 && blocks >= 1);
        Self {
            block,
            blocks,
            full: FullBlocks::new(block, blocks),
        }
    }

    /// Chromosome length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.block * self.blocks
    }

    /// Always false; instances are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Problem for RoyalRoad {
    type Genome = BitString;

    fn name(&self) -> String {
        format!("royal-road-{}x{}", self.block, self.blocks)
    }

    fn objective(&self) -> Objective {
        Objective::Maximize
    }

    fn evaluate(&self, g: &BitString) -> f64 {
        debug_assert_eq!(g.len(), self.len());
        (self.block * self.full.count(g.words())) as f64
    }

    fn random_genome(&self, rng: &mut Rng64) -> BitString {
        BitString::random(self.len(), rng)
    }

    fn optimum(&self) -> Option<f64> {
        Some(self.len() as f64)
    }
}

/// Counts the all-ones blocks of a genome cut into `blocks` consecutive
/// blocks of `k` bits, a word at a time.
///
/// For `k ≤ 64` a block starting in word `i` ends in word `i` or `i + 1`,
/// so it lies inside the 128-bit window of words `i` and `i + 1`. ANDing
/// the window with itself shifted right by 1, 2, 4, … (the last shift cut
/// so the shifts sum to `k − 1`) leaves bit `p` set exactly when bits
/// `p..p + k` are all ones. The block starts in word `i` are kept in a
/// mask built once, and a popcount of the masked low word counts its full
/// blocks: `⌈log₂ k⌉` shift-ANDs per word instead of `k` reads per block.
/// Wider blocks test each block's word range instead.
#[derive(Clone, Debug)]
struct FullBlocks {
    k: usize,
    blocks: usize,
    /// Bit `s % 64` of word `s / 64` is set for every block start `s`
    /// (`k ≤ 64` only; empty otherwise).
    starts: Vec<u64>,
    /// The doubling shifts, summing to `k − 1`.
    shifts: Vec<u32>,
}

impl FullBlocks {
    fn new(k: usize, blocks: usize) -> Self {
        let (mut starts, mut shifts) = (Vec::new(), Vec::new());
        if k <= 64 {
            starts.resize((k * blocks).div_ceil(64), 0);
            for s in (0..blocks).map(|b| b * k) {
                starts[s / 64] |= 1 << (s % 64);
            }
            // A set bit after the shifts so far stands for a run of
            // `covered` ones; each shift extends that by at most double.
            let mut covered = 1;
            while covered < k {
                let shift = covered.min(k - covered);
                shifts.push(shift as u32);
                covered += shift;
            }
        }
        Self {
            k,
            blocks,
            starts,
            shifts,
        }
    }

    /// Full blocks of the canonical words `words` (bits past the genome
    /// are zero, so a block never reads ones beyond its end).
    fn count(&self, words: &[u64]) -> usize {
        if self.k > 64 {
            return (0..self.blocks)
                .filter(|b| all_ones(words, b * self.k, (b + 1) * self.k))
                .count();
        }
        let mut full = 0;
        for (i, &starts) in self.starts.iter().enumerate() {
            let next = words.get(i + 1).copied().unwrap_or(0);
            let mut run = u128::from(words[i]) | u128::from(next) << 64;
            for &shift in &self.shifts {
                run &= run >> shift;
            }
            // Full blocks are rare in most genomes: skip the popcount.
            let ended = run as u64 & starts;
            if ended != 0 {
                full += ended.count_ones() as usize;
            }
        }
        full
    }
}

/// `true` when bits `[from, to)` of `words` are all ones.
fn all_ones(words: &[u64], from: usize, to: usize) -> bool {
    let mut i = from;
    while i < to {
        let (word, bit) = (i / 64, i % 64);
        let span = (64 - bit).min(to - i);
        let mask = if span == 64 {
            u64::MAX
        } else {
            ((1u64 << span) - 1) << bit
        };
        if words[word] & mask != mask {
            return false;
        }
        i += span;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onemax_values() {
        let p = OneMax::new(16);
        assert_eq!(p.evaluate(&BitString::ones(16)), 16.0);
        assert_eq!(p.evaluate(&BitString::zeros(16)), 0.0);
        assert!(p.is_optimal(16.0));
        assert!(!p.is_optimal(15.0));
    }

    #[test]
    fn trap_is_deceptive() {
        let p = DeceptiveTrap::new(4, 1);
        // u=4 -> 4 (global optimum)
        assert_eq!(p.evaluate(&BitString::ones(4)), 4.0);
        // u=0 -> 3 (deceptive attractor)
        assert_eq!(p.evaluate(&BitString::zeros(4)), 3.0);
        // u=1 -> 2, u=2 -> 1, u=3 -> 0: fitness decreases toward the optimum.
        let mut g = BitString::zeros(4);
        g.set(0, true);
        assert_eq!(p.evaluate(&g), 2.0);
        g.set(1, true);
        assert_eq!(p.evaluate(&g), 1.0);
        g.set(2, true);
        assert_eq!(p.evaluate(&g), 0.0);
    }

    #[test]
    fn trap_blocks_are_additive() {
        let p = DeceptiveTrap::new(4, 3);
        assert_eq!(p.len(), 12);
        assert_eq!(p.evaluate(&BitString::ones(12)), 12.0);
        assert_eq!(p.evaluate(&BitString::zeros(12)), 9.0);
        // One optimal block + two zero blocks: 4 + 3 + 3.
        let mut g = BitString::zeros(12);
        for i in 0..4 {
            g.set(i, true);
        }
        assert_eq!(p.evaluate(&g), 10.0);
    }

    #[test]
    fn ppeaks_peak_scores_one() {
        let p = PPeaks::new(10, 64, 99);
        for peak in &p.peaks {
            assert_eq!(p.evaluate(peak), 1.0);
            assert!(p.is_optimal(p.evaluate(peak)));
        }
        // A random string is usually below 1.
        let mut rng = Rng64::new(5);
        let g = p.random_genome(&mut rng);
        assert!(p.evaluate(&g) <= 1.0);
    }

    #[test]
    fn ppeaks_is_deterministic_per_seed() {
        let a = PPeaks::new(5, 32, 7);
        let b = PPeaks::new(5, 32, 7);
        let mut rng = Rng64::new(0);
        let g = a.random_genome(&mut rng);
        assert_eq!(a.evaluate(&g), b.evaluate(&g));
    }

    #[test]
    fn royal_road_blocks() {
        let p = RoyalRoad::new(8, 2);
        assert_eq!(p.evaluate(&BitString::ones(16)), 16.0);
        assert_eq!(p.evaluate(&BitString::zeros(16)), 0.0);
        let mut g = BitString::zeros(16);
        for i in 0..8 {
            g.set(i, true);
        }
        assert_eq!(p.evaluate(&g), 8.0);
        // A 7/8 block scores nothing.
        g.set(7, false);
        assert_eq!(p.evaluate(&g), 0.0);
    }
}
