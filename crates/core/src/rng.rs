//! Deterministic, splittable pseudo-random number generation.
//!
//! Parallel genetic algorithms are only reproducible if every deme, cell and
//! worker owns an *independent* random stream whose contents do not depend on
//! thread scheduling. This module implements
//! [xoshiro256++](https://prng.di.unimi.it/) seeded through SplitMix64, the
//! combination recommended by the xoshiro authors, plus a [`Rng64::fork`]
//! operation that derives statistically independent child streams from a
//! parent — the mechanism every `pga-*` crate uses to hand one stream to each
//! island/cell/worker.
//!
//! The implementation is self-contained (no `rand` dependency) so that the
//! exact bit streams are stable across platforms and dependency upgrades; the
//! experiment harness in `pga-bench` relies on this for regenerating tables.

/// SplitMix64 step: used for seeding and for deriving fork seeds.
///
/// This is the canonical finalizer from Steele et al., *Fast Splittable
/// Pseudorandom Number Generators* (OOPSLA 2014).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
///
/// Cloneable, `Send`, and cheap (32 bytes of state plus a cached Gaussian
/// deviate). All genetic operators in this workspace draw from `Rng64`
/// exclusively, so a `(seed, config)` pair fully determines a run.
#[derive(Clone, Debug)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of state are expanded from the seed with SplitMix64,
    /// which guarantees a non-zero state for every seed (including 0).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            gauss_spare: None,
        }
    }

    /// Exports the full generator state for checkpointing: the four
    /// xoshiro256++ words plus the cached Box–Muller deviate.
    #[must_use]
    pub fn snapshot_state(&self) -> ([u64; 4], Option<f64>) {
        (self.s, self.gauss_spare)
    }

    /// Rebuilds a generator from [`Rng64::snapshot_state`] output,
    /// resuming the exact stream. An all-zero state (unreachable from
    /// `new`) is re-seeded through SplitMix64 to keep xoshiro valid.
    #[must_use]
    pub fn from_snapshot_state(s: [u64; 4], gauss_spare: Option<f64>) -> Self {
        if s == [0; 4] {
            let mut rng = Self::new(0);
            rng.gauss_spare = gauss_spare;
            return rng;
        }
        Self { s, gauss_spare }
    }

    /// Derives the `index`-th child stream.
    ///
    /// Children with distinct indices (and children of distinct parents) are
    /// statistically independent for all practical purposes: the child seed is
    /// a SplitMix64 mix of fresh parent output and the index. Forking advances
    /// the parent by one draw.
    #[must_use]
    pub fn fork(&mut self, index: u64) -> Self {
        let mut mix = self.next_u64() ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
        Self::new(splitmix64(&mut mix))
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Requires `lo <= hi`; returns `lo` when the
    /// interval is empty.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "range_f64: lo={lo} > hi={hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased multiply-shift
    /// rejection method. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng64::below(0)");
        let n = n as u64;
        // Lemire 2019: https://arxiv.org/abs/1805.10941
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range_usize: empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fair coin flip.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Standard normal deviate via the polar Box–Muller transform, caching the
    /// second deviate of each pair.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.gauss_spare = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn gaussian_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.gaussian()
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Uniformly chooses a reference from a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// Two distinct uniform indices in `[0, n)`. Panics if `n < 2`.
    pub fn two_distinct(&mut self, n: usize) -> (usize, usize) {
        assert!(n >= 2, "two_distinct needs n >= 2, got {n}");
        let a = self.below(n);
        let mut b = self.below(n - 1);
        if b >= a {
            b += 1;
        }
        (a, b)
    }

    /// Samples `k` distinct indices from `[0, n)` (order unspecified but
    /// deterministic). Panics if `k > n`.
    ///
    /// Uses a partial Fisher–Yates over an index buffer, O(n) worst case;
    /// intended for the small `k`/`n` typical of tournament and migrant
    /// selection rather than bulk statistics.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx = Vec::new();
        self.sample_distinct_into(n, k, &mut idx);
        idx
    }

    /// [`sample_distinct`](Self::sample_distinct) into a recycled vector:
    /// `out` is the Fisher–Yates index buffer and is left holding the `k`
    /// picks, with the same draws and the same picks.
    pub fn sample_distinct_into(&mut self, n: usize, k: usize, out: &mut Vec<usize>) {
        assert!(k <= n, "sample_distinct: k={k} > n={n}");
        out.clear();
        out.extend(0..n);
        for i in 0..k {
            let j = self.range_usize(i, n);
            out.swap(i, j);
        }
        out.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng64::new(0);
        // State must not be all-zero (xoshiro's sole forbidden state).
        assert!(r.s.iter().any(|&w| w != 0));
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = Rng64::new(3);
        let n = 10;
        let mut counts = [0usize; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[r.below(n)] += 1;
        }
        let expected = draws as f64 / n as f64;
        for &c in &counts {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "bucket deviates {rel:.3} from uniform");
        }
    }

    #[test]
    fn below_covers_full_range() {
        let mut r = Rng64::new(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng64::new(0).below(0);
    }

    #[test]
    fn range_usize_bounds() {
        let mut r = Rng64::new(5);
        for _ in 0..1000 {
            let x = r.range_usize(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Rng64::new(9);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let z = r.gaussian();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = Rng64::new(100);
        let mut parent2 = Rng64::new(100);
        let mut c1a = parent1.fork(0);
        let mut c1b = parent1.fork(1);
        let mut c2a = parent2.fork(0);
        // Same parent+index => identical stream.
        for _ in 0..100 {
            assert_eq!(c1a.next_u64(), c2a.next_u64());
        }
        // Different indices => different stream.
        let mut c1a = Rng64::new(100).fork(0);
        let same = (0..64).filter(|_| c1a.next_u64() == c1b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn snapshot_state_resumes_exact_stream() {
        let mut a = Rng64::new(77);
        a.gaussian(); // populate the cached spare deviate
        for _ in 0..10 {
            a.next_u64();
        }
        let (s, spare) = a.snapshot_state();
        let mut b = Rng64::from_snapshot_state(s, spare);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.gaussian().to_bits(), b.gaussian().to_bits());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(21);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn two_distinct_always_distinct() {
        let mut r = Rng64::new(33);
        for _ in 0..10_000 {
            let (a, b) = r.two_distinct(7);
            assert_ne!(a, b);
            assert!(a < 7 && b < 7);
        }
    }

    #[test]
    fn sample_distinct_properties() {
        let (mut r, mut into_r, mut into) = (Rng64::new(17), Rng64::new(17), vec![7; 40]);
        for k in 0..=10 {
            let s = r.sample_distinct(10, k);
            into_r.sample_distinct_into(10, k, &mut into);
            assert_eq!(into, s, "a recycled buffer gives the same picks");
            assert_eq!(s.len(), k);
            let mut dedup = s.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), k, "duplicates in sample");
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(2);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
