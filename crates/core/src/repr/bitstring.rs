//! Packed binary chromosomes.

use crate::rng::Rng64;
use std::fmt;

/// A fixed-length binary string packed into 64-bit words.
///
/// Packing makes the hot paths of binary GAs — `count_ones` for OneMax-style
/// fitness, Hamming distance for diversity metrics, and whole-word crossover —
/// run at word speed instead of byte speed, which matters when a cellular GA
/// touches every individual every generation.
///
/// Bits beyond `len` inside the last word are maintained as zero by every
/// operation (the *canonical form* invariant); `count_ones` and equality rely
/// on it.
#[derive(PartialEq, Eq, Hash)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl Clone for BitString {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            len: self.len,
        }
    }

    /// Copies `source` into this string's word buffer, reallocating only
    /// when it is too small: the engines breed offspring into recycled
    /// genomes through it.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitString {
    /// All-zero string of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-one string of `len` bits.
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut s = Self::zeros(len);
        for i in 0..s.words.len() {
            s.words[i] = u64::MAX;
        }
        s.mask_tail();
        s
    }

    /// Uniformly random string of `len` bits.
    #[must_use]
    pub fn random(len: usize, rng: &mut Rng64) -> Self {
        let mut s = Self::zeros(len);
        for w in &mut s.words {
            *w = rng.next_u64();
        }
        s.mask_tail();
        s
    }

    /// Builds from an iterator of bits; length is the iterator length.
    ///
    /// Words are packed directly from the stream — no intermediate
    /// `Vec<bool>` and no per-bit `set` calls.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits = bits.into_iter();
        let mut words = Vec::with_capacity(bits.size_hint().0.div_ceil(64));
        let mut cur = 0u64;
        let mut len = 0usize;
        for b in bits {
            if b {
                cur |= 1u64 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                words.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(cur);
        }
        Self { words, len }
    }

    /// Builds from packed 64-bit words (LSB-first). Panics unless
    /// `words.len() == len.div_ceil(64)`; the tail is re-canonicalized.
    #[must_use]
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "from_words: {} words cannot hold {len} bits",
            words.len()
        );
        let mut s = Self { words, len };
        s.mask_tail();
        s
    }

    /// Read-only view of the packed words (LSB-first; tail bits beyond
    /// `len` are zero). The substrate of the word-level operator kernels.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the string has zero bits.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`. Panics if out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips bit `i`.
    #[inline]
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Population count (number of one bits).
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another string of the same length.
    #[must_use]
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "hamming: length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Iterator over bits, LSB-first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Decodes `count` unsigned integers of `bits_each` bits (LSB-first
    /// within each field). Used by binary-encoded numeric problems.
    /// Panics if `count * bits_each > len` or `bits_each > 64` or `bits_each == 0`.
    #[must_use]
    pub fn decode_uints(&self, bits_each: usize, count: usize) -> Vec<u64> {
        assert!(bits_each > 0 && bits_each <= 64);
        assert!(bits_each * count <= self.len, "decode overruns bit string");
        let field_mask = if bits_each == 64 {
            u64::MAX
        } else {
            (1u64 << bits_each) - 1
        };
        (0..count)
            .map(|field| {
                // Each field spans at most two words: shift-and-or instead
                // of reading bit by bit.
                let base = field * bits_each;
                let (word, off) = (base / 64, base % 64);
                let mut v = self.words[word] >> off;
                if off + bits_each > 64 {
                    v |= self.words[word + 1] << (64 - off);
                }
                v & field_mask
            })
            .collect()
    }

    /// Copies bits `[from, to)` of `src` into the same positions of `self`.
    /// Both strings must share the same length. Used by crossover operators.
    pub fn copy_range_from(&mut self, src: &Self, from: usize, to: usize) {
        assert_eq!(self.len, src.len, "copy_range_from: length mismatch");
        assert!(from <= to && to <= self.len, "bad range {from}..{to}");
        // Word-aligned fast path with partial-word masks at both ends.
        let mut i = from;
        while i < to {
            let word = i / 64;
            let bit = i % 64;
            let span = (64 - bit).min(to - i);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit
            };
            self.words[word] = (self.words[word] & !mask) | (src.words[word] & mask);
            i += span;
        }
    }

    /// Exchanges bits `[from, to)` with `other` in one XOR-masked pass over
    /// the shared words: `x = (a ^ b) & mask; a ^= x; b ^= x` produces both
    /// children of a segment crossover at once. Both strings must share the
    /// same length.
    pub fn swap_range_with(&mut self, other: &mut Self, from: usize, to: usize) {
        assert_eq!(self.len, other.len, "swap_range_with: length mismatch");
        assert!(from <= to && to <= self.len, "bad range {from}..{to}");
        let mut i = from;
        while i < to {
            let word = i / 64;
            let bit = i % 64;
            let span = (64 - bit).min(to - i);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit
            };
            let x = (self.words[word] ^ other.words[word]) & mask;
            self.words[word] ^= x;
            other.words[word] ^= x;
            i += span;
        }
    }

    /// Uniform crossover kernel: each locus swaps with `other` independently
    /// with probability `p`, using one Bernoulli(`p`) mask word per 64 loci
    /// instead of a per-bit coin flip. `p = 0.5` costs exactly one RNG draw
    /// per word.
    ///
    /// Canonical form is preserved for free: tail bits are zero in both
    /// parents, so the XOR-swap moves nothing beyond `len`.
    pub fn uniform_mix_with(&mut self, other: &mut Self, p: f64, rng: &mut Rng64) {
        assert_eq!(self.len, other.len, "uniform_mix_with: length mismatch");
        if p <= 0.0 || self.len == 0 {
            return;
        }
        if p >= 1.0 {
            std::mem::swap(&mut self.words, &mut other.words);
            return;
        }
        for (a, b) in self.words.iter_mut().zip(&mut other.words) {
            let x = (*a ^ *b) & bernoulli_word(p, rng);
            *a ^= x;
            *b ^= x;
        }
    }

    /// Two-regime bit-flip kernel: flips each bit independently with
    /// probability `p`.
    ///
    /// * Sparse (`p` below [`BitString::SPARSE_FLIP_THRESHOLD`]): geometric
    ///   gap sampling — one RNG draw and one `ln` per *flip*, so the cost
    ///   scales with `p · len`, not `len`. This is the `p = 1/len` regime.
    ///   The gaps need `ln_keep = ln(1 − p)`, i.e. `(-p).ln_1p()`, which
    ///   the caller supplies so that an operator flipping many genomes at
    ///   one rate (`ops::BitFlip`) computes it once.
    /// * Dense: one Bernoulli(`p`) mask word XORed per 64 loci.
    pub fn flip_bernoulli(&mut self, p: f64, ln_keep: f64, rng: &mut Rng64) {
        if self.len == 0 || p <= 0.0 {
            return;
        }
        if p >= 1.0 {
            for w in &mut self.words {
                *w = !*w;
            }
            self.mask_tail();
            return;
        }
        if p < Self::SPARSE_FLIP_THRESHOLD {
            // Gap between flips is geometric: floor(ln U / ln(1 - p)) with
            // U ~ (0, 1] (so ln U is finite).
            let mut i = 0usize;
            loop {
                let u = 1.0 - rng.next_f64();
                // The cast saturates for astronomically long gaps.
                let gap = (u.ln() / ln_keep) as usize;
                i = i.saturating_add(gap);
                if i >= self.len {
                    return;
                }
                self.words[i / 64] ^= 1u64 << (i % 64);
                i += 1;
            }
        }
        for w in &mut self.words {
            *w ^= bernoulli_word(p, rng);
        }
        self.mask_tail();
    }

    /// Flip rate below which [`BitString::flip_bernoulli`] switches to
    /// geometric gap sampling (expected flips per word under 2).
    pub const SPARSE_FLIP_THRESHOLD: f64 = 1.0 / 32.0;

    /// Clears the unused high bits of the final word (canonical form).
    fn mask_tail(&mut self) {
        let used = self.len % 64;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }

    /// Verifies the canonical-form invariant (test helper; cheap).
    #[doc(hidden)]
    #[must_use]
    pub fn tail_is_canonical(&self) -> bool {
        let used = self.len % 64;
        if used == 0 {
            return true;
        }
        match self.words.last() {
            Some(last) => last & !((1u64 << used) - 1) == 0,
            None => self.len == 0,
        }
    }
}

/// One 64-lane Bernoulli(`p`) mask: each bit is set independently with
/// probability `p`, quantized to 24 fractional bits.
///
/// Uses the binary-expansion trick: writing `p = 0.b₁b₂…bₖ` in binary and
/// folding fresh random words from the deepest bit upward via
/// `acc = bᵢ ? (r | acc) : (r & acc)` yields per-lane probability exactly
/// `0.b₁b₂…bₖ`. The draw count is the expansion depth of `p` (trailing
/// zero bits stripped), so `p = 0.5` costs one draw and `p = 0.25` two —
/// never more than 24.
pub fn bernoulli_word(p: f64, rng: &mut Rng64) -> u64 {
    const BITS: u32 = 24;
    let q = (p * f64::from(1u32 << BITS)).round();
    if q <= 0.0 {
        return 0;
    }
    let q = q as u64;
    if q >= u64::from(1u32 << BITS) {
        return u64::MAX;
    }
    // Bit (BITS-1) of q is b₁, bit 0 is b₂₄. Trailing zeros are expansion
    // bits below the deepest 1 and contribute nothing; leading zeros are
    // b₁=0-style AND folds and MUST be kept — the fold runs over exactly
    // `k = BITS - trailing_zeros` bits, deepest (b_k = 1) first.
    let tz = q.trailing_zeros();
    let q = q >> tz;
    let mut acc = rng.next_u64();
    for i in 1..(BITS - tz) {
        let r = rng.next_u64();
        acc = if (q >> i) & 1 == 1 { r | acc } else { r & acc };
    }
    acc
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"")?;
        for b in self.iter().take(64) {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        if self.len > 64 {
            write!(f, "…")?;
        }
        write!(f, "\", len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitString::zeros(130);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.len(), 130);
        let o = BitString::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(o.tail_is_canonical());
    }

    #[test]
    fn get_set_flip_roundtrip() {
        let mut s = BitString::zeros(100);
        s.set(0, true);
        s.set(63, true);
        s.set(64, true);
        s.set(99, true);
        assert!(s.get(0) && s.get(63) && s.get(64) && s.get(99));
        assert_eq!(s.count_ones(), 4);
        s.flip(63);
        assert!(!s.get(63));
        assert_eq!(s.count_ones(), 3);
        assert!(s.tail_is_canonical());
    }

    #[test]
    fn random_is_roughly_half_ones() {
        let mut rng = Rng64::new(1);
        let s = BitString::random(10_000, &mut rng);
        let ones = s.count_ones();
        assert!((4500..5500).contains(&ones), "ones = {ones}");
        assert!(s.tail_is_canonical());
    }

    #[test]
    fn hamming_distance() {
        let a = BitString::zeros(70);
        let b = BitString::ones(70);
        assert_eq!(a.hamming(&b), 70);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = [true, false, true, true, false];
        let s = BitString::from_bits(bits);
        assert_eq!(s.iter().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn decode_uints_lsb_first() {
        // Fields of 4 bits: 0b0011 = 3, 0b0100 = 4.
        let s = BitString::from_bits([
            true, true, false, false, // 3
            false, false, true, false, // 4
        ]);
        assert_eq!(s.decode_uints(4, 2), vec![3, 4]);
    }

    #[test]
    fn copy_range_word_spanning() {
        let mut rng = Rng64::new(5);
        for (from, to) in [
            (0, 200),
            (3, 130),
            (60, 70),
            (64, 128),
            (10, 10),
            (199, 200),
        ] {
            let a = BitString::random(200, &mut rng);
            let b = BitString::random(200, &mut rng);
            let mut c = a.clone();
            c.copy_range_from(&b, from, to);
            for i in 0..200 {
                let expect = if (from..to).contains(&i) {
                    b.get(i)
                } else {
                    a.get(i)
                };
                assert_eq!(c.get(i), expect, "bit {i} for range {from}..{to}");
            }
            assert!(c.tail_is_canonical());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitString::zeros(10).get(10);
    }

    #[test]
    fn from_words_roundtrip_and_tail_masking() {
        let s = BitString::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(s.count_ones(), 70);
        assert!(s.tail_is_canonical());
        assert_eq!(s.words(), BitString::ones(70).words());
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn from_words_length_mismatch_panics() {
        let _ = BitString::from_words(vec![0], 65);
    }

    #[test]
    fn swap_range_matches_copy_range() {
        let mut rng = Rng64::new(11);
        for (from, to) in [(0, 200), (3, 130), (60, 70), (64, 128), (10, 10)] {
            let a = BitString::random(200, &mut rng);
            let b = BitString::random(200, &mut rng);
            let (mut c, mut d) = (a.clone(), b.clone());
            c.swap_range_with(&mut d, from, to);
            let mut rc = a.clone();
            rc.copy_range_from(&b, from, to);
            let mut rd = b.clone();
            rd.copy_range_from(&a, from, to);
            assert_eq!(c, rc, "child c, range {from}..{to}");
            assert_eq!(d, rd, "child d, range {from}..{to}");
            assert!(c.tail_is_canonical() && d.tail_is_canonical());
        }
    }

    #[test]
    fn uniform_mix_edge_probabilities() {
        let mut rng = Rng64::new(12);
        let (mut a, mut b) = (BitString::ones(90), BitString::zeros(90));
        a.uniform_mix_with(&mut b, 0.0, &mut rng);
        assert_eq!(a.count_ones(), 90);
        a.uniform_mix_with(&mut b, 1.0, &mut rng);
        assert_eq!(a.count_ones(), 0);
        assert_eq!(b.count_ones(), 90);
    }

    #[test]
    fn uniform_mix_conserves_locus_material() {
        let mut rng = Rng64::new(13);
        for p in [0.1, 0.5, 0.9] {
            let (mut a, mut b) = (BitString::ones(150), BitString::zeros(150));
            a.uniform_mix_with(&mut b, p, &mut rng);
            for i in 0..150 {
                assert_ne!(a.get(i), b.get(i), "p={p} locus {i}");
            }
            assert!(a.tail_is_canonical() && b.tail_is_canonical());
        }
    }

    #[test]
    fn flip_bernoulli_edge_probabilities() {
        let mut rng = Rng64::new(14);
        let mut s = BitString::zeros(100);
        s.flip_bernoulli(0.0, 0.0, &mut rng);
        assert_eq!(s.count_ones(), 0);
        s.flip_bernoulli(1.0, f64::NEG_INFINITY, &mut rng);
        assert_eq!(s.count_ones(), 100);
        assert!(s.tail_is_canonical());
        s.flip_bernoulli(1.0, f64::NEG_INFINITY, &mut rng);
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn flip_bernoulli_rate_both_regimes() {
        let mut rng = Rng64::new(15);
        // One p per regime (sparse gap sampling vs dense word masks).
        for p in [0.01, 0.2] {
            let mut flips = 0usize;
            let (trials, len) = (400, 1000);
            for _ in 0..trials {
                let mut s = BitString::zeros(len);
                s.flip_bernoulli(p, (-p).ln_1p(), &mut rng);
                assert!(s.tail_is_canonical());
                flips += s.count_ones();
            }
            let rate = flips as f64 / (trials * len) as f64;
            assert!((rate - p).abs() < 0.15 * p + 0.002, "p={p} rate {rate}");
        }
    }

    #[test]
    fn bernoulli_word_rates() {
        let mut rng = Rng64::new(16);
        for p in [0.125, 0.3, 0.5, 0.875] {
            let mut ones = 0u32;
            let draws = 4000;
            for _ in 0..draws {
                ones += bernoulli_word(p, &mut rng).count_ones();
            }
            let rate = f64::from(ones) / f64::from(draws * 64);
            assert!((rate - p).abs() < 0.01, "p={p} rate {rate}");
        }
        assert_eq!(bernoulli_word(0.0, &mut rng), 0);
        assert_eq!(bernoulli_word(1.0, &mut rng), u64::MAX);
    }

    #[test]
    fn empty_string_is_fine() {
        let s = BitString::zeros(0);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        assert!(s.tail_is_canonical());
    }
}
