//! Recombination operators for each genome representation.

use crate::repr::{BitString, Bounds, IntVector, Permutation, RealVector};
use crate::rng::Rng64;

/// A recombination operator producing two offspring from two parents.
pub trait Crossover<G>: Send + Sync {
    /// Recombines two parents into two offspring.
    fn crossover(&self, a: &G, b: &G, rng: &mut Rng64) -> (G, G);

    /// Recombines two parents into the recycled offspring `c` and `d`,
    /// overwriting whatever they held (of any length), with the same
    /// children and the same draws from `rng` as
    /// [`crossover`](Self::crossover). Engines breed through it so a
    /// generation reuses the genomes of the one it replaces.
    ///
    /// The default assigns `crossover`'s result; the bit-string operators
    /// write in place and implement `crossover` as a wrapper over this.
    fn crossover_into(&self, a: &G, b: &G, c: &mut G, d: &mut G, rng: &mut Rng64) {
        (*c, *d) = self.crossover(a, b, rng);
    }

    /// Operator name for harness tables.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Binary / positional crossovers (BitString, RealVector, IntVector)
// ---------------------------------------------------------------------------

/// Single-point crossover: exchange the suffix after a random cut.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnePoint;

/// Two-point crossover: exchange the segment between two random cuts.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoPoint;

/// Parameterized uniform crossover: each locus swaps with probability `p`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    /// Per-locus swap probability, typically 0.5.
    pub p: f64,
}

impl Uniform {
    /// Uniform crossover with swap probability 0.5.
    #[must_use]
    pub fn half() -> Self {
        Self { p: 0.5 }
    }
}

/// `crossover` of an operator that writes in place: clones the parents,
/// then recombines into the clones.
pub(crate) fn clone_then_into<G: Clone, X: Crossover<G> + ?Sized>(
    op: &X,
    a: &G,
    b: &G,
    rng: &mut Rng64,
) -> (G, G) {
    let (mut c, mut d) = (a.clone(), b.clone());
    op.crossover_into(a, b, &mut c, &mut d, rng);
    (c, d)
}

/// Overwrites the recycled offspring with copies of the parents, the
/// starting point of every in-place bit-string crossover.
pub(crate) fn copy_parents(a: &BitString, b: &BitString, c: &mut BitString, d: &mut BitString) {
    assert_eq!(a.len(), b.len(), "crossover: length mismatch");
    c.clone_from(a);
    d.clone_from(b);
}

impl Crossover<BitString> for OnePoint {
    fn crossover(&self, a: &BitString, b: &BitString, rng: &mut Rng64) -> (BitString, BitString) {
        clone_then_into(self, a, b, rng)
    }

    fn crossover_into(
        &self,
        a: &BitString,
        b: &BitString,
        c: &mut BitString,
        d: &mut BitString,
        rng: &mut Rng64,
    ) {
        copy_parents(a, b, c, d);
        let n = a.len();
        if n >= 2 {
            let cut = rng.range_usize(1, n);
            // One XOR-masked pass yields both children.
            c.swap_range_with(d, cut, n);
        }
    }

    fn name(&self) -> &'static str {
        "one-point"
    }
}

impl Crossover<BitString> for TwoPoint {
    fn crossover(&self, a: &BitString, b: &BitString, rng: &mut Rng64) -> (BitString, BitString) {
        clone_then_into(self, a, b, rng)
    }

    fn crossover_into(
        &self,
        a: &BitString,
        b: &BitString,
        c: &mut BitString,
        d: &mut BitString,
        rng: &mut Rng64,
    ) {
        copy_parents(a, b, c, d);
        let n = a.len();
        if n >= 2 {
            let (x, y) = rng.two_distinct(n);
            // Inclusive segment [lo, hi]: hi can be n-1, so the last locus
            // is exchangeable like every other (cuts from [0,n) would
            // otherwise leave locus n-1 permanently unswappable).
            let (lo, hi) = (x.min(y), x.max(y));
            c.swap_range_with(d, lo, hi + 1);
        }
    }

    fn name(&self) -> &'static str {
        "two-point"
    }
}

impl Crossover<BitString> for Uniform {
    fn crossover(&self, a: &BitString, b: &BitString, rng: &mut Rng64) -> (BitString, BitString) {
        clone_then_into(self, a, b, rng)
    }

    fn crossover_into(
        &self,
        a: &BitString,
        b: &BitString,
        c: &mut BitString,
        d: &mut BitString,
        rng: &mut Rng64,
    ) {
        // Word-level mask kernel: one Bernoulli(p) mask per 64 loci (a
        // single RNG draw per word at p = 0.5) instead of a coin flip per
        // bit. The scalar loop is retained as `ops::scalar::ScalarUniform`.
        copy_parents(a, b, c, d);
        c.uniform_mix_with(d, self.p, rng);
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

impl Crossover<RealVector> for OnePoint {
    fn crossover(
        &self,
        a: &RealVector,
        b: &RealVector,
        rng: &mut Rng64,
    ) -> (RealVector, RealVector) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let n = a.len();
        let mut c = a.values().to_vec();
        let mut d = b.values().to_vec();
        if n >= 2 {
            let cut = rng.range_usize(1, n);
            c[cut..].copy_from_slice(&b.values()[cut..]);
            d[cut..].copy_from_slice(&a.values()[cut..]);
        }
        (RealVector::new(c), RealVector::new(d))
    }

    fn name(&self) -> &'static str {
        "one-point"
    }
}

impl Crossover<RealVector> for Uniform {
    fn crossover(
        &self,
        a: &RealVector,
        b: &RealVector,
        rng: &mut Rng64,
    ) -> (RealVector, RealVector) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let mut c = a.values().to_vec();
        let mut d = b.values().to_vec();
        for i in 0..c.len() {
            if rng.chance(self.p) {
                std::mem::swap(&mut c[i], &mut d[i]);
            }
        }
        (RealVector::new(c), RealVector::new(d))
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

impl Crossover<IntVector> for OnePoint {
    fn crossover(&self, a: &IntVector, b: &IntVector, rng: &mut Rng64) -> (IntVector, IntVector) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        assert_eq!(a.bounds(), b.bounds(), "crossover: bounds mismatch");
        let (lo, hi) = a.bounds();
        let n = a.len();
        let mut c = a.values().to_vec();
        let mut d = b.values().to_vec();
        if n >= 2 {
            let cut = rng.range_usize(1, n);
            c[cut..].copy_from_slice(&b.values()[cut..]);
            d[cut..].copy_from_slice(&a.values()[cut..]);
        }
        (IntVector::new(c, lo, hi), IntVector::new(d, lo, hi))
    }

    fn name(&self) -> &'static str {
        "one-point"
    }
}

impl Crossover<IntVector> for Uniform {
    fn crossover(&self, a: &IntVector, b: &IntVector, rng: &mut Rng64) -> (IntVector, IntVector) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        assert_eq!(a.bounds(), b.bounds(), "crossover: bounds mismatch");
        let (lo, hi) = a.bounds();
        let mut c = a.values().to_vec();
        let mut d = b.values().to_vec();
        for i in 0..c.len() {
            if rng.chance(self.p) {
                std::mem::swap(&mut c[i], &mut d[i]);
            }
        }
        (IntVector::new(c, lo, hi), IntVector::new(d, lo, hi))
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

// ---------------------------------------------------------------------------
// Real-coded crossovers
// ---------------------------------------------------------------------------

/// BLX-α blend crossover (Eshelman & Schaffer 1993): each offspring gene is
/// uniform in the parental interval extended by `alpha` on both sides,
/// clamped to the bounds.
#[derive(Clone, Debug)]
pub struct BlxAlpha {
    /// Interval extension factor; 0.5 is the standard choice.
    pub alpha: f64,
    /// Box constraints used to clamp offspring.
    pub bounds: Bounds,
}

impl BlxAlpha {
    /// BLX with the classic α = 0.5.
    #[must_use]
    pub fn new(bounds: Bounds) -> Self {
        Self { alpha: 0.5, bounds }
    }
}

impl Crossover<RealVector> for BlxAlpha {
    fn crossover(
        &self,
        a: &RealVector,
        b: &RealVector,
        rng: &mut Rng64,
    ) -> (RealVector, RealVector) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let gen_child = |rng: &mut Rng64| {
            let values = (0..a.len())
                .map(|i| {
                    let (x, y) = (a[i].min(b[i]), a[i].max(b[i]));
                    let span = y - x;
                    let lo = x - self.alpha * span;
                    let hi = y + self.alpha * span;
                    self.bounds
                        .clamp(i, rng.range_f64(lo, hi + f64::MIN_POSITIVE))
                })
                .collect();
            RealVector::new(values)
        };
        let c = gen_child(rng);
        let d = gen_child(rng);
        (c, d)
    }

    fn name(&self) -> &'static str {
        "blx-alpha"
    }
}

/// Simulated binary crossover (Deb & Agrawal 1995) with distribution index
/// `eta`; larger `eta` keeps offspring closer to the parents.
#[derive(Clone, Debug)]
pub struct Sbx {
    /// Distribution index (typically 2–20).
    pub eta: f64,
    /// Box constraints used to clamp offspring.
    pub bounds: Bounds,
}

impl Sbx {
    /// SBX with a moderate distribution index of 10.
    #[must_use]
    pub fn new(bounds: Bounds) -> Self {
        Self { eta: 10.0, bounds }
    }
}

impl Crossover<RealVector> for Sbx {
    fn crossover(
        &self,
        a: &RealVector,
        b: &RealVector,
        rng: &mut Rng64,
    ) -> (RealVector, RealVector) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let mut c = Vec::with_capacity(a.len());
        let mut d = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (x, y) = (a[i], b[i]);
            let u = rng.next_f64();
            let beta = if u <= 0.5 {
                (2.0 * u).powf(1.0 / (self.eta + 1.0))
            } else {
                (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (self.eta + 1.0))
            };
            let c1 = 0.5 * ((1.0 + beta) * x + (1.0 - beta) * y);
            let c2 = 0.5 * ((1.0 - beta) * x + (1.0 + beta) * y);
            c.push(self.bounds.clamp(i, c1));
            d.push(self.bounds.clamp(i, c2));
        }
        (RealVector::new(c), RealVector::new(d))
    }

    fn name(&self) -> &'static str {
        "sbx"
    }
}

/// Whole-arithmetic crossover: offspring are convex combinations
/// `λ·a + (1−λ)·b` with a fresh `λ ~ U(0,1)` per call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Arithmetic;

impl Crossover<RealVector> for Arithmetic {
    fn crossover(
        &self,
        a: &RealVector,
        b: &RealVector,
        rng: &mut Rng64,
    ) -> (RealVector, RealVector) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let lambda = rng.next_f64();
        let c = (0..a.len())
            .map(|i| lambda * a[i] + (1.0 - lambda) * b[i])
            .collect::<Vec<_>>();
        let d = (0..a.len())
            .map(|i| (1.0 - lambda) * a[i] + lambda * b[i])
            .collect::<Vec<_>>();
        (RealVector::new(c), RealVector::new(d))
    }

    fn name(&self) -> &'static str {
        "arithmetic"
    }
}

// ---------------------------------------------------------------------------
// Permutation crossovers
// ---------------------------------------------------------------------------

/// Partially mapped crossover (Goldberg & Lingle 1985).
#[derive(Clone, Copy, Debug, Default)]
pub struct Pmx;

fn pmx_child(a: &Permutation, b: &Permutation, lo: usize, hi: usize) -> Permutation {
    // Child keeps a[lo..=hi]; remaining positions take b's values, with
    // conflicts resolved through the mapping a[i] <-> b[i] on the segment.
    let n = a.len();
    let mut child: Vec<u32> = b.order().to_vec();
    let mut pos_in_child = b.inverse();
    for i in lo..=hi {
        let va = a.order()[i];
        let vb = child[i];
        if va != vb {
            let pa = pos_in_child[va as usize] as usize;
            child.swap(i, pa);
            pos_in_child[va as usize] = i as u32;
            pos_in_child[vb as usize] = pa as u32;
        }
    }
    debug_assert_eq!(child.len(), n);
    Permutation::new(child)
}

impl Crossover<Permutation> for Pmx {
    fn crossover(
        &self,
        a: &Permutation,
        b: &Permutation,
        rng: &mut Rng64,
    ) -> (Permutation, Permutation) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let n = a.len();
        if n < 2 {
            return (a.clone(), b.clone());
        }
        let (x, y) = rng.two_distinct(n);
        let (lo, hi) = (x.min(y), x.max(y));
        (pmx_child(a, b, lo, hi), pmx_child(b, a, lo, hi))
    }

    fn name(&self) -> &'static str {
        "pmx"
    }
}

/// Order crossover OX (Davis 1985): keep a segment from one parent, fill the
/// rest in the circular order of the other parent.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ox;

fn ox_child(a: &Permutation, b: &Permutation, lo: usize, hi: usize) -> Permutation {
    let n = a.len();
    let mut used = vec![false; n];
    for i in lo..=hi {
        used[a.order()[i] as usize] = true;
    }
    let mut child = vec![u32::MAX; n];
    child[lo..=hi].copy_from_slice(&a.order()[lo..=hi]);
    // Fill from position hi+1 onward, taking b's values starting after hi.
    let mut write = (hi + 1) % n;
    for k in 0..n {
        let v = b.order()[(hi + 1 + k) % n];
        if !used[v as usize] {
            child[write] = v;
            write = (write + 1) % n;
        }
    }
    Permutation::new(child)
}

impl Crossover<Permutation> for Ox {
    fn crossover(
        &self,
        a: &Permutation,
        b: &Permutation,
        rng: &mut Rng64,
    ) -> (Permutation, Permutation) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let n = a.len();
        if n < 2 {
            return (a.clone(), b.clone());
        }
        let (x, y) = rng.two_distinct(n);
        let (lo, hi) = (x.min(y), x.max(y));
        (ox_child(a, b, lo, hi), ox_child(b, a, lo, hi))
    }

    fn name(&self) -> &'static str {
        "ox"
    }
}

/// Cycle crossover CX (Oliver et al. 1987): offspring inherit whole
/// value-cycles alternately, so every gene comes from one parent at the same
/// absolute position.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cx;

impl Crossover<Permutation> for Cx {
    fn crossover(
        &self,
        a: &Permutation,
        b: &Permutation,
        _rng: &mut Rng64,
    ) -> (Permutation, Permutation) {
        assert_eq!(a.len(), b.len(), "crossover: length mismatch");
        let n = a.len();
        let mut c = vec![u32::MAX; n];
        let mut d = vec![u32::MAX; n];
        let inv_a = a.inverse();
        let mut visited = vec![false; n];
        let mut take_from_a = true;
        for start in 0..n {
            if visited[start] {
                continue;
            }
            // Trace the cycle containing `start`.
            let mut i = start;
            loop {
                visited[i] = true;
                if take_from_a {
                    c[i] = a.order()[i];
                    d[i] = b.order()[i];
                } else {
                    c[i] = b.order()[i];
                    d[i] = a.order()[i];
                }
                i = inv_a[b.order()[i] as usize] as usize;
                if i == start {
                    break;
                }
            }
            take_from_a = !take_from_a;
        }
        (Permutation::new(c), Permutation::new(d))
    }

    fn name(&self) -> &'static str {
        "cx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng64 {
        Rng64::new(1234)
    }

    // --- binary ---

    #[test]
    fn onepoint_bits_preserves_material() {
        let mut r = rng();
        let a = BitString::ones(50);
        let b = BitString::zeros(50);
        let (c, d) = OnePoint.crossover(&a, &b, &mut r);
        // Every locus: {c,d} = {1,0} in some order.
        for i in 0..50 {
            assert_ne!(c.get(i), d.get(i));
        }
        assert_eq!(c.count_ones() + d.count_ones(), 50);
        // Child c must be a prefix of ones then zeros.
        let ones = c.count_ones();
        assert!((0..ones).all(|i| c.get(i)) && (ones..50).all(|i| !c.get(i)));
    }

    #[test]
    fn twopoint_bits_swaps_one_segment() {
        let mut r = rng();
        for _ in 0..50 {
            let a = BitString::ones(64);
            let b = BitString::zeros(64);
            let (c, _) = TwoPoint.crossover(&a, &b, &mut r);
            // Pattern must be 1* 0* 1* (one contiguous zero block).
            let s: Vec<bool> = c.iter().collect();
            let transitions = s.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(transitions <= 2, "more than one swapped segment");
        }
    }

    #[test]
    fn uniform_bits_p0_and_p1() {
        let mut r = rng();
        let a = BitString::ones(40);
        let b = BitString::zeros(40);
        let (c, d) = Uniform { p: 0.0 }.crossover(&a, &b, &mut r);
        assert_eq!(c.count_ones(), 40);
        assert_eq!(d.count_ones(), 0);
        let (c, d) = Uniform { p: 1.0 }.crossover(&a, &b, &mut r);
        assert_eq!(c.count_ones(), 0);
        assert_eq!(d.count_ones(), 40);
    }

    #[test]
    fn short_genomes_pass_through() {
        let mut r = rng();
        let a = BitString::ones(1);
        let b = BitString::zeros(1);
        let (c, d) = OnePoint.crossover(&a, &b, &mut r);
        assert_eq!(c.count_ones(), 1);
        assert_eq!(d.count_ones(), 0);
    }

    // --- real ---

    #[test]
    fn blx_respects_bounds() {
        let mut r = rng();
        let bounds = Bounds::uniform(-1.0, 1.0, 5);
        let op = BlxAlpha {
            alpha: 0.8,
            bounds: bounds.clone(),
        };
        let a = RealVector::new(vec![-1.0; 5]);
        let b = RealVector::new(vec![1.0; 5]);
        for _ in 0..100 {
            let (c, d) = op.crossover(&a, &b, &mut r);
            assert!(bounds.contains(&c));
            assert!(bounds.contains(&d));
        }
    }

    #[test]
    fn sbx_respects_bounds_and_centers() {
        let mut r = rng();
        let bounds = Bounds::uniform(0.0, 10.0, 3);
        let op = Sbx {
            eta: 15.0,
            bounds: bounds.clone(),
        };
        let a = RealVector::new(vec![4.0; 3]);
        let b = RealVector::new(vec![6.0; 3]);
        let mut mean = 0.0;
        let reps = 2000;
        for _ in 0..reps {
            let (c, d) = op.crossover(&a, &b, &mut r);
            assert!(bounds.contains(&c) && bounds.contains(&d));
            mean += c[0] + d[0];
        }
        // SBX preserves the parental mean on average.
        mean /= (2 * reps) as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn arithmetic_stays_in_convex_hull() {
        let mut r = rng();
        let a = RealVector::new(vec![0.0, 10.0]);
        let b = RealVector::new(vec![1.0, 20.0]);
        for _ in 0..100 {
            let (c, d) = Arithmetic.crossover(&a, &b, &mut r);
            assert!((0.0..=1.0).contains(&c[0]) && (10.0..=20.0).contains(&c[1]));
            // Sum of the pair equals sum of parents (mass conservation).
            assert!((c[0] + d[0] - 1.0).abs() < 1e-12);
        }
    }

    // --- permutation ---

    fn perm_ops() -> Vec<Box<dyn Crossover<Permutation>>> {
        vec![Box::new(Pmx), Box::new(Ox), Box::new(Cx)]
    }

    #[test]
    fn permutation_crossovers_preserve_closure() {
        let mut r = rng();
        for op in perm_ops() {
            for n in [2usize, 3, 5, 17, 64] {
                for _ in 0..50 {
                    let a = Permutation::random(n, &mut r);
                    let b = Permutation::random(n, &mut r);
                    let (c, d) = op.crossover(&a, &b, &mut r);
                    assert!(c.is_valid(), "{} n={n} child c invalid", op.name());
                    assert!(d.is_valid(), "{} n={n} child d invalid", op.name());
                    assert_eq!(c.len(), n);
                    assert_eq!(d.len(), n);
                }
            }
        }
    }

    #[test]
    fn identical_parents_produce_identical_children() {
        let mut r = rng();
        for op in perm_ops() {
            let a = Permutation::random(20, &mut r);
            let (c, d) = op.crossover(&a, &a.clone(), &mut r);
            assert_eq!(c, a, "{}", op.name());
            assert_eq!(d, a, "{}", op.name());
        }
    }

    #[test]
    fn cx_genes_come_from_a_parent_at_same_position() {
        let mut r = rng();
        let a = Permutation::random(30, &mut r);
        let b = Permutation::random(30, &mut r);
        let (c, d) = Cx.crossover(&a, &b, &mut r);
        for i in 0..30 {
            assert!(c.order()[i] == a.order()[i] || c.order()[i] == b.order()[i]);
            assert!(d.order()[i] == a.order()[i] || d.order()[i] == b.order()[i]);
        }
    }

    #[test]
    fn ox_keeps_segment_from_first_parent() {
        // Deterministic check with a fixed segment via repeated sampling:
        // children must contain some contiguous run identical to parent a.
        let mut r = rng();
        let a = Permutation::new((0..10).collect());
        let b = Permutation::new((0..10).rev().collect());
        let (c, _) = Ox.crossover(&a, &b, &mut r);
        assert!(c.is_valid());
        // At least one position must match parent a (its kept segment).
        assert!(c.order().iter().zip(a.order()).any(|(x, y)| x == y));
    }
}
