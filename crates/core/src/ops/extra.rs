//! Additional operators from the wider GA literature: n-point and HUX
//! crossover, exponential-rank and Boltzmann selection, and self-adaptive
//! Gaussian mutation (the 1/5-success rule).

use crate::ops::crossover::{clone_then_into, copy_parents, Crossover};
use crate::ops::mutation::Mutation;
use crate::ops::selection::Selection;
use crate::population::Population;
use crate::problem::Objective;
use crate::repr::{BitString, Bounds, Genome, RealVector};
use crate::rng::Rng64;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Per-thread index buffers of the n-point and HUX crossovers (cut
    /// points; differing loci and picks), so a call allocates only while
    /// a thread's buffers grow to the genome length.
    static SCRATCH: RefCell<(Vec<usize>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// n-point crossover for bit strings: exchanges alternating segments
/// between `n` sorted random cut points.
#[derive(Clone, Copy, Debug)]
pub struct NPoint {
    /// Number of cut points (≥ 1).
    pub n: usize,
}

impl NPoint {
    /// Creates an n-point crossover; panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one cut point");
        Self { n }
    }
}

impl Crossover<BitString> for NPoint {
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
        let len = a.len();
        if len < 2 {
            return;
        }
        let cuts_wanted = self.n.min(len - 1);
        SCRATCH.with_borrow_mut(|(cuts, _)| {
            rng.sample_distinct_into(len - 1, cuts_wanted, cuts);
            for cut in cuts.iter_mut() {
                *cut += 1; // cut positions in 1..len
            }
            cuts.sort_unstable();
            cuts.push(len);
            let mut swap = false;
            let mut start = 0usize;
            for &end in cuts.iter() {
                if swap {
                    // XOR-mask segment kernel: both children in one word pass.
                    c.swap_range_with(d, start, end);
                }
                swap = !swap;
                start = end;
            }
        });
    }

    fn name(&self) -> &'static str {
        "n-point"
    }
}

/// HUX crossover (Eshelman's CHC): exchanges exactly half of the differing
/// bits, maximizing offspring distance from both parents.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hux;

impl Crossover<BitString> for Hux {
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
        SCRATCH.with_borrow_mut(|(differing, picks)| {
            // Differing loci fall out of the XOR words via popcount
            // iteration (clear-lowest-set-bit), skipping identical words.
            differing.clear();
            differing.reserve(a.len());
            for (wi, (wa, wb)) in a.words().iter().zip(b.words()).enumerate() {
                let mut x = wa ^ wb;
                while x != 0 {
                    differing.push(wi * 64 + x.trailing_zeros() as usize);
                    x &= x - 1;
                }
            }
            if differing.len() < 2 {
                return;
            }
            picks.clear();
            picks.reserve(a.len());
            rng.sample_distinct_into(differing.len(), differing.len() / 2, picks);
            for &k in picks.iter() {
                // At a differing locus, swapping the parents' bits is a
                // flip of both children.
                c.flip(differing[k]);
                d.flip(differing[k]);
            }
        });
    }

    fn name(&self) -> &'static str {
        "hux"
    }
}

/// Exponential ranking selection: rank `r` (0 = best) is chosen with weight
/// `w^r` for `w ∈ (0, 1)`; smaller `w` means stronger pressure.
#[derive(Clone, Copy, Debug)]
pub struct ExponentialRank {
    /// Per-rank decay factor in `(0, 1)`.
    pub w: f64,
}

impl ExponentialRank {
    /// Creates the selector; panics unless `0 < w < 1`.
    #[must_use]
    pub fn new(w: f64) -> Self {
        assert!(w > 0.0 && w < 1.0, "decay factor must be in (0, 1)");
        Self { w }
    }
}

impl<G: Genome> Selection<G> for ExponentialRank {
    fn select(&self, pop: &Population<G>, objective: Objective, rng: &mut Rng64) -> usize {
        let n = pop.len();
        assert!(n > 0, "selection from empty population");
        let ranked = pop.top_k_indices(objective, n);
        // Inverse-CDF sample of the truncated geometric distribution.
        let total = (1.0 - self.w.powi(n as i32)) / (1.0 - self.w);
        let mut target = rng.next_f64() * total;
        for (r, &idx) in ranked.iter().enumerate() {
            let weight = self.w.powi(r as i32);
            if target < weight {
                return idx;
            }
            target -= weight;
        }
        *ranked.last().expect("non-empty")
    }

    fn name(&self) -> &'static str {
        "exponential-rank"
    }
}

/// Boltzmann selection: fitness-proportionate over `exp(f / T)` (maximize)
/// or `exp(−f / T)` (minimize). High temperature ⇒ uniform; low ⇒ greedy.
#[derive(Clone, Copy, Debug)]
pub struct Boltzmann {
    /// Temperature (> 0).
    pub temperature: f64,
}

impl Boltzmann {
    /// Creates the selector; panics unless `temperature > 0`.
    #[must_use]
    pub fn new(temperature: f64) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        Self { temperature }
    }
}

impl<G: Genome> Selection<G> for Boltzmann {
    fn select(&self, pop: &Population<G>, objective: Objective, rng: &mut Rng64) -> usize {
        let n = pop.len();
        assert!(n > 0, "selection from empty population");
        // Shift by the best fitness for numerical stability.
        let sign = match objective {
            Objective::Maximize => 1.0,
            Objective::Minimize => -1.0,
        };
        let best = pop.members()[pop.best_index(objective)].fitness();
        let weights: Vec<f64> = pop
            .members()
            .iter()
            .map(|m| (sign * (m.fitness() - best) / self.temperature).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        let mut target = rng.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        n - 1
    }

    fn name(&self) -> &'static str {
        "boltzmann"
    }
}

/// Self-adaptive Gaussian mutation following Rechenberg's 1/5-success rule:
/// the step size grows when more than 1/5 of recent mutations were counted
/// successful (via [`AdaptiveGaussian::report_success`]) and shrinks
/// otherwise.
///
/// Thread-safe: the shared step state is atomic, so one operator instance
/// can serve a master–slave evaluator.
#[derive(Debug)]
pub struct AdaptiveGaussian {
    /// Per-gene mutation probability.
    pub p: f64,
    /// Box constraints for clamping.
    pub bounds: Bounds,
    /// Current step size, stored as bits of an `f64`.
    sigma_bits: AtomicU64,
    successes: AtomicU64,
    trials: AtomicU64,
    window: u64,
}

impl AdaptiveGaussian {
    /// Creates the operator with an initial step size and adaptation window
    /// (number of reported trials between step updates).
    #[must_use]
    pub fn new(p: f64, sigma0: f64, bounds: Bounds, window: u64) -> Self {
        assert!(sigma0 > 0.0, "initial sigma must be positive");
        assert!(window >= 1, "window must be >= 1");
        Self {
            p,
            bounds,
            sigma_bits: AtomicU64::new(sigma0.to_bits()),
            successes: AtomicU64::new(0),
            trials: AtomicU64::new(0),
            window,
        }
    }

    /// Current step size.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        f64::from_bits(self.sigma_bits.load(Ordering::Relaxed))
    }

    /// Reports whether a mutated offspring improved on its parent. Every
    /// `window` reports, the step adapts: ×1.22 if the success rate exceeds
    /// 1/5, ÷1.22 otherwise.
    pub fn report_success(&self, improved: bool) {
        if improved {
            self.successes.fetch_add(1, Ordering::Relaxed);
        }
        let t = self.trials.fetch_add(1, Ordering::Relaxed) + 1;
        if t.is_multiple_of(self.window) {
            let s = self.successes.swap(0, Ordering::Relaxed);
            let rate = s as f64 / self.window as f64;
            let sigma = self.sigma();
            let new_sigma = if rate > 0.2 {
                sigma * 1.22
            } else {
                sigma / 1.22
            };
            self.sigma_bits
                .store(new_sigma.max(1e-12).to_bits(), Ordering::Relaxed);
        }
    }
}

impl Mutation<RealVector> for AdaptiveGaussian {
    fn mutate(&self, genome: &mut RealVector, rng: &mut Rng64) {
        let sigma = self.sigma();
        for i in 0..genome.len() {
            if rng.chance(self.p) {
                let v = genome.values()[i] + rng.gaussian_with(0.0, sigma);
                genome.values_mut()[i] = self.bounds.clamp(i, v);
            }
        }
    }

    fn name(&self) -> &'static str {
        "adaptive-gaussian"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::individual::Individual;

    fn rng() -> Rng64 {
        Rng64::new(99)
    }

    #[test]
    fn npoint_preserves_locus_material() {
        let mut r = rng();
        for n in [1usize, 2, 3, 7] {
            let op = NPoint::new(n);
            let a = BitString::ones(64);
            let b = BitString::zeros(64);
            let (c, d) = op.crossover(&a, &b, &mut r);
            for i in 0..64 {
                assert_ne!(c.get(i), d.get(i), "n={n} locus {i}");
            }
            // Number of segment transitions is at most n.
            let s: Vec<bool> = c.iter().collect();
            let transitions = s.windows(2).filter(|w| w[0] != w[1]).count();
            assert!(transitions <= n, "n={n}: {transitions} transitions");
        }
    }

    #[test]
    fn npoint_one_equals_classic_behaviour() {
        let mut r = rng();
        let a = BitString::ones(32);
        let b = BitString::zeros(32);
        let (c, _) = NPoint::new(1).crossover(&a, &b, &mut r);
        let ones = c.count_ones();
        assert!((0..ones).all(|i| c.get(i)) && (ones..32).all(|i| !c.get(i)));
    }

    #[test]
    fn hux_swaps_exactly_half_of_differences() {
        let mut r = rng();
        let a = BitString::ones(40);
        let b = BitString::zeros(40);
        let (c, d) = Hux.crossover(&a, &b, &mut r);
        // 40 differing bits: each child flips exactly 20 relative to its parent.
        assert_eq!(c.hamming(&a), 20);
        assert_eq!(d.hamming(&b), 20);
        // Locus conservation.
        for i in 0..40 {
            assert_ne!(c.get(i), d.get(i));
        }
    }

    #[test]
    fn hux_identical_parents_are_fixed_points() {
        let mut r = rng();
        let a = BitString::random(32, &mut r);
        let (c, d) = Hux.crossover(&a, &a.clone(), &mut r);
        assert_eq!(c, a);
        assert_eq!(d, a);
    }

    fn pop(fs: &[f64]) -> Population<Vec<f64>> {
        Population::new(
            fs.iter()
                .map(|&f| Individual::evaluated(vec![f], f))
                .collect(),
        )
    }

    #[test]
    fn exponential_rank_prefers_best_strongly() {
        let p = pop(&[1.0, 2.0, 3.0, 4.0]);
        let sel = ExponentialRank::new(0.5);
        let mut r = rng();
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            counts[sel.select(&p, Objective::Maximize, &mut r)] += 1;
        }
        // Weights 1, .5, .25, .125 over ranks best..worst.
        assert!(counts[3] > counts[2] && counts[2] > counts[1] && counts[1] > counts[0]);
        let frac_best = counts[3] as f64 / 20_000.0;
        assert!((frac_best - 1.0 / 1.875).abs() < 0.02, "{frac_best}");
    }

    #[test]
    fn boltzmann_temperature_controls_pressure() {
        let p = pop(&[0.0, 1.0]);
        let mut r = rng();
        let frac_best = |temp: f64, r: &mut Rng64| {
            let sel = Boltzmann::new(temp);
            let hits = (0..20_000)
                .filter(|_| sel.select(&p, Objective::Maximize, r) == 1)
                .count();
            hits as f64 / 20_000.0
        };
        let hot = frac_best(100.0, &mut r);
        let cold = frac_best(0.1, &mut r);
        assert!((hot - 0.5).abs() < 0.03, "hot {hot}");
        assert!(cold > 0.95, "cold {cold}");
    }

    #[test]
    fn boltzmann_respects_minimize() {
        let p = pop(&[0.0, 1.0]);
        let sel = Boltzmann::new(0.1);
        let mut r = rng();
        let hits = (0..5_000)
            .filter(|_| sel.select(&p, Objective::Minimize, &mut r) == 0)
            .count();
        assert!(hits > 4_700, "{hits}");
    }

    #[test]
    fn adaptive_gaussian_follows_one_fifth_rule() {
        let bounds = Bounds::uniform(-10.0, 10.0, 4);
        let op = AdaptiveGaussian::new(1.0, 1.0, bounds, 10);
        // All failures: sigma shrinks.
        for _ in 0..10 {
            op.report_success(false);
        }
        assert!(op.sigma() < 1.0);
        // Mostly successes: sigma grows back.
        let before = op.sigma();
        for _ in 0..10 {
            op.report_success(true);
        }
        assert!(op.sigma() > before);
    }

    #[test]
    fn adaptive_gaussian_mutates_within_bounds() {
        let bounds = Bounds::uniform(-1.0, 1.0, 6);
        let op = AdaptiveGaussian::new(1.0, 5.0, bounds.clone(), 100);
        let mut r = rng();
        for _ in 0..50 {
            let mut g = bounds.sample(&mut r);
            op.mutate(&mut g, &mut r);
            assert!(bounds.contains(&g));
        }
    }
}
