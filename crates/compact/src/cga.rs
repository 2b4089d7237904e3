//! The single-node compact GA: a probability vector evolved by pairwise
//! competitions.

use std::sync::Arc;
use std::time::Duration;

use pga_core::driver::{Driver, Engine, Incumbent, RunOutcome, StepReport};
use pga_core::individual::Individual;
use pga_core::problem::Problem;
use pga_core::repr::BitString;
use pga_core::rng::Rng64;
use pga_core::snapshot::{Snapshot, SnapshotError, SnapshotWriter};
use pga_core::termination::{Progress, Termination};
use pga_core::{ConfigError, RunLedger};
use pga_observe::Recorder;

/// Samples loci `offset..offset + p.len()` of a genome from the marginals
/// `p` and ORs them into its packed `words` (zero there beforehand).
///
/// Draw-order contract: exactly one `chance(p[i])` draw per locus, in locus
/// order, so the stream is a pure function of the slice length. The draws
/// that land in one word are packed into a mask and OR'd in at once; a
/// slice starting mid-word (a pcGA shard) fills that word's upper bits.
pub(crate) fn sample_into(words: &mut [u64], offset: usize, p: &[f64], rng: &mut Rng64) {
    let mut i = 0;
    while i < p.len() {
        let at = offset + i;
        let bit = at % 64;
        let span = (64 - bit).min(p.len() - i);
        let mut mask = 0u64;
        for (j, &pj) in p[i..i + span].iter().enumerate() {
            mask |= u64::from(rng.chance(pj)) << j;
        }
        words[at / 64] |= mask << bit;
        i += span;
    }
}

/// Samples one genome from a probability vector (see [`sample_into`] for
/// the draw order).
pub(crate) fn sample_genome(p: &[f64], rng: &mut Rng64) -> BitString {
    let mut words = vec![0; p.len().div_ceil(64)];
    sample_into(&mut words, 0, p, rng);
    BitString::from_words(words, p.len())
}

/// Shifts every locus of `offset..offset + p.len()` where `winner` and
/// `loser` disagree by `step` toward the winner, clamping to `[0, 1]`.
/// Returns how many loci moved.
///
/// Only disagreeing loci can move, so the kernel walks the set bits of
/// `winner ^ loser` a word at a time and touches nothing else.
pub(crate) fn update_slice(
    p: &mut [f64],
    winner: &BitString,
    loser: &BitString,
    offset: usize,
    step: f64,
) -> usize {
    let end = offset + p.len();
    assert!(
        end <= winner.len() && end <= loser.len(),
        "update_slice: loci {offset}..{end} outside competitors of {} and {} bits",
        winner.len(),
        loser.len()
    );
    let (w, l) = (winner.words(), loser.words());
    let mut moved = 0;
    for word in offset / 64..end.div_ceil(64) {
        let base = word * 64;
        let mut diff = w[word] ^ l[word];
        if base < offset {
            diff &= u64::MAX << (offset - base);
        }
        if end - base < 64 {
            diff &= (1u64 << (end - base)) - 1;
        }
        moved += diff.count_ones() as usize;
        while diff != 0 {
            let bit = diff.trailing_zeros() as usize;
            let pi = &mut p[base + bit - offset];
            *pi = if (w[word] >> bit) & 1 == 1 {
                (*pi + step).min(1.0)
            } else {
                (*pi - step).max(0.0)
            };
            diff &= diff - 1;
        }
    }
    moved
}

/// `true` once every entry of the vector has fixated at 0 or 1 — the
/// model can no longer move, so further steps replay the same genome.
pub(crate) fn converged(p: &[f64]) -> bool {
    p.iter().all(|&pi| pi <= 0.0 || pi >= 1.0)
}

/// The compact GA (Harik–Lobo–Goldberg): population replaced by a
/// probability vector over loci.
///
/// One [`step`](CompactGa::step) is one pairwise competition: sample two
/// genomes from the model, evaluate both (2 evaluations), and move every
/// disagreeing locus `1/n` toward the winner, where `n` is the *virtual*
/// population size. State is `len` floats + one RNG — **O(genome)** memory
/// no matter how large `n` is.
///
/// Once the vector fixates (every entry 0 or 1) the engine reports
/// [`halted`](Engine::halted): the model is absorbing, so continuing would
/// only replay the converged genome.
pub struct CompactGa<P: Problem<Genome = BitString>> {
    problem: Arc<P>,
    p: Vec<f64>,
    virtual_pop: usize,
    rng: Rng64,
    ledger: RunLedger<BitString>,
}

impl<P: Problem<Genome = BitString>> CompactGa<P> {
    /// Fresh builder; see [`CompactGaBuilder`].
    #[must_use]
    pub fn builder(problem: P) -> CompactGaBuilder<P> {
        CompactGaBuilder::new(problem)
    }

    /// The probability vector (one marginal per locus).
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.p
    }

    /// The virtual population size `n` (update step is `1/n`).
    #[must_use]
    pub fn virtual_pop(&self) -> usize {
        self.virtual_pop
    }

    /// Counters (a generation is one competition; evaluations are 2 per
    /// competition + 1 at startup), best individual ever, and recorder.
    #[must_use]
    pub fn ledger(&self) -> &RunLedger<BitString> {
        &self.ledger
    }

    /// Mutable ledger access, to attach a recorder or set the island id
    /// stamped on events.
    pub fn ledger_mut(&mut self) -> &mut RunLedger<BitString> {
        &mut self.ledger
    }

    /// Model state size in bytes: the probability vector alone — the
    /// O(genome) memory argument in one number.
    #[must_use]
    pub fn model_bytes(&self) -> usize {
        self.p.len() * std::mem::size_of::<f64>()
    }

    /// `true` once every marginal has fixated at 0 or 1.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        converged(&self.p)
    }

    /// Runs until the termination rule fires via the shared [`Driver`].
    /// Returns an error if the rule is unbounded.
    pub fn run(
        &mut self,
        termination: &Termination,
    ) -> Result<RunOutcome<Individual<BitString>>, ConfigError> {
        Driver::new(termination.clone()).run(self)
    }
}

impl<P: Problem<Genome = BitString>> Incumbent for CompactGa<P> {
    type Best = Individual<BitString>;

    fn best(&self) -> Self::Best {
        self.ledger.best_ever().clone()
    }
}

impl<P: Problem<Genome = BitString>> Engine for CompactGa<P> {
    fn engine_id(&self) -> &'static str {
        "cga"
    }

    /// One competition: sample two, evaluate, shift the model toward the
    /// winner.
    fn step(&mut self) -> StepReport {
        let a = sample_genome(&self.p, &mut self.rng);
        let b = sample_genome(&self.p, &mut self.rng);
        let fa = self.problem.evaluate(&a);
        let fb = self.problem.evaluate(&b);
        self.ledger.count_evaluations(2);
        let (winner, loser, fw, fl) = if self.problem.objective().better(fb, fa) {
            (&b, &a, fb, fa)
        } else {
            (&a, &b, fa, fb)
        };
        let step = 1.0 / self.virtual_pop as f64;
        update_slice(&mut self.p, winner, loser, 0, step);
        let improved = self.ledger.offer(winner, fw);
        self.ledger
            .close_generation(&*self.problem, improved, fw, 0.5 * (fw + fl))
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        self.ledger.progress(&*self.problem, elapsed)
    }

    fn halted(&self) -> bool {
        self.is_converged()
    }

    fn record_run_started(&mut self) {
        self.ledger
            .record_run_started(&*self.problem, || "cga".into());
    }

    fn record_run_finished(&mut self) {
        self.ledger.record_run_finished(&*self.problem);
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        self.ledger.encode(&mut w);
        w.put_rng(&self.rng);
        w.put_usize(self.virtual_pop);
        w.put_usize(self.p.len());
        for &pi in &self.p {
            w.put_f64(pi);
        }
        Snapshot::new("cga", w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for("cga")?;
        let ledger = RunLedger::decode(&mut r)?;
        let rng = r.take_rng()?;
        let virtual_pop = r.take_usize()?;
        let len = r.take_count(8)?;
        let mut p = Vec::with_capacity(len);
        for _ in 0..len {
            p.push(r.take_f64()?);
        }
        r.finish()?;
        if virtual_pop != self.virtual_pop {
            return Err(SnapshotError::Invalid(format!(
                "snapshot virtual population {virtual_pop} does not match \
                 the configured {}",
                self.virtual_pop
            )));
        }
        if p.len() != self.p.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot probability vector of {len} loci does not match \
                 the configured genome length of {}",
                self.p.len()
            )));
        }
        self.ledger.restore(ledger);
        self.rng = rng;
        self.p = p;
        Ok(())
    }
}

/// Validating builder for [`CompactGa`], following the workspace's
/// builder façade: every parameter is checked at [`build`] time and
/// violations surface as typed [`ConfigError`]s, never panics.
///
/// Defaults: virtual population 127, seed 0.
///
/// [`build`]: CompactGaBuilder::build
pub struct CompactGaBuilder<P: Problem<Genome = BitString>> {
    problem: Arc<P>,
    virtual_pop: usize,
    seed: u64,
    recorder: Option<Box<dyn Recorder>>,
}

impl<P: Problem<Genome = BitString>> CompactGaBuilder<P> {
    /// Fresh builder with conventional defaults.
    #[must_use]
    pub fn new(problem: P) -> Self {
        Self::from_shared(Arc::new(problem))
    }

    /// Shares an existing `Arc`'d problem.
    #[must_use]
    pub fn from_shared(problem: Arc<P>) -> Self {
        Self {
            problem,
            virtual_pop: 127,
            seed: 0,
            recorder: None,
        }
    }

    /// Virtual population size `n`: each competition shifts disagreeing
    /// loci by `1/n`. Must be at least 2.
    #[must_use]
    pub fn virtual_pop(mut self, n: usize) -> Self {
        self.virtual_pop = n;
        self
    }

    /// RNG seed; the whole run is a pure function of it.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an observability recorder at build time.
    #[must_use]
    pub fn recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Validates the configuration and constructs the engine.
    ///
    /// Spends one evaluation seeding `best_ever` with a genome sampled
    /// from the initial (uniform) model, so the engine always has a best
    /// individual to report.
    pub fn build(self) -> Result<CompactGa<P>, ConfigError> {
        if self.virtual_pop < 2 {
            return Err(ConfigError::InvalidParameter {
                name: "virtual_pop",
                message: format!(
                    "virtual population must be at least 2, got {}",
                    self.virtual_pop
                ),
            });
        }
        let mut rng = Rng64::new(self.seed);
        let len = self.problem.random_genome(&mut Rng64::new(0)).len();
        if len == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "genome_len",
                message: "problem produces empty genomes".into(),
            });
        }
        let p = vec![0.5; len];
        let first = sample_genome(&p, &mut rng);
        let fitness = self.problem.evaluate(&first);
        let ledger = RunLedger::new(
            &*self.problem,
            self.seed,
            1,
            Individual::evaluated(first, fitness),
            self.recorder,
        );
        Ok(CompactGa {
            problem: self.problem,
            p,
            virtual_pop: self.virtual_pop,
            rng,
            ledger,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_core::termination::Termination;
    use pga_problems::OneMax;

    fn engine(seed: u64) -> CompactGa<OneMax> {
        CompactGa::builder(OneMax::new(64))
            .seed(seed)
            .virtual_pop(50)
            .build()
            .expect("valid config")
    }

    #[test]
    fn solves_onemax() {
        let mut ga = engine(7);
        let outcome = ga
            .run(&Termination::new().max_generations(20_000))
            .expect("bounded rule");
        assert!(
            outcome.best.fitness() >= 60.0,
            "cGA should approach the OneMax optimum, got {}",
            outcome.best.fitness()
        );
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let mut a = engine(11);
        let mut b = engine(11);
        for _ in 0..500 {
            assert_eq!(a.step(), b.step());
        }
        assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
    }

    #[test]
    fn model_memory_is_o_genome() {
        let small = CompactGa::builder(OneMax::new(64))
            .virtual_pop(10)
            .build()
            .expect("valid");
        let huge = CompactGa::builder(OneMax::new(64))
            .virtual_pop(1_000_000)
            .build()
            .expect("valid");
        assert_eq!(small.model_bytes(), huge.model_bytes());
        assert_eq!(huge.model_bytes(), 64 * 8);
    }

    #[test]
    fn converged_model_reports_halted() {
        let mut ga = engine(3);
        for _ in 0..200_000 {
            if ga.is_converged() {
                break;
            }
            ga.step();
        }
        assert!(ga.is_converged(), "cGA should fixate eventually");
        assert!(Engine::halted(&ga));
    }

    #[test]
    fn builder_rejects_degenerate_virtual_pop() {
        let err = CompactGa::builder(OneMax::new(8)).virtual_pop(1).build();
        assert!(matches!(
            err,
            Err(ConfigError::InvalidParameter {
                name: "virtual_pop",
                ..
            })
        ));
    }

    #[test]
    fn snapshot_roundtrip_restores_vector_exactly() {
        let mut ga = engine(5);
        for _ in 0..100 {
            ga.step();
        }
        let snap = ga.snapshot();
        let mut fresh = engine(5);
        fresh.restore(&snap).expect("restorable");
        assert_eq!(fresh.probabilities(), ga.probabilities());
        assert_eq!(fresh.snapshot().to_bytes(), snap.to_bytes());
    }

    #[test]
    fn wrong_length_snapshot_is_rejected() {
        let ga = engine(5);
        let snap = ga.snapshot();
        let mut other = CompactGa::builder(OneMax::new(32))
            .seed(5)
            .virtual_pop(50)
            .build()
            .expect("valid");
        assert!(other.restore(&snap).is_err());
    }
}
