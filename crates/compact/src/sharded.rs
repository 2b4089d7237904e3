//! The sharded compact GA (pcGA): the probability vector partitioned
//! across simulated cluster nodes.
//!
//! Lobo–Lima–Mártires' architecture: node `i` owns a contiguous slice of
//! the probability vector, samples its slice of each competitor with its
//! *own* RNG stream, and ships only the sampled bits to the master. The
//! master concatenates the slices, evaluates the two competitors, and
//! broadcasts the winner's identity (one byte); every node then updates
//! its slice locally. **Individuals never cross the wire** — only model
//! messages — so per-node memory is O(genome / nodes) and per-step wire
//! traffic is O(genome) total, independent of the virtual population size.
//!
//! Time is virtual ([`Clock::Virtual`]), advanced by a deterministic cost
//! model over a [`ClusterSpec`]: per-bit sampling cost scaled by node
//! speed, a log-depth gather/broadcast tree over the cluster's
//! [`NetworkProfile`](pga_cluster::NetworkProfile),
//! and a per-evaluation cost on the master. The whole run is a pure
//! function of (spec, seed), so snapshots are trivially bit-identical.

use std::sync::Arc;
use std::time::Duration;

use pga_cluster::ClusterSpec;
use pga_core::driver::{Clock, Driver, Engine, Incumbent, RunOutcome, StepReport};
use pga_core::individual::Individual;
use pga_core::problem::Problem;
use pga_core::repr::BitString;
use pga_core::rng::Rng64;
use pga_core::snapshot::{Snapshot, SnapshotError, SnapshotWriter};
use pga_core::termination::{Progress, Termination};
use pga_core::{ConfigError, RunLedger};
use pga_observe::Recorder;

use crate::cga::{converged, sample_genome, sample_into, update_slice};

/// Virtual seconds to sample one locus on a unit-speed node.
const BIT_SAMPLE_COST_S: f64 = 2e-8;

/// Cumulative wire accounting for a pcGA run: every byte and message that
/// crossed the simulated network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Total payload bytes shipped (sampled slices up, winner ids down).
    pub bytes: u64,
    /// Total messages (one gather + one broadcast per node per step).
    pub messages: u64,
}

/// What one sample → gather → evaluate → broadcast → update round costs.
/// Every input is fixed at build (shard sizes, node speeds, network,
/// evaluation cost), so the engine computes it once.
#[derive(Clone, Copy, Debug)]
struct RoundCost {
    /// Virtual seconds the round adds to the clock.
    seconds: f64,
    /// Wire bytes: both sampled slices up, one winner byte per node down.
    bytes: u64,
    /// Messages: one gather and one broadcast per node.
    messages: u64,
}

impl RoundCost {
    fn of(shards: &[Shard], cluster: &ClusterSpec, eval_cost_s: f64) -> Self {
        let nodes = shards.len();
        let net = cluster.network;
        // Sample (both competitors) and update (one pass) run on every
        // node in parallel, so each phase costs the slowest node's time.
        let mut t_sample: f64 = 0.0;
        let mut t_update: f64 = 0.0;
        let mut gather_bytes: u64 = 0;
        for (shard, &speed) in shards.iter().zip(&cluster.speeds) {
            t_sample = t_sample.max(2.0 * shard.p.len() as f64 * BIT_SAMPLE_COST_S / speed);
            t_update = t_update.max(shard.p.len() as f64 * BIT_SAMPLE_COST_S / speed);
            gather_bytes += 2 * shard.p.len().div_ceil(8) as u64;
        }
        // Gather: sampled slices flow up a log-depth reduction tree; the
        // payload crosses the master link once.
        let depth = nodes.next_power_of_two().trailing_zeros().max(1) as f64;
        let t_gather = net.transfer_time(gather_bytes) + net.latency() * (depth - 1.0);
        // Evaluate: the master scores both competitors.
        let t_eval = 2.0 * eval_cost_s / cluster.speeds[0];
        // Broadcast: one byte (the winner's identity) to every node.
        let t_bcast = net.transfer_time(nodes as u64) + net.latency() * (depth - 1.0);
        Self {
            seconds: t_sample + t_gather + t_eval + t_bcast + t_update,
            bytes: gather_bytes + nodes as u64,
            messages: 2 * nodes as u64,
        }
    }
}

/// One node's share of the model: a contiguous probability slice plus a
/// private RNG stream.
struct Shard {
    /// First locus this shard owns.
    lo: usize,
    /// Marginals for the owned loci.
    p: Vec<f64>,
    /// The node's private stream (forked from the job seed at build).
    rng: Rng64,
}

/// The massively parallel compact GA: [`CompactGa`](crate::CompactGa)'s
/// model sharded across the nodes of a simulated cluster.
///
/// One [`step`](ShardedCompactGa::step) is one competition, executed as a
/// sample → gather → evaluate → broadcast → update round across all
/// nodes. Engine id and snapshot tag are `"pcga"`.
pub struct ShardedCompactGa<P: Problem<Genome = BitString>> {
    problem: Arc<P>,
    shards: Vec<Shard>,
    len: usize,
    virtual_pop: usize,
    round: RoundCost,
    clock_s: f64,
    wire: WireStats,
    ledger: RunLedger<BitString>,
}

impl<P: Problem<Genome = BitString>> ShardedCompactGa<P> {
    /// Fresh builder; see [`ShardedCompactGaBuilder`].
    #[must_use]
    pub fn builder(problem: P) -> ShardedCompactGaBuilder<P> {
        ShardedCompactGaBuilder::new(problem)
    }

    /// Number of simulated nodes the vector is sharded over.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// Counters (a generation is one competition), best individual
    /// ever, and recorder.
    #[must_use]
    pub fn ledger(&self) -> &RunLedger<BitString> {
        &self.ledger
    }

    /// Mutable ledger access, to attach a recorder or set the island id
    /// stamped on events.
    pub fn ledger_mut(&mut self) -> &mut RunLedger<BitString> {
        &mut self.ledger
    }

    /// Virtual seconds elapsed.
    #[must_use]
    pub fn elapsed_virtual(&self) -> f64 {
        self.clock_s
    }

    /// Cumulative wire traffic.
    #[must_use]
    pub fn wire(&self) -> WireStats {
        self.wire
    }

    /// Largest per-node model footprint in bytes: the shard's probability
    /// slice — O(genome / nodes), the paper's memory argument.
    #[must_use]
    pub fn per_node_model_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.p.len() * std::mem::size_of::<f64>())
            .max()
            .unwrap_or(0)
    }

    /// Reassembles the full probability vector (master-side view; costs
    /// nothing on the simulated wire — diagnostics only).
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.len);
        for s in &self.shards {
            p.extend_from_slice(&s.p);
        }
        p
    }

    /// `true` once every marginal has fixated at 0 or 1.
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.shards.iter().all(|s| converged(&s.p))
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

impl<P: Problem<Genome = BitString>> Incumbent for ShardedCompactGa<P> {
    type Best = Individual<BitString>;

    fn best(&self) -> Self::Best {
        self.ledger.best_ever().clone()
    }
}

impl<P: Problem<Genome = BitString>> Engine for ShardedCompactGa<P> {
    fn engine_id(&self) -> &'static str {
        "pcga"
    }

    /// One sample → gather → evaluate → broadcast → update round; its
    /// virtual time and wire traffic are fixed at build.
    fn step(&mut self) -> StepReport {
        // Every node samples its slice of both competitors from its own
        // stream, straight into the competitors' words.
        let words = self.len.div_ceil(64);
        let (mut a, mut b) = (vec![0; words], vec![0; words]);
        for shard in &mut self.shards {
            sample_into(&mut a, shard.lo, &shard.p, &mut shard.rng);
            sample_into(&mut b, shard.lo, &shard.p, &mut shard.rng);
        }
        let a = BitString::from_words(a, self.len);
        let b = BitString::from_words(b, self.len);
        // The master scores both competitors and broadcasts the winner.
        let fa = self.problem.evaluate(&a);
        let fb = self.problem.evaluate(&b);
        self.ledger.count_evaluations(2);
        let (winner, loser, fw, fl) = if self.problem.objective().better(fb, fa) {
            (&b, &a, fb, fa)
        } else {
            (&a, &b, fa, fb)
        };
        // Each node shifts its own loci.
        let step = 1.0 / self.virtual_pop as f64;
        for shard in &mut self.shards {
            update_slice(&mut shard.p, winner, loser, shard.lo, step);
        }
        self.clock_s += self.round.seconds;
        self.wire.bytes += self.round.bytes;
        self.wire.messages += self.round.messages;
        let improved = self.ledger.offer(winner, fw);
        self.ledger
            .close_generation(&*self.problem, improved, fw, 0.5 * (fw + fl))
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        self.ledger.progress(&*self.problem, elapsed)
    }

    fn clock(&self) -> Clock {
        Clock::Virtual(Duration::from_secs_f64(self.clock_s))
    }

    fn halted(&self) -> bool {
        self.is_converged()
    }

    fn record_run_started(&mut self) {
        self.ledger
            .record_run_started(&*self.problem, || "pcga".into());
    }

    fn record_run_finished(&mut self) {
        self.ledger.record_run_finished(&*self.problem);
    }

    fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        self.ledger.encode(&mut w);
        w.put_f64(self.clock_s);
        w.put_u64(self.wire.bytes);
        w.put_u64(self.wire.messages);
        w.put_usize(self.virtual_pop);
        w.put_usize(self.shards.len());
        for shard in &self.shards {
            w.put_rng(&shard.rng);
            w.put_usize(shard.p.len());
            for &pi in &shard.p {
                w.put_f64(pi);
            }
        }
        Snapshot::new("pcga", w.into_bytes())
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snapshot.reader_for("pcga")?;
        let ledger = RunLedger::decode(&mut r)?;
        let clock_s = r.take_f64()?;
        let wire = WireStats {
            bytes: r.take_u64()?,
            messages: r.take_u64()?,
        };
        let virtual_pop = r.take_usize()?;
        if virtual_pop != self.virtual_pop {
            return Err(SnapshotError::Invalid(format!(
                "snapshot virtual population {virtual_pop} does not match \
                 the configured {}",
                self.virtual_pop
            )));
        }
        let nodes = r.take_usize()?;
        if nodes != self.shards.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot shards {nodes} do not match the configured {}",
                self.shards.len()
            )));
        }
        let mut restored = Vec::with_capacity(nodes);
        for shard in &self.shards {
            let rng = r.take_rng()?;
            let slice_len = r.take_usize()?;
            if slice_len != shard.p.len() {
                return Err(SnapshotError::Invalid(format!(
                    "snapshot shard of {slice_len} loci does not match the \
                     configured {}",
                    shard.p.len()
                )));
            }
            let mut p = Vec::with_capacity(slice_len);
            for _ in 0..slice_len {
                p.push(r.take_f64()?);
            }
            restored.push((rng, p));
        }
        r.finish()?;
        for (shard, (rng, p)) in self.shards.iter_mut().zip(restored) {
            shard.rng = rng;
            shard.p = p;
        }
        self.ledger.restore(ledger);
        self.clock_s = clock_s;
        self.wire = wire;
        Ok(())
    }
}

/// Validating builder for [`ShardedCompactGa`].
///
/// Required: a [`ClusterSpec`] (node count and speeds come from it).
/// Defaults: virtual population 127, per-evaluation cost `1e-4` virtual
/// seconds, seed 0.
pub struct ShardedCompactGaBuilder<P: Problem<Genome = BitString>> {
    problem: Arc<P>,
    cluster: Option<ClusterSpec>,
    virtual_pop: usize,
    eval_cost_s: f64,
    seed: u64,
    recorder: Option<Box<dyn Recorder>>,
}

impl<P: Problem<Genome = BitString>> ShardedCompactGaBuilder<P> {
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
            cluster: None,
            virtual_pop: 127,
            eval_cost_s: 1e-4,
            seed: 0,
            recorder: None,
        }
    }

    /// The simulated cluster to shard over (required). Shard `i` runs on
    /// node `i`; the vector is split into `nodes` near-equal contiguous
    /// slices.
    #[must_use]
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cluster = Some(spec);
        self
    }

    /// Virtual population size `n`; must be at least 2.
    #[must_use]
    pub fn virtual_pop(mut self, n: usize) -> Self {
        self.virtual_pop = n;
        self
    }

    /// Virtual seconds one evaluation costs on a unit-speed master.
    /// Must be finite and non-negative.
    #[must_use]
    pub fn eval_cost(mut self, seconds: f64) -> Self {
        self.eval_cost_s = seconds;
        self
    }

    /// RNG seed; node `i`'s stream is forked from it.
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
    pub fn build(self) -> Result<ShardedCompactGa<P>, ConfigError> {
        let cluster = self
            .cluster
            .ok_or(ConfigError::MissingComponent("cluster"))?;
        if self.virtual_pop < 2 {
            return Err(ConfigError::InvalidParameter {
                name: "virtual_pop",
                message: format!(
                    "virtual population must be at least 2, got {}",
                    self.virtual_pop
                ),
            });
        }
        if !self.eval_cost_s.is_finite() || self.eval_cost_s < 0.0 {
            return Err(ConfigError::InvalidParameter {
                name: "eval_cost",
                message: format!(
                    "evaluation cost must be finite and >= 0, got {}",
                    self.eval_cost_s
                ),
            });
        }
        let len = self.problem.random_genome(&mut Rng64::new(0)).len();
        if len == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "genome_len",
                message: "problem produces empty genomes".into(),
            });
        }
        let nodes = cluster.len();
        if nodes > len {
            return Err(ConfigError::InvalidParameter {
                name: "nodes",
                message: format!(
                    "cannot shard a {len}-locus vector over {nodes} nodes: \
                     every node needs at least one locus"
                ),
            });
        }
        // Near-equal contiguous slices: the first `len % nodes` shards
        // take one extra locus.
        let base = len / nodes;
        let extra = len % nodes;
        let mut root = Rng64::new(self.seed);
        let mut shards = Vec::with_capacity(nodes);
        let mut lo = 0;
        for i in 0..nodes {
            let slice = base + usize::from(i < extra);
            shards.push(Shard {
                lo,
                p: vec![0.5; slice],
                rng: root.fork(i as u64),
            });
            lo += slice;
        }
        // Seed best_ever with one uniform sample on the master's stream
        // (the forks above already advanced it past the shard streams).
        let p0 = vec![0.5; len];
        let first = sample_genome(&p0, &mut root);
        let fitness = self.problem.evaluate(&first);
        let ledger = RunLedger::new(
            &*self.problem,
            self.seed,
            1,
            Individual::evaluated(first, fitness),
            self.recorder,
        );
        Ok(ShardedCompactGa {
            problem: self.problem,
            round: RoundCost::of(&shards, &cluster, self.eval_cost_s),
            shards,
            len,
            virtual_pop: self.virtual_pop,
            clock_s: 0.0,
            wire: WireStats::default(),
            ledger,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_cluster::NetworkProfile;
    use pga_problems::OneMax;

    fn engine(nodes: usize, seed: u64) -> ShardedCompactGa<OneMax> {
        ShardedCompactGa::builder(OneMax::new(128))
            .cluster(
                ClusterSpec::homogeneous(nodes, NetworkProfile::GigabitEthernet)
                    .expect("valid cluster"),
            )
            .seed(seed)
            .virtual_pop(60)
            .build()
            .expect("valid config")
    }

    #[test]
    fn solves_onemax_sharded() {
        let mut ga = engine(16, 9);
        let outcome = ga
            .run(&Termination::new().max_generations(40_000))
            .expect("bounded rule");
        assert!(
            outcome.best.fitness() >= 120.0,
            "pcGA should approach the OneMax optimum, got {}",
            outcome.best.fitness()
        );
    }

    #[test]
    fn same_seed_is_bit_identical_and_clock_is_virtual() {
        let mut a = engine(8, 4);
        let mut b = engine(8, 4);
        for _ in 0..300 {
            assert_eq!(a.step(), b.step());
        }
        assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
        match a.clock() {
            Clock::Virtual(d) => assert!(d.as_secs_f64() > 0.0),
            Clock::Wall => panic!("pcGA must run on virtual time"),
        }
    }

    #[test]
    fn per_node_memory_shrinks_with_node_count() {
        let few = engine(2, 1);
        let many = engine(64, 1);
        assert_eq!(few.per_node_model_bytes(), 64 * 8);
        assert_eq!(many.per_node_model_bytes(), 2 * 8);
        assert_eq!(
            many.probabilities().len(),
            128,
            "the full model must still cover every locus"
        );
    }

    #[test]
    fn wire_carries_model_updates_not_individuals() {
        let mut ga = engine(16, 2);
        for _ in 0..10 {
            ga.step();
        }
        let per_step = ga.wire().bytes as f64 / 10.0;
        // Upper bound: both sampled slices (2 * len/8 bytes, padded per
        // shard) plus one winner byte per node — far below what shipping
        // a population of individuals would take.
        let bound = (2.0 * (128.0 / 8.0) + 16.0 + 2.0 * 16.0) * 1.05;
        assert!(
            per_step <= bound,
            "per-step wire bytes {per_step} should stay O(genome + nodes), bound {bound}"
        );
        assert_eq!(ga.wire().messages, 10 * 2 * 16);
    }

    #[test]
    fn shard_count_must_not_exceed_genome_length() {
        let err = ShardedCompactGa::builder(OneMax::new(8))
            .cluster(
                ClusterSpec::homogeneous(16, NetworkProfile::SharedMemory).expect("valid cluster"),
            )
            .build();
        assert!(matches!(
            err,
            Err(ConfigError::InvalidParameter { name: "nodes", .. })
        ));
    }

    #[test]
    fn missing_cluster_is_a_typed_error() {
        let err = ShardedCompactGa::builder(OneMax::new(8)).build();
        assert!(matches!(err, Err(ConfigError::MissingComponent("cluster"))));
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical_including_clock() {
        let mut ga = engine(8, 6);
        for _ in 0..50 {
            ga.step();
        }
        let snap = ga.snapshot();
        let mut fresh = engine(8, 6);
        fresh.restore(&snap).expect("restorable");
        for _ in 0..50 {
            assert_eq!(fresh.step(), ga.step());
        }
        assert_eq!(fresh.snapshot().to_bytes(), ga.snapshot().to_bytes());
        assert!((fresh.elapsed_virtual() - ga.elapsed_virtual()).abs() < f64::EPSILON);
    }

    #[test]
    fn node_count_mismatch_is_rejected() {
        let ga = engine(8, 1);
        let snap = ga.snapshot();
        let mut other = engine(16, 1);
        assert!(other.restore(&snap).is_err());
    }
}
