//! Rayon-backed batch evaluation.

use pga_core::{ConfigError, Evaluator, Individual, Problem};
use pga_observe::{Event, EventKind, Recorder, Stopwatch};
use rayon::prelude::*;
use rayon::{PoolStats, ThreadPool};
use std::sync::{Mutex, PoisonError};

struct EvalTrace {
    recorder: Box<dyn Recorder>,
    batch: u64,
    last_stats: PoolStats,
}

/// Evaluates fitness batches on a dedicated rayon thread pool.
///
/// Owning a private pool (instead of the global one) lets speedup sweeps
/// (E02) pin the worker count per configuration, and keeps island threads
/// from oversubscribing the machine when both models run in one process.
/// The pool's workers are persistent: a batch dispatch costs a queue
/// injection and (at worst) a few unparks, not thread spawns.
pub struct RayonEvaluator {
    pool: ThreadPool,
    workers: usize,
    min_chunk: usize,
    trace: Option<Mutex<EvalTrace>>,
}

impl RayonEvaluator {
    /// Builds a pool with `workers` threads (≥ 1).
    ///
    /// # Errors
    /// [`ConfigError::InvalidParameter`] on zero workers or when the pool
    /// cannot be built (resource exhaustion).
    pub fn new(workers: usize) -> Result<Self, ConfigError> {
        if workers == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "workers",
                message: "need at least one worker".into(),
            });
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .thread_name(|i| format!("pga-ms-worker-{i}"))
            .build()
            .map_err(|e| ConfigError::InvalidParameter {
                name: "workers",
                message: format!("failed to build rayon pool: {e}"),
            })?;
        Ok(Self {
            pool,
            workers,
            min_chunk: 1,
            trace: None,
        })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the batch-size hint (see [`Evaluator::min_chunk`]): the pool
    /// stops splitting a batch once chunks reach this size. Raise it for
    /// cheap fitness functions where per-chunk dispatch would dominate.
    ///
    /// # Errors
    /// [`ConfigError::InvalidParameter`] if `min_chunk` is zero.
    pub fn with_min_chunk(mut self, min_chunk: usize) -> Result<Self, ConfigError> {
        if min_chunk == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "min_chunk",
                message: "must be at least 1".into(),
            });
        }
        self.min_chunk = min_chunk;
        Ok(self)
    }

    /// Telemetry snapshot of the evaluator's pool (lifetime counters).
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Attaches a recorder that receives one wall-clock-timed
    /// `EvaluationBatch` event plus one `PoolBatch` pool-health event per
    /// dispatched batch.
    ///
    /// Use this when the evaluator runs outside an instrumented engine; a
    /// `Ga` with its own recorder already times its batches, so attaching
    /// both double-counts `eval.batch_micros`.
    #[must_use]
    pub fn with_recorder(mut self, recorder: impl Recorder + 'static) -> Self {
        let last_stats = self.pool.stats();
        self.trace = Some(Mutex::new(EvalTrace {
            recorder: Box::new(recorder),
            batch: 0,
            last_stats,
        }));
        self
    }
}

impl<P: Problem> Evaluator<P> for RayonEvaluator {
    fn evaluate_batch(&self, problem: &P, members: &mut [Individual<P::Genome>]) -> u64 {
        let sw = Stopwatch::started_if(self.trace.is_some());
        let min_chunk = self.min_chunk;
        let fresh = self.pool.install(|| {
            members
                .par_iter_mut()
                .with_min_len(min_chunk)
                .map(|m| {
                    if m.fitness.is_none() {
                        m.fitness = Some(problem.evaluate(&m.genome));
                        1u64
                    } else {
                        0
                    }
                })
                .sum()
        });
        if let (Some(trace), Some(micros)) = (&self.trace, sw.elapsed_micros()) {
            let stats = self.pool.stats();
            // Poison-tolerant: the trace state (recorder + counters) stays
            // usable even if a recording panicked on another thread.
            let mut t = trace.lock().unwrap_or_else(PoisonError::into_inner);
            t.batch += 1;
            let batch = t.batch;
            let delta = stats.delta(&t.last_stats);
            t.last_stats = stats;
            t.recorder.record(&Event::new(EventKind::EvaluationBatch {
                island: 0,
                batch,
                size: members.len() as u64,
                fresh,
                micros,
            }));
            t.recorder.record(&Event::new(EventKind::PoolBatch {
                island: 0,
                batch,
                workers: delta.workers,
                tasks: delta.tasks_executed,
                steals: delta.steals,
                parks: delta.parks,
                queue_micros: delta.queue_wait_micros,
            }));
        }
        fresh
    }

    fn name(&self) -> &'static str {
        "rayon-master-slave"
    }

    fn min_chunk(&self) -> usize {
        self.min_chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_core::ops::{BitFlip, OnePoint, Tournament};
    use pga_core::{BitString, Engine, Ga, Objective, Rng64, Scheme, Termination};

    struct OneMax(usize);
    impl Problem for OneMax {
        type Genome = BitString;
        fn name(&self) -> String {
            "onemax".into()
        }
        fn objective(&self) -> Objective {
            Objective::Maximize
        }
        fn evaluate(&self, g: &BitString) -> f64 {
            g.count_ones() as f64
        }
        fn random_genome(&self, rng: &mut Rng64) -> BitString {
            BitString::random(self.0, rng)
        }
        fn optimum(&self) -> Option<f64> {
            Some(self.0 as f64)
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial_values() {
        let p = OneMax(128);
        let mut rng = Rng64::new(1);
        let mut serial: Vec<Individual<BitString>> = (0..200)
            .map(|_| Individual::unevaluated(BitString::random(128, &mut rng)))
            .collect();
        let mut parallel = serial.clone();
        let n1 = pga_core::SerialEvaluator.evaluate_batch(&p, &mut serial);
        let n2 = RayonEvaluator::new(4)
            .unwrap()
            .evaluate_batch(&p, &mut parallel);
        assert_eq!(n1, n2);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.fitness(), b.fitness());
        }
    }

    #[test]
    fn min_chunk_hint_bounds_dispatch_and_pool_events_flow() {
        use pga_observe::RingRecorder;
        let ring = RingRecorder::new(64);
        let eval = RayonEvaluator::new(4)
            .unwrap()
            .with_min_chunk(64)
            .unwrap()
            .with_recorder(ring.clone());
        assert_eq!(Evaluator::<OneMax>::min_chunk(&eval), 64);
        let p = OneMax(32);
        let mut rng = Rng64::new(9);
        let mut members: Vec<Individual<BitString>> = (0..256)
            .map(|_| Individual::unevaluated(BitString::random(32, &mut rng)))
            .collect();
        assert_eq!(eval.evaluate_batch(&p, &mut members), 256);
        let events = ring.events();
        assert_eq!(events[0].kind.name(), "evaluation_batch");
        assert_eq!(events[1].kind.name(), "pool_batch");
        match events[1].kind {
            EventKind::PoolBatch { workers, tasks, .. } => {
                assert_eq!(workers, 4);
                // 256 members with chunks of >= 64: at most 4 leaf tasks.
                assert!((1..=4).contains(&tasks), "tasks = {tasks}");
            }
            ref k => panic!("unexpected kind {k:?}"),
        }
        assert!(eval.pool_stats().calls >= 1);
    }

    #[test]
    fn skips_already_evaluated() {
        let p = OneMax(8);
        let mut members = vec![Individual::evaluated(BitString::ones(8), 8.0)];
        assert_eq!(
            RayonEvaluator::new(2)
                .unwrap()
                .evaluate_batch(&p, &mut members),
            0
        );
    }

    #[test]
    fn ga_with_rayon_evaluator_reaches_same_search_trajectory() {
        // The master-slave model must not change search behaviour: the same
        // seed yields the same per-generation best under 1 or 4 workers.
        let build = |workers: usize| {
            Ga::builder(OneMax(64))
                .seed(77)
                .pop_size(40)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(64))
                .scheme(Scheme::Generational { elitism: 1 })
                .evaluator(RayonEvaluator::new(workers).unwrap())
                .build()
                .unwrap()
        };
        let mut a = build(1);
        let mut b = build(4);
        for _ in 0..15 {
            let (sa, sb) = (a.step(), b.step());
            assert_eq!(sa.best, sb.best);
            assert_eq!(sa.mean, sb.mean);
        }
    }

    #[test]
    fn solves_onemax_under_run() {
        let mut ga = Ga::builder(OneMax(64))
            .seed(3)
            .pop_size(60)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(64))
            .evaluator(RayonEvaluator::new(4).unwrap())
            .build()
            .unwrap();
        let r = ga
            .run(&Termination::new().until_optimum().max_generations(500))
            .unwrap();
        assert!(r.hit_optimum);
    }
}
