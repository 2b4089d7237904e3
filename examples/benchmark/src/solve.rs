//! The research workload: engine families run through the core `Driver`
//! to a fixed budget, as a researcher runs them. No server is involved,
//! so a change to the serving layers should leave it unchanged.

use std::time::{Duration, Instant};

use pga_core::ops::{BitFlip, OnePoint, Tournament};
use pga_core::{
    Driver, ErasedRun, Evaluator, Ga, GaBuilder, RunOutcome, SerialEvaluator, Termination,
};
use pga_master_slave::{ExpensiveFitness, RayonEvaluator};
use pga_problems::OneMax;
use pga_serve::build_engine;

use crate::replay::{self, Scope};
use crate::report::{add_pool_metrics, add_span_metrics, peak_rss_mb, Measured, RunOpts};
use crate::stats::Sample;
use crate::trace::{Spans, Trace};
use crate::workload::{master_slave_seed, solve_specs, SOLVE_SEEDS};

/// Master–slave run: pop 128 on OneMax-256 for 50 generations, each
/// evaluation burning about 20 µs, on a pool with one worker per core.
const MS_POP: usize = 128;
const MS_LEN: usize = 256;
const MS_GENERATIONS: u64 = 50;
const MS_WORK_ITERS: u64 = 20_000;

type Costly = ExpensiveFitness<OneMax>;

fn master_slave<E: Evaluator<Costly>>(seed: u64, evaluator: E) -> Result<Ga<Costly, E>, String> {
    GaBuilder::new(ExpensiveFitness::new(OneMax::new(MS_LEN), MS_WORK_ITERS))
        .evaluator(evaluator)
        .seed(seed)
        .pop_size(MS_POP)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(MS_LEN))
        .build()
        .map_err(|e| format!("master-slave build: {e}"))
}

fn drive_master_slave<E: Evaluator<Costly>>(ga: &mut Ga<Costly, E>) -> Result<Outcome, String> {
    let termination = Termination::new().max_generations(MS_GENERATIONS);
    Driver::new(termination)
        .run(ga)
        .map(|o| Outcome::of(&o))
        .map_err(|e| e.to_string())
}

/// The parts of a run outcome that must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    best_bits: u64,
    generations: u64,
    evaluations: u64,
    hit: bool,
}

impl Outcome {
    fn of<B>(o: &RunOutcome<B>) -> Self {
        Self {
            best_bits: o.best_fitness.to_bits(),
            generations: o.generations,
            evaluations: o.evaluations,
            hit: o.hit_optimum,
        }
    }
}

/// One pass: every configuration once, at one seed slot.
struct Pass {
    slot: u64,
    start: Duration,
    wall: Duration,
    /// Engine construction time within the pass.
    build: Duration,
    outcomes: Vec<Outcome>,
    pool: rayon::PoolStats,
}

fn pass(
    opts: &RunOpts,
    slot: u64,
    trace: &mut Trace,
    origin: Instant,
    workers: usize,
) -> Result<Pass, String> {
    let start = origin.elapsed();
    let root = trace.open("solve.pass", None, Some(slot));
    let began = Instant::now();
    let mut build = Duration::ZERO;
    let mut outcomes = Vec::new();
    for (config, spec) in solve_specs(opts.seed, slot).iter().enumerate() {
        let job = Some(config as u64);
        let (span, t) = (trace.open("solve.build", root, job), Instant::now());
        let mut engine = build_engine(spec, None).map_err(|e| format!("solve build: {e}"))?;
        build += t.elapsed();
        trace.close(span, None);
        let termination = spec.budget.to_termination().map_err(|e| e.to_string())?;
        let span = trace.open("solve.run", root, job);
        let outcome = Driver::new(termination)
            .run(&mut ErasedRun(engine.as_mut()))
            .map_err(|e| e.to_string())?;
        trace.close(span, Some(outcome.evaluations));
        outcomes.push(Outcome::of(&outcome));
    }
    let job = Some(outcomes.len() as u64);
    let (span, t) = (trace.open("solve.build", root, job), Instant::now());
    let evaluator = RayonEvaluator::new(workers).map_err(|e| e.to_string())?;
    let mut ga = master_slave(master_slave_seed(opts.seed, slot), evaluator)?;
    build += t.elapsed();
    trace.close(span, None);
    let before = ga.evaluator().pool_stats();
    let span = trace.open("solve.run", root, job);
    let outcome = drive_master_slave(&mut ga)?;
    trace.close(span, Some(outcome.evaluations));
    let pool = ga.evaluator().pool_stats().delta(&before);
    outcomes.push(outcome);
    trace.close(root, None);
    Ok(Pass {
        slot: slot % SOLVE_SEEDS,
        start,
        wall: began.elapsed(),
        build,
        outcomes,
        pool,
    })
}

pub fn run(opts: &RunOpts) -> Result<Measured, String> {
    let mut m = Measured::default();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Serial and pooled evaluation must agree bit for bit (not timed).
    for slot in 0..SOLVE_SEEDS {
        let seed = master_slave_seed(opts.seed, slot);
        let serial = drive_master_slave(&mut master_slave(seed, SerialEvaluator)?)?;
        let evaluator = RayonEvaluator::new(workers).map_err(|e| e.to_string())?;
        let pooled = drive_master_slave(&mut master_slave(seed, evaluator)?)?;
        m.attempted += 1;
        if serial != pooled {
            m.fail(&format!(
                "master-slave seed {seed}: serial {serial:?}, pooled {pooled:?}"
            ));
        }
    }
    let phases = opts.phases;
    let origin = Instant::now();
    let mut trace = Trace::new(origin, false);
    let mut passes: Vec<Pass> = Vec::new();
    for slot in 0.. {
        if origin.elapsed() >= phases.end() {
            break;
        }
        trace.set_enabled(opts.trace && phases.in_window(origin.elapsed()));
        let p = pass(opts, slot, &mut trace, origin, workers)?;
        m.attempted += p.outcomes.len() as u64;
        // A pass repeats the outcomes of the first pass at its seed slot.
        if let Some(first) = passes.iter().find(|q| q.slot == p.slot) {
            for (a, b) in first.outcomes.iter().zip(&p.outcomes) {
                if a != b {
                    m.fail(&format!(
                        "solve outcome changed between passes: {a:?} then {b:?}"
                    ));
                }
            }
        }
        passes.push(p);
    }
    if let Some(rss) = peak_rss_mb() {
        m.add("peak_rss_mb", rss, "MB", 1);
    }
    let window: Vec<&Pass> = passes
        .iter()
        .filter(|p| phases.in_window(p.start))
        .collect();
    let pass_ms = |keep: &dyn Fn(&Pass) -> bool| {
        Sample::new(
            passes
                .iter()
                .filter(|p| keep(p))
                .map(|p| p.wall.as_secs_f64() * 1e3)
                .collect(),
        )
    };
    let latency = pass_ms(&|p| phases.in_window(p.start));
    m.median("latency_p50_ms", &latency, "ms");
    // Each seed slot does the same work, so rates are medians over passes.
    let per_pass = |work: &dyn Fn(&Pass) -> u64| {
        Sample::new(
            window
                .iter()
                .map(|p| work(p) as f64 / p.wall.as_secs_f64())
                .collect(),
        )
    };
    m.median("jobs_per_s", &per_pass(&|p| p.outcomes.len() as u64), "1/s");
    let evals = per_pass(&|p| p.outcomes.iter().map(|o| o.evaluations).sum());
    m.median("evals_per_s", &evals, "1/s");
    let build = Sample::new(window.iter().map(|p| p.build.as_secs_f64()).collect());
    m.median("setup_s", &build, "s");
    let outcomes: Vec<&Outcome> = window.iter().flat_map(|p| &p.outcomes).collect();
    let hits = outcomes.iter().filter(|o| o.hit).count();
    m.add(
        "solve.hit_frac",
        hits as f64 / outcomes.len().max(1) as f64,
        "frac",
        outcomes.len(),
    );
    let mut pool = rayon::PoolStats::default();
    for p in &window {
        pool.calls += p.pool.calls;
        pool.tasks_executed += p.pool.tasks_executed;
        pool.steals += p.pool.steals;
        pool.parks += p.pool.parks;
        pool.queue_wait_micros += p.pool.queue_wait_micros;
    }
    add_pool_metrics(&mut m, &pool);
    if opts.trace {
        let reference = pass_ms(&|p| phases.in_reference(p.start));
        if let (Some(traced), Some(untraced)) = (latency.median(), reference.median()) {
            m.add(
                "trace.overhead_frac",
                traced / untraced - 1.0,
                "frac",
                reference.n(),
            );
        }
        // Per-step engine costs of every configuration and seed, off the clock.
        let specs: Vec<_> = (0u64..)
            .zip((0..SOLVE_SEEDS).flat_map(|slot| solve_specs(opts.seed, slot)))
            .collect();
        let mut main = Trace::new(origin, true);
        replay::replay(
            &mut main,
            &specs,
            &opts.run_dir.join("replay"),
            Scope::EngineOnly,
        )?;
        let spans = Spans::merge([trace, main]);
        add_span_metrics(&mut m, &spans);
        m.spans = spans;
    }
    Ok(m)
}
