//! E20 — sync-vs-async fairness at equal time (Harada & Alba/Luque
//! methodology): compare synchronous and barrier-free asynchronous
//! engines at the *same* wall/virtual time budget, not the same
//! generation count, on heterogeneous evaluation-cost distributions.
//!
//! Claims checked:
//! 1. **Virtual cluster (deterministic)** — on a heterogeneous virtual
//!    cluster, the asynchronous steady-state master–slave folds at least
//!    as many evaluations per virtual second as the batch-synchronous
//!    master at every worker count ≥ 4, with no quality loss: the batch
//!    barrier idles fast nodes behind each epoch's stragglers, the
//!    arrival-order fold does not.
//! 2. **Real threads** — the same comparison holds on real worker
//!    threads with genome-dependent bimodal sleep costs at an equal
//!    wall-clock budget.
//! 3. **Islands** — overlap migration (no per-epoch rendezvous) lets
//!    fast islands keep evolving next to a deliberately slow one,
//!    completing strictly more total generations than synchronous
//!    migration in the same wall budget.
//!
//! Writes `results/BENCH_async.json` (full mode only; gated by
//! `scripts/verify.sh`); redirect stdout to
//! `results/e20_async_fairness.txt`.

use pga_analysis::Table;
use pga_bench::{emit, quick_mode};
use pga_cluster::{ClusterSpec, EvalCostModel, FailurePlan, FaultPlan, NetworkProfile};
use pga_core::ops::{BitFlip, OnePoint, Tournament};
use pga_core::{
    BitString, Engine, GaBuilder, Objective, Problem, Rng64, Scheme, SerialEvaluator, Termination,
};
use pga_island::{Archipelago, EmigrantSelection, MigrationPolicy, SyncMode};
use pga_master_slave::{AsyncSteadyStateGa, ResilientEvaluator, SimulatedMasterSlaveGa};
use pga_topology::Topology;
use std::sync::Arc;
use std::time::Duration;

const POP: usize = 32;
const BITS: usize = 96;
const TASK_COST_S: f64 = 0.01;
const SPEED_RATIO: f64 = 3.0;

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

/// OneMax with a genome-dependent bimodal sleep: ~20% of genomes cost
/// 10× the cheap evaluation. Deterministic per genome, so both engines
/// face the identical cost landscape.
struct BimodalSleepOneMax {
    bits: usize,
    cheap: Duration,
    expensive: Duration,
}

impl Problem for BimodalSleepOneMax {
    type Genome = BitString;
    fn name(&self) -> String {
        "bimodal-sleep-onemax".into()
    }
    fn objective(&self) -> Objective {
        Objective::Maximize
    }
    fn evaluate(&self, g: &BitString) -> f64 {
        let ones = g.count_ones();
        let cost = if ones.is_multiple_of(5) {
            self.expensive
        } else {
            self.cheap
        };
        std::thread::sleep(cost);
        ones as f64
    }
    fn random_genome(&self, rng: &mut Rng64) -> BitString {
        BitString::random(self.bits, rng)
    }
    fn optimum(&self) -> Option<f64> {
        Some(self.bits as f64)
    }
}

/// Per-island fixed sleep, so one island can lag its peers.
struct SleepOneMax {
    bits: usize,
    delay: Duration,
}

impl Problem for SleepOneMax {
    type Genome = BitString;
    fn name(&self) -> String {
        "sleep-onemax".into()
    }
    fn objective(&self) -> Objective {
        Objective::Maximize
    }
    fn evaluate(&self, g: &BitString) -> f64 {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        g.count_ones() as f64
    }
    fn random_genome(&self, rng: &mut Rng64) -> BitString {
        BitString::random(self.bits, rng)
    }
    fn optimum(&self) -> Option<f64> {
        Some(self.bits as f64)
    }
}

struct VirtualRow {
    workers: usize,
    sync_rate: f64,
    async_rate: f64,
    sync_best: f64,
    async_best: f64,
}

/// One virtual-time comparison: both engines run on an identical
/// heterogeneous cluster until virtual time `budget_s`, and report
/// post-initialization evaluations per virtual second plus final best.
fn run_virtual(workers: usize, seed: u64, budget_s: f64) -> VirtualRow {
    let cluster = || {
        ClusterSpec::heterogeneous(workers, SPEED_RATIO, 9, NetworkProfile::FastEthernet)
            .expect("valid cluster")
    };

    // Synchronous: generational GA, whole batches charged at the barrier.
    let ga = GaBuilder::new(Arc::new(OneMax(BITS)))
        .seed(seed)
        .pop_size(POP)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(BITS))
        .scheme(Scheme::Generational { elitism: 1 })
        .build()
        .expect("valid configuration");
    let mut sim =
        SimulatedMasterSlaveGa::new(ga, cluster(), FailurePlan::none(workers), TASK_COST_S)
            .expect("valid simulator");
    let mut sync_best = f64::NAN;
    while sim.sim_seconds() < budget_s {
        sync_best = sim.step().best_ever;
    }
    let sync_rate = (sim.ga().ledger().evaluations() - POP as u64) as f64 / sim.sim_seconds();

    // Asynchronous: same ops, same cluster, same fixed task cost — only
    // the barrier is gone.
    let mut async_ga = AsyncSteadyStateGa::builder(Arc::new(OneMax(BITS)))
        .seed(seed)
        .pop_size(POP)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(BITS))
        .virtual_cluster(
            cluster(),
            EvalCostModel::fixed(TASK_COST_S).expect("valid cost"),
        )
        .build()
        .expect("valid configuration");
    let mut async_best = f64::NAN;
    while async_ga.virtual_clock().expect("virtual backend") < budget_s {
        async_best = async_ga.step().best_ever;
    }
    let clock = async_ga.virtual_clock().expect("virtual backend");
    let async_rate = (async_ga.ledger().evaluations() - POP as u64) as f64 / clock;

    VirtualRow {
        workers,
        sync_rate,
        async_rate,
        sync_best,
        async_best,
    }
}

struct ThreadRow {
    workers: usize,
    budget_ms: u64,
    sync_evals: u64,
    async_evals: u64,
    sync_best: f64,
    async_best: f64,
}

/// Real-thread comparison at an equal wall budget on bimodal sleep costs.
fn run_threads(workers: usize, seed: u64, budget: Duration) -> ThreadRow {
    let problem = || BimodalSleepOneMax {
        bits: 64,
        cheap: Duration::from_micros(100),
        expensive: Duration::from_millis(1),
    };
    let stop = Termination::new()
        .wall_clock(budget)
        .max_generations(1_000_000);

    let eval = ResilientEvaluator::builder(problem(), workers)
        .task_deadline(Duration::from_millis(250))
        .fault_plan(FaultPlan::none(workers))
        .build()
        .expect("valid evaluator");
    let mut sync_ga = GaBuilder::new(problem())
        .seed(seed)
        .pop_size(24)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(64))
        .scheme(Scheme::Generational { elitism: 1 })
        .evaluator(eval)
        .build()
        .expect("valid configuration");
    let sync_out = sync_ga.run(&stop).expect("bounded run");

    let mut async_ga = AsyncSteadyStateGa::builder(problem())
        .seed(seed)
        .pop_size(24)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(64))
        .threads(workers)
        .build()
        .expect("valid configuration");
    let async_out = async_ga.run(&stop).expect("bounded run");

    ThreadRow {
        workers,
        budget_ms: budget.as_millis() as u64,
        sync_evals: sync_out.evaluations,
        async_evals: async_out.evaluations,
        sync_best: sync_out.best_fitness,
        async_best: async_out.best_fitness,
    }
}

struct IslandRow {
    mode: &'static str,
    total_generations: u64,
    slow_generations: u64,
    fast_generations_min: u64,
    best: f64,
}

/// Four islands, one 10× slower, equal wall budget: sync rendezvous vs
/// barrier-free overlap migration.
fn run_islands(sync: SyncMode, seed: u64, budget: Duration) -> IslandRow {
    let islands: Vec<_> = (0..4)
        .map(|i| {
            let delay = if i == 0 {
                Duration::from_millis(1)
            } else {
                Duration::from_micros(100)
            };
            GaBuilder::new(Arc::new(SleepOneMax { bits: 64, delay }))
                .seed(seed + i)
                .pop_size(16)
                .selection(Tournament::binary())
                .crossover(OnePoint)
                .mutation(BitFlip::one_over_len(64))
                .scheme(Scheme::Generational { elitism: 1 })
                .build()
                .expect("valid deme configuration")
        })
        .collect::<Vec<pga_core::Ga<Arc<SleepOneMax>, SerialEvaluator>>>();
    let policy = MigrationPolicy {
        interval: 4,
        count: 1,
        emigrant: EmigrantSelection::Best,
        replacement: pga_core::ops::ReplacementPolicy::WorstIfBetter,
        sync,
    };
    let r = Archipelago::builder()
        .islands(islands)
        .topology(Topology::RingBi)
        .policy(policy)
        .run_threaded(&Termination::new().wall_clock(budget))
        .expect("threaded island run");
    IslandRow {
        mode: sync.name(),
        total_generations: r.generations.iter().sum(),
        slow_generations: r.generations[0],
        fast_generations_min: *r.generations[1..].iter().min().expect("fast islands"),
        best: r.best.fitness(),
    }
}

fn main() {
    let quick = quick_mode();
    let virtual_budget = if quick { 5.0 } else { 30.0 };
    let thread_budget = Duration::from_millis(if quick { 150 } else { 400 });
    let island_budget = Duration::from_millis(if quick { 150 } else { 400 });
    let worker_counts: &[usize] = if quick { &[4] } else { &[2, 4, 8] };

    println!(
        "E20 — time-fair sync vs async (equal time, heterogeneous costs); \
         quick = {quick}\n"
    );

    let mut t = Table::new(vec![
        "workers",
        "sync evals/s",
        "async evals/s",
        "async/sync",
        "sync best",
        "async best",
    ])
    .with_title(format!(
        "E20a — virtual heterogeneous cluster (speed ratio {SPEED_RATIO}, task {TASK_COST_S} s), \
         OneMax-{BITS} pop {POP}, {virtual_budget} virtual s"
    ));
    let mut virtual_rows = Vec::new();
    for &workers in worker_counts {
        let row = run_virtual(workers, 500 + workers as u64, virtual_budget);
        if workers >= 4 {
            assert!(
                row.async_rate >= row.sync_rate,
                "{workers} workers: async folded {:.1} evals/s < sync {:.1} — the barrier-free \
                 master should never be slower",
                row.async_rate,
                row.sync_rate
            );
            assert!(
                row.async_best + 2.0 >= row.sync_best,
                "{workers} workers: async quality collapsed ({} vs {})",
                row.async_best,
                row.sync_best
            );
        }
        t.row(vec![
            row.workers.to_string(),
            format!("{:.1}", row.sync_rate),
            format!("{:.1}", row.async_rate),
            format!("{:.2}", row.async_rate / row.sync_rate),
            format!("{:.0}", row.sync_best),
            format!("{:.0}", row.async_best),
        ]);
        virtual_rows.push(row);
    }
    emit(&t);

    let mut t2 = Table::new(vec![
        "workers",
        "budget [ms]",
        "sync evals",
        "async evals",
        "async/sync",
        "sync best",
        "async best",
    ])
    .with_title(
        "E20b — real worker threads, bimodal sleep costs (100 us / 1 ms), equal wall budget"
            .to_string(),
    );
    let thread_workers: &[usize] = if quick { &[4] } else { &[4, 8] };
    let mut thread_rows = Vec::new();
    for &workers in thread_workers {
        let row = run_threads(workers, 900 + workers as u64, thread_budget);
        t2.row(vec![
            row.workers.to_string(),
            row.budget_ms.to_string(),
            row.sync_evals.to_string(),
            row.async_evals.to_string(),
            format!(
                "{:.2}",
                row.async_evals as f64 / row.sync_evals.max(1) as f64
            ),
            format!("{:.0}", row.sync_best),
            format!("{:.0}", row.async_best),
        ]);
        thread_rows.push(row);
    }
    emit(&t2);

    let mut t3 = Table::new(vec![
        "migration",
        "total gens",
        "slow-island gens",
        "min fast-island gens",
        "best",
    ])
    .with_title(
        "E20c — 4 threaded islands, island 0 is 10x slower, equal wall budget: \
         sync rendezvous vs overlap"
            .to_string(),
    );
    let sync_row = run_islands(SyncMode::Synchronous, 77, island_budget);
    let overlap_row = run_islands(SyncMode::Overlap, 77, island_budget);
    assert!(
        overlap_row.total_generations > sync_row.total_generations,
        "overlap islands must outrun the rendezvous: {} vs {}",
        overlap_row.total_generations,
        sync_row.total_generations
    );
    for row in [&sync_row, &overlap_row] {
        t3.row(vec![
            row.mode.to_string(),
            row.total_generations.to_string(),
            row.slow_generations.to_string(),
            row.fast_generations_min.to_string(),
            format!("{:.0}", row.best),
        ]);
    }
    emit(&t3);

    if quick {
        println!("quick mode: skipping results/BENCH_async.json");
    } else {
        let json = render_json(&virtual_rows, &thread_rows, &sync_row, &overlap_row);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_async.json"
        );
        std::fs::write(path, &json).expect("write BENCH_async.json");
        println!("wrote {path}");
    }
    println!(
        "reading: at equal time on heterogeneous evaluation costs, the barrier-free\n\
         asynchronous master-slave folds at least as many evaluations per second as the\n\
         batch-synchronous master at every worker count >= 4 (deterministic virtual\n\
         replay and real threads agree), with equal-or-better best fitness; and overlap\n\
         migration lets fast islands keep evolving beside a 10x slower neighbor instead\n\
         of waiting at the epoch rendezvous."
    );
}

fn render_json(
    virtual_rows: &[VirtualRow],
    thread_rows: &[ThreadRow],
    sync_islands: &IslandRow,
    overlap_islands: &IslandRow,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"task_cost_s\": {TASK_COST_S}, \"speed_ratio\": {SPEED_RATIO}, \"pop\": {POP},\n"
    ));
    out.push_str("  \"virtual\": [\n");
    for (i, r) in virtual_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"sync_evals_per_s\": {:.2}, \"async_evals_per_s\": {:.2}, \
             \"sync_best\": {:.1}, \"async_best\": {:.1}}}{}\n",
            r.workers,
            r.sync_rate,
            r.async_rate,
            r.sync_best,
            r.async_best,
            if i + 1 == virtual_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"threads\": [\n");
    for (i, r) in thread_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"budget_ms\": {}, \"sync_evals\": {}, \"async_evals\": {}, \
             \"sync_best\": {:.1}, \"async_best\": {:.1}}}{}\n",
            r.workers,
            r.budget_ms,
            r.sync_evals,
            r.async_evals,
            r.sync_best,
            r.async_best,
            if i + 1 == thread_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"islands\": [\n");
    for (i, r) in [sync_islands, overlap_islands].iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"total_generations\": {}, \"slow_generations\": {}, \
             \"fast_generations_min\": {}, \"best\": {:.1}}}{}\n",
            r.mode,
            r.total_generations,
            r.slow_generations,
            r.fast_generations_min,
            r.best,
            if i == 0 { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
