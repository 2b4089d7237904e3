//! E21 — massively parallel compact GA (Lobo, Lima & Mártires): the
//! probability-vector cGA matches a plain GA's solution quality at an
//! equal evaluation budget while its state is O(genome) — and the
//! sharded pcGA keeps that quality at 1 000+ simulated nodes while each
//! node holds only O(genome/nodes) model bytes and each generation moves
//! only O(genome) bytes over the wire (model updates, never individuals).
//!
//! Claims checked:
//! 1. **Quality parity** — on OneMax and deceptive traps, the cGA's best
//!    fitness at an equal evaluation budget is within 10% of a plain
//!    generational GA with binary tournament (the selection pressure the
//!    cGA's update rule emulates).
//! 2. **Sharded scale** — the pcGA at 64 → 2 048 nodes keeps the same
//!    parity while per-node model bytes shrink as O(genome/nodes) and
//!    wire traffic per generation stays O(genome), independent of the
//!    virtual population.
//! 3. **Dispatch scaling** — the simulator substrate underneath the
//!    sharded runs dispatches batches at 4 096 nodes within 1.5× of its
//!    1 024-node per-task cost (the event queue's O(log n) depth is the
//!    only admissible growth; the old per-node scans were ~40× here).
//!
//! Writes `results/BENCH_cluster.json` (full mode only; gated by
//! `scripts/verify.sh`); redirect stdout to
//! `results/e21_compact_scale.txt`.

use pga_analysis::Table;
use pga_bench::{emit, quick_mode};
use pga_cluster::{ClusterSpec, FailurePlan, MasterSlaveSim, NetworkProfile};
use pga_compact::{CompactGa, ShardedCompactGa};
use pga_core::ops::{BitFlip, OnePoint, Tournament};
use pga_core::{Engine, GaBuilder, Problem, Scheme};
use pga_problems::{DeceptiveTrap, OneMax};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Quality floor for the parity claim: cGA best must reach at least this
/// fraction of the plain GA's best at the same evaluation budget.
const PARITY_FLOOR: f64 = 0.9;

struct ParityRow {
    problem: String,
    budget: u64,
    ga_best: f64,
    cga_best: f64,
    parity: f64,
}

/// Plain generational GA best fitness after (at least) `budget` evaluations.
fn ga_best<P>(problem: Arc<P>, genome_len: usize, seed: u64, budget: u64) -> f64
where
    P: Problem<Genome = pga_core::BitString> + Send + Sync + 'static,
{
    let mut ga = GaBuilder::new(problem)
        .seed(seed)
        .pop_size(64)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(genome_len))
        .scheme(Scheme::Generational { elitism: 1 })
        .build()
        .expect("valid configuration");
    while ga.ledger().evaluations() < budget {
        ga.step();
    }
    ga.ledger().best_ever().fitness()
}

/// Serial cGA best fitness after (at least) `budget` evaluations.
fn cga_best<P>(problem: Arc<P>, seed: u64, budget: u64) -> f64
where
    P: Problem<Genome = pga_core::BitString>,
{
    let mut cga = CompactGa::builder(problem)
        .seed(seed)
        .virtual_pop(127)
        .build()
        .expect("valid configuration");
    while cga.ledger().evaluations() < budget && !cga.halted() {
        cga.step();
    }
    cga.ledger().best_ever().fitness()
}

fn parity_row<P>(
    problem: Arc<P>,
    label: &str,
    genome_len: usize,
    seed: u64,
    budget: u64,
) -> ParityRow
where
    P: Problem<Genome = pga_core::BitString> + Send + Sync + 'static,
{
    let ga = ga_best(Arc::clone(&problem), genome_len, seed, budget);
    let cga = cga_best(problem, seed ^ 0x9e37, budget);
    ParityRow {
        problem: label.to_string(),
        budget,
        ga_best: ga,
        cga_best: cga,
        parity: cga / ga,
    }
}

struct ScaleRow {
    nodes: usize,
    pcga_best: f64,
    parity: f64,
    per_node_model_bytes: usize,
    wire_bytes_per_gen: f64,
    virtual_s: f64,
}

/// Sharded pcGA on OneMax-`genome` across `nodes` simulated nodes at an
/// equal evaluation budget, compared against the same plain-GA baseline.
fn scale_row(nodes: usize, genome: usize, seed: u64, budget: u64, ga_baseline: f64) -> ScaleRow {
    let cluster =
        ClusterSpec::homogeneous(nodes, NetworkProfile::GigabitEthernet).expect("valid cluster");
    let mut pcga = ShardedCompactGa::builder(Arc::new(OneMax::new(genome)))
        .cluster(cluster)
        .virtual_pop(127)
        .seed(seed)
        .build()
        .expect("valid configuration");
    while pcga.ledger().evaluations() < budget && !pcga.halted() {
        pcga.step();
    }
    let best = pcga.ledger().best_ever().fitness();
    let wire = pcga.wire();
    ScaleRow {
        nodes,
        pcga_best: best,
        parity: best / ga_baseline,
        per_node_model_bytes: pcga.per_node_model_bytes(),
        wire_bytes_per_gen: wire.bytes as f64 / pcga.ledger().generation().max(1) as f64,
        virtual_s: pcga.elapsed_virtual(),
    }
}

struct DispatchRow {
    nodes: usize,
    ns_per_task: f64,
}

/// Median-of-`samples` per-task nanoseconds for a full batch dispatch at
/// `nodes` nodes (same methodology as the `dispatch_scaling` regression
/// test in pga-cluster).
fn batch_per_task_ns(nodes: usize, samples: usize) -> f64 {
    let spec = ClusterSpec::homogeneous(nodes, NetworkProfile::SharedMemory).expect("nodes > 0");
    let sim = MasterSlaveSim::new(spec, FailurePlan::none(nodes)).with_trace(false);
    let tasks = vec![1e-3; nodes * 4];
    let reps = (1usize << 16).div_ceil(tasks.len());
    black_box(sim.run_batch(&tasks));
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(sim.run_batch(black_box(&tasks)));
            }
            start.elapsed().as_nanos() as f64 / (reps * tasks.len()) as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn main() {
    let quick = quick_mode();
    let parity_budget: u64 = if quick { 6_000 } else { 30_000 };
    let scale_genome: usize = 2_048;
    let scale_budget: u64 = if quick { 8_000 } else { 24_000 };
    let node_counts: &[usize] = if quick {
        &[1_024]
    } else {
        &[64, 256, 1_024, 2_048]
    };
    let samples = if quick { 3 } else { 5 };

    println!("E21 — compact GA parity and sharded scale; quick = {quick}\n");

    // E21a — serial cGA quality parity at an equal evaluation budget.
    let rows = vec![
        parity_row(
            Arc::new(OneMax::new(256)),
            "onemax-256",
            256,
            2101,
            parity_budget,
        ),
        parity_row(
            Arc::new(DeceptiveTrap::new(4, 32)),
            "trap4x32",
            128,
            2102,
            parity_budget,
        ),
    ];
    let mut t = Table::new(vec!["problem", "budget", "ga best", "cga best", "cga/ga"]).with_title(
        format!("E21a — cGA (virtual pop 127) vs plain GA (pop 64) at {parity_budget} evaluations"),
    );
    for r in &rows {
        assert!(
            r.parity >= PARITY_FLOOR,
            "{}: cGA best {:.1} fell below {PARITY_FLOOR}x of GA best {:.1}",
            r.problem,
            r.cga_best,
            r.ga_best
        );
        t.row(vec![
            r.problem.clone(),
            r.budget.to_string(),
            format!("{:.1}", r.ga_best),
            format!("{:.1}", r.cga_best),
            format!("{:.3}", r.parity),
        ]);
    }
    emit(&t);

    // E21b — sharded pcGA at scale: same parity, O(genome/nodes) per-node
    // model, O(genome) wire bytes per generation.
    let baseline = ga_best(
        Arc::new(OneMax::new(scale_genome)),
        scale_genome,
        2103,
        scale_budget,
    );
    let mut t2 = Table::new(vec![
        "nodes",
        "pcga best",
        "pcga/ga",
        "node model [B]",
        "wire [B/gen]",
        "virtual [s]",
    ])
    .with_title(format!(
        "E21b — pcGA on OneMax-{scale_genome} at {scale_budget} evaluations \
         (plain GA baseline best = {baseline:.1})"
    ));
    let mut scale_rows = Vec::new();
    for &nodes in node_counts {
        let row = scale_row(
            nodes,
            scale_genome,
            2200 + nodes as u64,
            scale_budget,
            baseline,
        );
        assert!(
            row.parity >= PARITY_FLOOR,
            "{nodes} nodes: pcGA best {:.1} fell below {PARITY_FLOOR}x of GA best {baseline:.1}",
            row.pcga_best
        );
        t2.row(vec![
            row.nodes.to_string(),
            format!("{:.1}", row.pcga_best),
            format!("{:.3}", row.parity),
            row.per_node_model_bytes.to_string(),
            format!("{:.0}", row.wire_bytes_per_gen),
            format!("{:.2}", row.virtual_s),
        ]);
        scale_rows.push(row);
    }
    emit(&t2);

    // E21c — simulator dispatch cost stays near-linear to 4 096 nodes.
    let dispatch: Vec<DispatchRow> = [64usize, 1_024, 4_096]
        .iter()
        .map(|&nodes| DispatchRow {
            nodes,
            ns_per_task: batch_per_task_ns(nodes, samples),
        })
        .collect();
    let base_1024 = dispatch
        .iter()
        .find(|r| r.nodes == 1_024)
        .expect("1024-node row")
        .ns_per_task;
    let mut t3 = Table::new(vec!["nodes", "ns/task", "vs 1024"]).with_title(
        "E21c — batch dispatch per-task cost (median; event-queue depth is \
         the only admissible growth)"
            .to_string(),
    );
    for r in &dispatch {
        t3.row(vec![
            r.nodes.to_string(),
            format!("{:.0}", r.ns_per_task),
            format!("{:.2}", r.ns_per_task / base_1024),
        ]);
    }
    emit(&t3);
    let local = dispatch.last().expect("rows").ns_per_task / base_1024;
    assert!(
        local <= 1.5,
        "per-task dispatch grew {local:.2}x from 1024 to 4096 nodes; must stay near-linear"
    );

    if quick {
        println!("quick mode: skipping results/BENCH_cluster.json");
    } else {
        let json = render_json(&rows, &scale_rows, &dispatch, base_1024);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_cluster.json"
        );
        std::fs::write(path, &json).expect("write BENCH_cluster.json");
        println!("wrote {path}");
    }
    println!(
        "reading: at an equal evaluation budget the compact GA's probability-vector\n\
         model matches the plain GA's solution quality on OneMax and deceptive traps,\n\
         and the sharded pcGA holds that parity to 2 048 simulated nodes while each\n\
         node stores only its O(genome/nodes) slice and each generation exchanges\n\
         only O(genome) bytes of model updates — never individuals; the simulator\n\
         underneath dispatches 4 096-node batches within 1.5x of its 1 024-node\n\
         per-task cost."
    );
}

fn render_json(
    parity: &[ParityRow],
    scale: &[ScaleRow],
    dispatch: &[DispatchRow],
    base_1024: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"parity_floor\": {PARITY_FLOOR},\n"));
    out.push_str("  \"parity\": [\n");
    for (i, r) in parity.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"problem\": \"{}\", \"budget_evals\": {}, \"ga_best\": {:.2}, \
             \"cga_best\": {:.2}, \"parity\": {:.4}}}{}\n",
            r.problem,
            r.budget,
            r.ga_best,
            r.cga_best,
            r.parity,
            if i + 1 == parity.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"scale\": [\n");
    for (i, r) in scale.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"pcga_best\": {:.2}, \"parity\": {:.4}, \
             \"per_node_model_bytes\": {}, \"wire_bytes_per_gen\": {:.1}, \
             \"virtual_s\": {:.3}}}{}\n",
            r.nodes,
            r.pcga_best,
            r.parity,
            r.per_node_model_bytes,
            r.wire_bytes_per_gen,
            r.virtual_s,
            if i + 1 == scale.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"dispatch\": [\n");
    for (i, r) in dispatch.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"ns_per_task\": {:.1}, \"ratio_vs_1024\": {:.4}}}{}\n",
            r.nodes,
            r.ns_per_task,
            r.ns_per_task / base_1024,
            if i + 1 == dispatch.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
