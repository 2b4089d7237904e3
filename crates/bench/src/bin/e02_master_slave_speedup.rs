//! E02 — Master–slave speedup vs evaluation grain (Bethke 1976; Cantú-Paz
//! 2000). Claim: speedup of the global model approaches the worker count
//! only when one fitness evaluation is expensive relative to dispatch;
//! cheap fitness functions are communication-bound.
//!
//! Part A measures *real* wall-clock speedup on a rayon pool; part B sweeps
//! a simulated 1–64-node cluster over two network profiles.

use pga_analysis::{speedup, Table};
use pga_bench::{emit, f2, standard_binary_ga};
use pga_cluster::{ClusterSpec, FailurePlan, MasterSlaveSim, NetworkProfile};
use pga_core::ops::{BitFlip, OnePoint, Tournament};
use pga_core::{Engine, Ga, GaBuilder, Scheme};
use pga_master_slave::{ExpensiveFitness, RayonEvaluator};
use pga_problems::OneMax;
use std::sync::Arc;
use std::time::Instant;

const LEN: usize = 128;
const POP: usize = 128;
const GENS: u64 = 20;

fn wall_time(workers: usize, work_iters: u64) -> f64 {
    let problem = Arc::new(ExpensiveFitness::new(OneMax::new(LEN), work_iters));
    let mut ga = GaBuilder::new(problem)
        .seed(7)
        .pop_size(POP)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(LEN))
        .scheme(Scheme::Generational { elitism: 1 })
        .evaluator(RayonEvaluator::new(workers).expect("pool"))
        .build()
        .expect("valid config");
    let t0 = Instant::now();
    for _ in 0..GENS {
        ga.step();
    }
    t0.elapsed().as_secs_f64()
}

fn part_a() {
    let grains: [(&str, u64); 3] = [
        ("cheap (~popcount)", 0),
        ("medium (~50us)", 50_000),
        ("expensive (~2ms)", 2_000_000),
    ];
    let workers = [1usize, 2, 4, 8];
    let mut t = Table::new(vec![
        "fitness grain",
        "workers",
        "time [s]",
        "speedup",
        "efficiency",
    ])
    .with_title("E02a — real rayon master-slave speedup (OneMax + synthetic work)");
    for (label, iters) in grains {
        let t1 = wall_time(1, iters);
        for &w in &workers {
            let tw = if w == 1 { t1 } else { wall_time(w, iters) };
            t.row(vec![
                label.to_string(),
                w.to_string(),
                format!("{tw:.3}"),
                f2(speedup(t1, tw)),
                f2(speedup(t1, tw) / w as f64),
            ]);
        }
    }
    emit(&t);
}

fn part_pool_health() {
    // Telemetry from the persistent work-stealing pool: how many chunk
    // tasks each batch produced, how many were stolen rather than run by
    // their producer, how often workers parked, and the injection-to-start
    // queue latency. One row per worker count, same medium-grain workload.
    let mut t = Table::new(vec![
        "workers",
        "batches",
        "tasks",
        "steals",
        "parks",
        "queue wait [us]",
    ])
    .with_title("E02c — pool health, 20 generations of 128 medium-grain evaluations");
    for workers in [1usize, 2, 4, 8] {
        let problem = Arc::new(ExpensiveFitness::new(OneMax::new(LEN), 50_000));
        let evaluator = RayonEvaluator::new(workers).expect("pool");
        let mut ga = GaBuilder::new(problem)
            .seed(7)
            .pop_size(POP)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(LEN))
            .scheme(Scheme::Generational { elitism: 1 })
            .evaluator(evaluator)
            .build()
            .expect("valid config");
        for _ in 0..GENS {
            ga.step();
        }
        let stats = ga.evaluator().pool_stats();
        t.row(vec![
            workers.to_string(),
            stats.calls.to_string(),
            stats.tasks_executed.to_string(),
            stats.steals.to_string(),
            stats.parks.to_string(),
            stats.queue_wait_micros.to_string(),
        ]);
    }
    emit(&t);
    println!("(a 1-worker pool takes the inline fast path — batches bypass the queues entirely)\n");
}

fn part_b() {
    let mut t = Table::new(vec![
        "network",
        "eval cost",
        "nodes",
        "virtual time [s]",
        "speedup",
        "efficiency",
    ])
    .with_title("E02b — simulated cluster speedup, one generation of 512 evaluations");
    for (net_name, net) in [
        ("myrinet", NetworkProfile::Myrinet),
        ("fast-ethernet", NetworkProfile::FastEthernet),
    ] {
        for (cost_name, cost) in [("0.1 ms", 1e-4), ("10 ms", 1e-2)] {
            let tasks = vec![cost; 512];
            let base = {
                let sim = MasterSlaveSim::new(
                    ClusterSpec::homogeneous(1, net).expect("cluster config"),
                    FailurePlan::none(1),
                );
                sim.run_batch(&tasks).makespan
            };
            for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
                let sim = MasterSlaveSim::new(
                    ClusterSpec::homogeneous(nodes, net).expect("cluster config"),
                    FailurePlan::none(nodes),
                );
                let makespan = sim.run_batch(&tasks).makespan;
                t.row(vec![
                    net_name.to_string(),
                    cost_name.to_string(),
                    nodes.to_string(),
                    format!("{makespan:.4}"),
                    f2(speedup(base, makespan)),
                    f2(speedup(base, makespan) / nodes as f64),
                ]);
            }
        }
    }
    emit(&t);
}

fn sanity() {
    // The model must not change search behaviour: same seed, same best.
    let mut serial = standard_binary_ga(Arc::new(OneMax::new(LEN)), LEN, POP, 7);
    let mut parallel = GaBuilder::new(Arc::new(OneMax::new(LEN)))
        .seed(7)
        .pop_size(POP)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(LEN))
        .scheme(Scheme::Generational { elitism: 1 })
        .evaluator(RayonEvaluator::new(4).expect("pool"))
        .build()
        .expect("valid config");
    for _ in 0..10 {
        let a = serial.step();
        let b = parallel.step();
        assert_eq!(a.best, b.best, "master-slave changed the search");
    }
    let _: &Ga<_, _> = &serial;
    println!("sanity: serial and master-slave trajectories identical ✓\n");
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host parallelism: {cores} core(s). Part A measures real rayon dispatch on this host\n\
         (flat on a single-core host — the overhead floor); part B reproduces the cluster-scale\n\
         speedup curves on the simulated substrate.\n"
    );
    sanity();
    part_a();
    part_pool_health();
    part_b();
}
