//! E07 — Master–slave vs islands on heterogeneous, failure-prone clusters
//! (Gagné, Parizeau & Dubreuil, GECCO 2003). Claims: the fault-tolerant
//! master–slave model (i) loses *time*, never *search state*, to hard node
//! failures, and (ii) adapts to heterogeneous node speeds, while a
//! synchronous island model is paced by its slowest node and loses each
//! dead island's subpopulation.

use pga_analysis::{Summary, Table};
use pga_bench::{emit, f2, reps, standard_binary_islands};
use pga_cluster::{ClusterSpec, FailurePlan, NetworkProfile};
use pga_core::{Engine, Individual, Termination};
use pga_island::{EmigrantSelection, MigrationPolicy};
use pga_master_slave::SimulatedMasterSlaveGa;
use pga_observe::{EventKind, RingRecorder};
use pga_problems::DeceptiveTrap;
use pga_topology::Topology;
use std::sync::Arc;

const NODES: usize = 16;
const TOTAL_POP: usize = 160;
const GENS: u64 = 120;
const EVAL_COST: f64 = 0.01; // seconds per evaluation on a speed-1 node
const REPS: usize = 8;

/// Island PGA on the failing cluster: one island per node; an island whose
/// node has died stops evolving and stops exchanging. Virtual time advances
/// per generation by the slowest *alive* node (synchronous model).
fn island_run(
    problem: &Arc<DeceptiveTrap>,
    spec: &ClusterSpec,
    failures: &FailurePlan,
    seed: u64,
) -> (f64, f64, usize) {
    let genome_len = problem.len();
    let mut islands = standard_binary_islands(problem, genome_len, NODES, TOTAL_POP / NODES, seed);
    let policy = MigrationPolicy {
        interval: 8,
        count: 1,
        emigrant: EmigrantSelection::Best,
        ..MigrationPolicy::default()
    };
    let adjacency = Topology::RingUni.adjacency(NODES);
    let mut alive = vec![true; NODES];
    let mut clock = 0.0f64;
    let per_gen_work = (TOTAL_POP / NODES) as f64 * EVAL_COST;
    for gen in 1..=GENS {
        // Node deaths before this generation starts.
        #[allow(clippy::needless_range_loop)] // `i` is a node id across two arrays
        for i in 0..NODES {
            if alive[i] && failures.fail_time(i).is_some_and(|t| t <= clock) {
                alive[i] = false;
            }
        }
        if !alive.iter().any(|&a| a) {
            break;
        }
        // Synchronous epoch: paced by the slowest alive node.
        let slowest = spec
            .speeds
            .iter()
            .zip(&alive)
            .filter(|&(_, &a)| a)
            .map(|(&s, _)| s)
            .fold(f64::INFINITY, f64::min);
        clock += per_gen_work / slowest;
        for (i, isl) in islands.iter_mut().enumerate() {
            if alive[i] {
                isl.step();
            }
        }
        if policy.migrates_at(gen) {
            let mut inboxes: Vec<Vec<Individual<_>>> = (0..NODES).map(|_| Vec::new()).collect();
            for (src, targets) in adjacency.iter().enumerate() {
                if !alive[src] {
                    continue;
                }
                for &dst in targets {
                    if !alive[dst] {
                        continue;
                    }
                    let obj = islands[src].objective();
                    let mut rng = islands[src].rng_mut().clone();
                    let picks = policy.emigrant.pick(
                        islands[src].population(),
                        obj,
                        policy.count,
                        &mut rng,
                    );
                    *islands[src].rng_mut() = rng;
                    inboxes[dst].extend(islands[src].clone_members(&picks));
                }
            }
            for (dst, inbox) in inboxes.into_iter().enumerate() {
                if alive[dst] && !inbox.is_empty() {
                    islands[dst].receive_immigrants(inbox, policy.replacement);
                }
            }
        }
    }
    // Dead islands' knowledge is gone: best over alive islands only.
    let best = islands
        .iter()
        .zip(&alive)
        .filter(|&(_, &a)| a)
        .map(|(isl, _)| isl.ledger().best_ever().fitness())
        .fold(f64::NEG_INFINITY, f64::max);
    let dead = alive.iter().filter(|&&a| !a).count();
    (best, clock, dead)
}

fn main() {
    let problem = Arc::new(DeceptiveTrap::new(4, 12));
    let horizon = GENS as f64 * (TOTAL_POP / NODES) as f64 * EVAL_COST * 4.0;

    let mut t = Table::new(vec![
        "model",
        "MTBF",
        "mean best (opt 48)",
        "virtual time [s]",
        "dead nodes",
        "reassignments",
    ])
    .with_title(format!(
        "E07 — trap 4x12 on a simulated {NODES}-node heterogeneous cluster (speeds 1-4x, {} reps)",
        reps(REPS)
    ));

    for (mtbf_label, mtbf) in [
        ("none", f64::INFINITY),
        ("4x run", 4.0 * horizon),
        ("1x run", horizon),
        ("0.25x run", 0.25 * horizon),
    ] {
        // Master-slave rows. Each rep runs with a ring recorder attached;
        // dead nodes and reassignments are counted from the unified trace
        // (`NodeFailed` / `TaskReassigned` events) instead of being smuggled
        // through `RunOutcome` or re-derived from the failure plan.
        let mut ms_bests = Vec::new();
        let mut ms_clocks = Vec::new();
        let mut ms_deads = Vec::new();
        let mut ms_reassigns = Vec::new();
        for rep in 0..reps(REPS) {
            let seed = 100 + rep as u64;
            let spec = ClusterSpec::heterogeneous(NODES, 4.0, seed, NetworkProfile::Myrinet)
                .expect("cluster config");
            let failures = if mtbf.is_infinite() {
                FailurePlan::none(NODES)
            } else {
                FailurePlan::exponential(NODES, mtbf, horizon, seed ^ 0xABCD)
                    .expect("cluster config")
            };
            let ga =
                pga_bench::standard_binary_ga(Arc::clone(&problem), problem.len(), TOTAL_POP, seed);
            let ring = RingRecorder::new(1 << 16);
            let report = SimulatedMasterSlaveGa::new_with_recorder(
                ga,
                spec,
                failures,
                EVAL_COST,
                ring.clone(),
            )
            .expect("valid cluster configuration")
            .run(&Termination::new().until_optimum().max_generations(GENS))
            .expect("bounded");
            let (mut dead, mut reassigned) = (0u64, 0u64);
            for event in ring.take_events() {
                match event.kind {
                    EventKind::NodeFailed { .. } => dead += 1,
                    EventKind::TaskReassigned { .. } => reassigned += 1,
                    _ => {}
                }
            }
            ms_bests.push(report.best_fitness);
            ms_clocks.push(report.virtual_seconds);
            ms_deads.push(dead as f64);
            ms_reassigns.push(reassigned as f64);
        }
        let ms_b = Summary::of(&ms_bests);
        let ms_c = Summary::of(&ms_clocks);
        let ms_d = Summary::of(&ms_deads);
        let ms_r = Summary::of(&ms_reassigns);
        t.row(vec![
            "master-slave".into(),
            mtbf_label.to_string(),
            ms_b.mean_pm_std(2),
            format!("{:.1} ± {:.1}", ms_c.mean, ms_c.std_dev),
            f2(ms_d.mean),
            format!("{:.1}", ms_r.mean),
        ]);

        // Island rows.
        let mut bests = Vec::new();
        let mut clocks = Vec::new();
        let mut deads = Vec::new();
        for rep in 0..reps(REPS) {
            let seed = 100 + rep as u64;
            let spec = ClusterSpec::heterogeneous(NODES, 4.0, seed, NetworkProfile::Myrinet)
                .expect("cluster config");
            let failures = if mtbf.is_infinite() {
                FailurePlan::none(NODES)
            } else {
                FailurePlan::exponential(NODES, mtbf, horizon, seed ^ 0xABCD)
                    .expect("cluster config")
            };
            let (best, clock, dead) = island_run(&problem, &spec, &failures, seed);
            bests.push(best);
            clocks.push(clock);
            deads.push(dead as f64);
        }
        let b = pga_analysis::Summary::of(&bests);
        let c = pga_analysis::Summary::of(&clocks);
        let d = pga_analysis::Summary::of(&deads);
        t.row(vec![
            "islands (sync ring)".into(),
            mtbf_label.to_string(),
            b.mean_pm_std(2),
            format!("{:.1} ± {:.1}", c.mean, c.std_dev),
            f2(d.mean),
            "-".into(),
        ]);
    }
    emit(&t);
    println!(
        "reading: master-slave search quality is failure-invariant (same seeds, same best);\n\
         islands lose subpopulations with dead nodes and their sync epochs are paced by the\n\
         slowest surviving node — the Gagné et al. (2003) argument."
    );
}
