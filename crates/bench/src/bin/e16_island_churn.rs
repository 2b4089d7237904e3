//! E16 (extension) — Distributed evolution under peer churn (DRM/DREAM
//! analog; Jelasity, Preuß & Eiben 2002; Arenas et al. 2002). The DREAM
//! framework ran island EAs over volunteer Internet peers that join and
//! leave at will. Claim: the island model keeps making progress under
//! churn — departures lose one deme's state, arrivals re-seed diversity —
//! on the DRM test workload (subset sum).

use pga_analysis::{repeat, Table};
use pga_bench::{emit, pct, reps, standard_binary_ga};
use pga_core::{Engine, Ga, Individual, Problem, Rng64, SerialEvaluator};
use pga_island::{EmigrantSelection, MigrationPolicy};
use pga_problems::SubsetSum;
use pga_topology::Topology;
use std::sync::Arc;

const ISLANDS: usize = 8;
const ISLAND_POP: usize = 32;
const GENS: u64 = 600;
const CHURN_INTERVAL: u64 = 25;
const REPS: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum ChurnMode {
    /// No churn: the static island baseline.
    Static,
    /// Every interval one random island leaves and a fresh one joins.
    Replace,
    /// Every interval one random island leaves and nothing replaces it.
    Shrink,
}

impl ChurnMode {
    fn label(self) -> &'static str {
        match self {
            Self::Static => "static (no churn)",
            Self::Replace => "churn: leave + join",
            Self::Shrink => "churn: leave only",
        }
    }
}

/// Runs an 8-slot ring where slots can be vacated/refilled; returns
/// (hit, evaluations, best).
fn run(problem: &Arc<SubsetSum>, mode: ChurnMode, seed: u64) -> (bool, u64, f64) {
    let len = problem.len();
    let policy = MigrationPolicy {
        interval: 8,
        count: 1,
        emigrant: EmigrantSelection::Best,
        ..MigrationPolicy::default()
    };
    let mut slots: Vec<Option<Ga<Arc<SubsetSum>, SerialEvaluator>>> = (0..ISLANDS)
        .map(|i| {
            Some(standard_binary_ga(
                Arc::clone(problem),
                len,
                ISLAND_POP,
                seed + i as u64,
            ))
        })
        .collect();
    let adjacency = Topology::RingUni.adjacency(ISLANDS);
    let mut churn_rng = Rng64::new(seed ^ 0xC0FFEE);
    let mut evaluations_of_departed = 0u64;
    let mut best_ever = f64::INFINITY; // subset sum is minimized
    let mut next_seed = seed + 10_000;

    for gen in 1..=GENS {
        for slot in slots.iter_mut().flatten() {
            slot.step();
        }
        // Track the global best (departed islands' discoveries count only
        // while they were alive, like DREAM's collector).
        for slot in slots.iter().flatten() {
            best_ever = best_ever.min(slot.ledger().best_ever().fitness());
        }
        if best_ever <= 0.0 {
            break; // exact subset found
        }
        // Migration among occupied slots.
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
        // Churn events.
        if mode != ChurnMode::Static && gen % CHURN_INTERVAL == 0 {
            let occupied: Vec<usize> = (0..ISLANDS).filter(|&i| slots[i].is_some()).collect();
            if occupied.len() > 1 {
                let leave = *churn_rng.choose(&occupied);
                if let Some(ga) = slots[leave].take() {
                    evaluations_of_departed += ga.ledger().evaluations();
                }
                if mode == ChurnMode::Replace {
                    slots[leave] = Some(standard_binary_ga(
                        Arc::clone(problem),
                        len,
                        ISLAND_POP,
                        next_seed,
                    ));
                    next_seed += 1;
                }
            }
        }
    }

    let evaluations: u64 = evaluations_of_departed
        + slots
            .iter()
            .flatten()
            .map(|g| g.ledger().evaluations())
            .sum::<u64>();
    (best_ever <= 0.0, evaluations, best_ever)
}

fn main() {
    let problem = Arc::new(SubsetSum::planted(48, 5_000, 77));
    println!(
        "DRM workload: {} (target {}), {ISLANDS} island slots, churn every {CHURN_INTERVAL} gens, {} reps\n",
        problem.name(),
        problem.target(),
        reps(REPS)
    );
    let mut t = Table::new(vec![
        "mode",
        "efficacy",
        "evals-to-solution",
        "mean best error",
    ])
    .with_title("E16 — island evolution under peer churn (subset sum n=48)");
    for mode in [ChurnMode::Static, ChurnMode::Replace, ChurnMode::Shrink] {
        let out = repeat(reps(REPS), 500, |seed| {
            let t0 = std::time::Instant::now();
            let (hit, evals, best) = run(&problem, mode, seed);
            pga_analysis::RunOutcome {
                best_fitness: best,
                evaluations: evals,
                elapsed: t0.elapsed(),
                hit,
            }
        });
        t.row(vec![
            mode.label().to_string(),
            pct(out.efficacy),
            if out.evals_to_solution.n > 0 {
                out.evals_to_solution.mean_pm_std(0)
            } else {
                "-".into()
            },
            out.best.mean_pm_std(1),
        ]);
    }
    emit(&t);
    println!(
        "reading: replace-churn stays close to the static baseline (fresh peers re-seed\n\
         diversity); shrink-only decays capacity yet keeps solving — the DREAM robustness story.\n"
    );

    // Per-island lifecycle of the static baseline, via the engine's own
    // accounting (IslandStats): migration is conservative — every accepted
    // migrant was sent by some island. The threaded fault-injection
    // rendering of this churn study is E18.
    let policy = MigrationPolicy {
        interval: 8,
        count: 1,
        emigrant: EmigrantSelection::Best,
        ..MigrationPolicy::default()
    };
    let islands: Vec<_> = (0..ISLANDS)
        .map(|i| {
            standard_binary_ga(
                Arc::clone(&problem),
                problem.len(),
                ISLAND_POP,
                500 + i as u64,
            )
        })
        .collect();
    let r = pga_island::Archipelago::new(islands, Topology::RingUni, policy)
        .expect("valid archipelago")
        .run(&pga_core::Termination::new().max_generations(200))
        .expect("bounded");
    for (i, s) in r.islands.iter().enumerate() {
        println!(
            "static baseline island {i}: stop {:?}, {} gens, {} evals, best err {:.0}, \
             sent {}, accepted {}",
            s.stop, s.generations, s.evaluations, s.best, s.sent, s.accepted
        );
    }
    assert_eq!(
        r.islands.iter().map(|s| s.sent).sum::<u64>(),
        r.migrants_sent
    );
    assert_eq!(
        r.islands.iter().map(|s| s.accepted).sum::<u64>(),
        r.migrants_accepted
    );
}
