//! E06 — Panmictic vs structured evolution schemes (Alba & Troya,
//! Statistics and Computing 2002). Claims: (i) selection pressure orders
//! steady-state > generational > cellular (structured populations exert the
//! weakest pressure, which is why they preserve diversity); (ii) the schemes differ in
//! efficacy/efficiency per problem; (iii) each scheme can also run as the
//! island evolution mode of a distributed GA.

use pga_analysis::{takeover_time, Summary, Table};
use pga_bench::{emit, pct, reps};
use pga_cellular::{CellularGa, TakeoverGrid, UpdatePolicy};
use pga_core::ops::{BitFlip, OnePoint, ReplacementPolicy, Tournament};
use pga_core::{GaBuilder, Problem, Rng64, Scheme, Termination};
use pga_island::{Archipelago, MigrationPolicy};
use pga_problems::{DeceptiveTrap, PPeaks};
use pga_topology::{CellNeighborhood, Topology};
use std::sync::Arc;

const POP: usize = 256; // also 16x16 grid
const REPS: usize = 10;

/// Selection-only takeover of a panmictic population under binary
/// tournament, with one elite preserved (so the curve is well-defined).
fn panmictic_takeover(steady_state: bool, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::new(seed);
    let mut pop: Vec<f64> = (0..POP).map(|_| rng.next_f64() * 0.999).collect();
    pop[POP / 2] = 1.0;
    let proportion = |p: &[f64]| p.iter().filter(|&&f| f >= 1.0).count() as f64 / POP as f64;
    let mut curve = vec![proportion(&pop)];
    while proportion(&pop) < 1.0 && curve.len() < 10_000 {
        if steady_state {
            // POP offspring, each replacing the current worst.
            for _ in 0..POP {
                let (a, b) = (rng.below(POP), rng.below(POP));
                let winner = pop[a].max(pop[b]);
                let worst = (0..POP)
                    .min_by(|&i, &j| pop[i].total_cmp(&pop[j]))
                    .expect("non-empty");
                if winner >= pop[worst] {
                    pop[worst] = winner;
                }
            }
        } else {
            let mut next: Vec<f64> = (0..POP - 1)
                .map(|_| {
                    let (a, b) = (rng.below(POP), rng.below(POP));
                    pop[a].max(pop[b])
                })
                .collect();
            // One elite keeps the best alive (standard practice when
            // measuring generational takeover).
            next.push(pop.iter().copied().fold(f64::NEG_INFINITY, f64::max));
            pop = next;
        }
        curve.push(proportion(&pop));
    }
    curve
}

fn pressure_table() {
    let mut t = Table::new(vec!["scheme", "takeover time [gens]"])
        .with_title("E06a — selection pressure (takeover, pop 256, binary tournament)");
    let mut means = Vec::new();
    for (name, kind) in [
        ("generational", 0u8),
        ("cellular (sync, 16x16)", 1),
        ("steady-state", 2),
    ] {
        let times: Vec<f64> = (0..reps(REPS))
            .map(|rep| {
                let curve = match kind {
                    0 => panmictic_takeover(false, 100 + rep as u64),
                    2 => panmictic_takeover(true, 200 + rep as u64),
                    _ => {
                        let mut g = TakeoverGrid::new(
                            16,
                            16,
                            CellNeighborhood::VonNeumann,
                            UpdatePolicy::Synchronous,
                            300 + rep as u64,
                        );
                        g.takeover_curve(100_000)
                    }
                };
                takeover_time(&curve, 1.0).expect("takeover completes") as f64
            })
            .collect();
        let s = Summary::of(&times);
        means.push((name, s.mean));
        t.row(vec![name.to_string(), s.mean_pm_std(1)]);
    }
    emit(&t);
    let get = |n: &str| means.iter().find(|(m, _)| *m == n).expect("present").1;
    println!(
        "ordering (takeover time): steady-state ({:.1}) < generational ({:.1}) < cellular ({:.1}) : {}\n",
        get("steady-state"),
        get("generational"),
        get("cellular (sync, 16x16)"),
        get("steady-state") < get("generational")
            && get("generational") < get("cellular (sync, 16x16)")
    );
}

type DynBinary = Arc<dyn Problem<Genome = pga_core::BitString>>;

fn efficacy_row(
    scheme: &str,
    problem: &DynBinary,
    genome_len: usize,
    base_seed: u64,
) -> (String, String, String) {
    let max_evals: u64 = 400_000;
    let out = pga_analysis::repeat(reps(REPS), base_seed, |seed| {
        let (best, evals, hit, elapsed) = match scheme {
            "generational" | "steady-state" => {
                let s = if scheme == "generational" {
                    Scheme::Generational { elitism: 1 }
                } else {
                    Scheme::SteadyState {
                        replacement: ReplacementPolicy::WorstIfBetter,
                    }
                };
                let mut ga = GaBuilder::new(Arc::clone(problem))
                    .seed(seed)
                    .pop_size(POP)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(genome_len))
                    .scheme(s)
                    .build()
                    .expect("valid");
                let r = ga
                    .run(
                        &Termination::new()
                            .until_optimum()
                            .max_evaluations(max_evals),
                    )
                    .expect("bounded");
                (r.best_fitness, r.evaluations, r.hit_optimum, r.elapsed)
            }
            "cellular" => {
                let t0 = std::time::Instant::now();
                let mut cga = CellularGa::builder(Arc::clone(problem))
                    .grid(16, 16)
                    .seed(seed)
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(genome_len))
                    .build()
                    .expect("valid");
                let _ = cga
                    .run(
                        &Termination::new()
                            .until_optimum()
                            .max_generations(max_evals / POP as u64),
                    )
                    .expect("bounded");
                (
                    cga.ledger().best_ever().fitness(),
                    cga.ledger().evaluations(),
                    problem.is_optimal(cga.ledger().best_ever().fitness()),
                    t0.elapsed(),
                )
            }
            ring => {
                // "ring-of-X": 8 islands of scheme X.
                let s = if ring.contains("steady") {
                    Scheme::SteadyState {
                        replacement: ReplacementPolicy::WorstIfBetter,
                    }
                } else {
                    Scheme::Generational { elitism: 1 }
                };
                let islands: Vec<_> = (0..8)
                    .map(|i| {
                        GaBuilder::new(Arc::clone(problem))
                            .seed(seed + i as u64)
                            .pop_size(POP / 8)
                            .selection(Tournament::binary())
                            .crossover(OnePoint)
                            .mutation(BitFlip::one_over_len(genome_len))
                            .scheme(s)
                            .build()
                            .expect("valid")
                    })
                    .collect();
                let mut arch =
                    Archipelago::new(islands, Topology::RingUni, MigrationPolicy::default())
                        .expect("valid island configuration");
                let r = arch
                    .run(
                        &Termination::new()
                            .until_optimum()
                            .max_evaluations(max_evals),
                    )
                    .expect("bounded");
                (
                    r.best.fitness(),
                    r.total_evaluations,
                    r.hit_optimum,
                    r.elapsed,
                )
            }
        };
        pga_analysis::RunOutcome {
            best_fitness: best,
            evaluations: evals,
            elapsed,
            hit,
        }
    });
    (
        pct(out.efficacy),
        if out.evals_to_solution.n > 0 {
            out.evals_to_solution.mean_pm_std(0)
        } else {
            "-".into()
        },
        out.best.mean_pm_std(2),
    )
}

fn efficacy_table() {
    let cases: Vec<(&str, DynBinary, usize, u64)> = vec![
        (
            "E06b — efficacy on deceptive trap 4x12 (budget 400k evals)",
            Arc::new(DeceptiveTrap::new(4, 12)),
            48,
            10,
        ),
        (
            "E06b — efficacy on P-PEAKS 30x64",
            Arc::new(PPeaks::new(30, 64, 9)),
            64,
            20,
        ),
    ];
    for (title, problem, len, seed) in cases {
        let mut t = Table::new(vec!["scheme", "efficacy", "evals-to-solution", "mean best"])
            .with_title(title);
        for scheme in [
            "generational",
            "steady-state",
            "cellular",
            "ring-of-generational",
            "ring-of-steady-state",
        ] {
            let (eff, evals, best) = efficacy_row(scheme, &problem, len, seed);
            t.row(vec![scheme.to_string(), eff, evals, best]);
        }
        emit(&t);
    }
}

fn main() {
    pressure_table();
    efficacy_table();
}
