//! E13 — Application case studies of the survey's §4, on the synthetic
//! substrates described in DESIGN.md §1:
//!
//! * **stock** (Kwon & Moon 2003): neuro-genetic daily predictor vs
//!   buy-and-hold on held-out data;
//! * **registration** (Chalermwat et al. 2001): 2-phase coarse-to-fine GA
//!   registration vs single-phase full-resolution, accuracy and cost;
//! * **spectral** (Solano et al. 2000): AR-coefficient recovery of a
//!   Doppler-like signal;
//! * **tsp** (Sena et al. 2001): island GA vs sequential GA on TSP at an
//!   equal evaluation budget.

use pga_analysis::{repeat, Summary, Table};
use pga_apps::{
    ArSignal, Image, MarketSeries, Registration, RigidTransform, SpectralFit, StockPrediction,
};
use pga_bench::{emit, f2, f3, pct, reps};
use pga_core::ops::{BlxAlpha, GaussianMutation, Inversion, Ox, Tournament};
use pga_core::{Ga, GaBuilder, Individual, Problem, RealVector, Scheme, Termination};
use pga_island::{Archipelago, MigrationPolicy};
use pga_problems::Tsp;
use pga_topology::Topology;
use std::sync::Arc;

const REPS: usize = 5;

fn real_ga<P: Problem<Genome = RealVector>>(
    problem: Arc<P>,
    bounds: pga_core::Bounds,
    pop: usize,
    sigma: f64,
    seed: u64,
) -> Ga<Arc<P>> {
    GaBuilder::new(problem)
        .seed(seed)
        .pop_size(pop)
        .selection(Tournament::binary())
        .crossover(BlxAlpha::new(bounds.clone()))
        .mutation(GaussianMutation {
            p: 0.2,
            sigma,
            bounds,
        })
        .scheme(Scheme::Generational { elitism: 2 })
        .build()
        .expect("valid config")
}

fn stock() {
    let mut t = Table::new(vec![
        "seed",
        "train wealth (GA)",
        "test wealth (GA)",
        "test wealth (buy&hold)",
        "GA beats B&H",
    ])
    .with_title("E13a — neuro-genetic stock prediction (held-out window)");
    let mut wins = 0usize;
    let n = reps(REPS);
    for rep in 0..n {
        let market = MarketSeries::generate(500, 42 + rep as u64);
        let problem = StockPrediction::new(market, 5, 350);
        let bounds = problem.bounds().clone();
        let shared = Arc::new(problem);
        let mut ga = real_ga(Arc::clone(&shared), bounds, 50, 0.4, 7 + rep as u64);
        let r = ga
            .run(&Termination::new().max_generations(60))
            .expect("bounded");
        let (strat, bah) = shared.test_outcome(&r.best.genome);
        let win = strat.wealth > bah.wealth;
        wins += usize::from(win);
        t.row(vec![
            rep.to_string(),
            f3(r.best_fitness),
            f3(strat.wealth),
            f3(bah.wealth),
            if win { "yes" } else { "no" }.into(),
        ]);
    }
    emit(&t);
    println!("GA beats buy-and-hold out of sample in {wins}/{n} markets\n");
}

fn registration() {
    let mut t = Table::new(vec![
        "method",
        "translation error [px]",
        "rotation error [rad]",
        "full-res evals",
        "hit (<1px)",
    ])
    .with_title("E13b — 2-phase vs 1-phase image registration (64x64 synthetic scenes)");
    let budget_full: u64 = 3000;
    for (label, two_phase) in [("1-phase full-res", false), ("2-phase coarse->fine", true)] {
        let mut terr = Vec::new();
        let mut rerr = Vec::new();
        let mut evals = Vec::new();
        let mut hits = 0usize;
        for rep in 0..reps(REPS) {
            let scene = Image::synthetic(64, 64, 10, 100 + rep as u64);
            let truth = RigidTransform {
                tx: 4.0,
                ty: -3.0,
                theta: 0.08,
            };
            let reference = scene.warp(truth);
            let reg = Registration::new(reference, scene, 10.0, 0.3);
            let bounds = reg.bounds().clone();
            let shared = Arc::new(reg);
            let best: Individual<RealVector>;
            let full_evals;
            if two_phase {
                // Phase 1: half resolution, half the budget's cost-equivalent
                // (a coarse evaluation costs ~1/4 of a full one).
                let coarse = Arc::new(shared.downsampled());
                let cb = coarse.bounds().clone();
                let mut ga1 = real_ga(Arc::clone(&coarse), cb, 30, 1.0, 3_000 + rep as u64);
                let r1 = ga1
                    .run(&Termination::new().max_evaluations(budget_full * 2))
                    .expect("bounded");
                let seedling = Registration::upscale_genome(&r1.best.genome);
                // Phase 2: full resolution, small refinement budget, seeded.
                let mut ga2 = real_ga(Arc::clone(&shared), bounds, 20, 0.3, 4_000 + rep as u64);
                let fitness = shared.evaluate(&seedling);
                ga2.receive_immigrants(
                    vec![Individual::evaluated(seedling, fitness)],
                    pga_core::ops::ReplacementPolicy::Worst,
                );
                let before = ga2.ledger().evaluations();
                let r2 = ga2
                    .run(&Termination::new().max_evaluations(before + budget_full / 3))
                    .expect("bounded");
                best = r2.best.clone();
                full_evals = r2.evaluations;
            } else {
                let mut ga = real_ga(Arc::clone(&shared), bounds, 30, 1.0, 5_000 + rep as u64);
                let r = ga
                    .run(&Termination::new().max_evaluations(budget_full))
                    .expect("bounded");
                best = r.best.clone();
                full_evals = r.evaluations;
            }
            let (dt, dr) = Registration::error_vs(&best.genome, truth);
            hits += usize::from(dt < 1.0);
            terr.push(dt);
            rerr.push(dr);
            evals.push(full_evals as f64);
        }
        t.row(vec![
            label.to_string(),
            Summary::of(&terr).mean_pm_std(2),
            Summary::of(&rerr).mean_pm_std(3),
            format!("{:.0}", Summary::of(&evals).mean),
            format!("{hits}/{}", reps(REPS)),
        ]);
    }
    emit(&t);
}

fn spectral() {
    let mut t = Table::new(vec![
        "seed",
        "prediction MSE (GA)",
        "MSE (true coeffs)",
        "coefficient error",
    ])
    .with_title("E13c — AR spectral estimation of a Doppler-like signal (order 4)");
    for rep in 0..reps(REPS) {
        let signal = ArSignal::doppler(1500, &[0.1, 0.25], 0.9, 0.5, 900 + rep as u64);
        let true_mse = signal.prediction_mse(signal.true_coeffs());
        let fit = SpectralFit::new(signal);
        let bounds = fit.bounds().clone();
        let shared = Arc::new(fit);
        let mut ga = real_ga(Arc::clone(&shared), bounds, 60, 0.2, 60 + rep as u64);
        let r = ga
            .run(&Termination::new().max_generations(80))
            .expect("bounded");
        t.row(vec![
            rep.to_string(),
            f3(r.best_fitness),
            f3(true_mse),
            f3(shared.coeff_error(&r.best.genome)),
        ]);
    }
    emit(&t);
}

fn tsp() {
    let mut t = Table::new(vec![
        "method",
        "efficacy (optimum found)",
        "mean tour length",
        "optimum",
    ])
    .with_title("E13d — TSP circle-32 at equal evaluation budget (sequential vs 4 islands)");
    let tsp = Arc::new(Tsp::circle(32));
    let optimum = tsp.optimum().expect("circle optimum known");
    let budget: u64 = 150_000;
    let perm_ga = |problem: Arc<Tsp>, pop: usize, seed: u64| {
        GaBuilder::new(problem)
            .seed(seed)
            .pop_size(pop)
            .selection(Tournament::new(3))
            .crossover(Ox)
            .mutation(Inversion)
            .scheme(Scheme::Generational { elitism: 2 })
            .build()
            .expect("valid config")
    };
    for (label, islands) in [("sequential (pop 160)", 1usize), ("4 islands x 40", 4)] {
        let out = repeat(reps(REPS), 1_000, |seed| {
            if islands == 1 {
                let mut ga = perm_ga(Arc::clone(&tsp), 160, seed);
                let r = ga
                    .run(&Termination::new().until_optimum().max_evaluations(budget))
                    .expect("bounded");
                pga_analysis::RunOutcome {
                    best_fitness: r.best_fitness,
                    evaluations: r.evaluations,
                    elapsed: r.elapsed,
                    hit: r.hit_optimum,
                }
            } else {
                let gas = (0..islands)
                    .map(|i| perm_ga(Arc::clone(&tsp), 160 / islands, seed + i as u64))
                    .collect();
                let mut arch = Archipelago::new(gas, Topology::RingUni, MigrationPolicy::default())
                    .expect("valid configuration");
                let r = arch
                    .run(&Termination::new().until_optimum().max_evaluations(budget))
                    .expect("bounded");
                pga_analysis::RunOutcome {
                    best_fitness: r.best.fitness(),
                    evaluations: r.total_evaluations,
                    elapsed: r.elapsed,
                    hit: r.hit_optimum,
                }
            }
        });
        t.row(vec![
            label.to_string(),
            pct(out.efficacy),
            out.best.mean_pm_std(4),
            f2(optimum),
        ]);
    }
    emit(&t);
}

fn main() {
    stock();
    registration();
    spectral();
    tsp();
}
