//! E11 — Punctuated equilibria in island PGAs (Cohoon, Hedge & Martin,
//! ICGA 1987). Claim: island populations show long fitness *equilibria*
//! punctuated by bursts of progress immediately after migration events —
//! immigrant genes trigger rapid re-adaptation.
//!
//! Built on the unified `pga-observe` trace: per-island best-fitness series
//! come from `GenerationCompleted` events and migration points from actual
//! `MigrationReceived` events (not the schedule), so the analysis follows
//! the events the engines really emitted.

use pga_analysis::{Summary, Table};
use pga_bench::{emit, f3, reps, standard_binary_islands};
use pga_core::Termination;
use pga_island::{Archipelago, MigrationPolicy};
use pga_observe::{EventKind, FilteredRecorder, RingRecorder};
use pga_problems::DeceptiveTrap;
use pga_topology::Topology;
use std::sync::Arc;

const ISLANDS: usize = 4;
const ISLAND_POP: usize = 40;
const INTERVAL: u64 = 40;
const GENS: u64 = 400;
const REPS: usize = 10;

fn main() {
    let problem = Arc::new(DeceptiveTrap::new(4, 16));
    let genome_len = problem.len();

    // Mean per-generation improvement of each island's population-best,
    // split into "window after a migration" vs "equilibrium" generations.
    let window = 5u64;
    let mut post_migration = Vec::new();
    let mut equilibrium = Vec::new();
    let mut sample_series: Vec<(u64, f64)> = Vec::new();
    let mut sample_migrations: Vec<u64> = Vec::new();

    for rep in 0..reps(REPS) {
        let mut islands =
            standard_binary_islands(&problem, genome_len, ISLANDS, ISLAND_POP, 500 + rep as u64);
        // One shared ring for the whole archipelago: the single-threaded
        // driver interleaves islands deterministically, and every event
        // carries its island id. Per-generation evaluation timings are
        // irrelevant here, so filter them at the source.
        let ring = RingRecorder::new(1 << 16);
        for island in &mut islands {
            island
                .ledger_mut()
                .set_recorder(FilteredRecorder::new(ring.clone(), |e| {
                    matches!(
                        e.kind,
                        EventKind::GenerationCompleted { .. } | EventKind::MigrationReceived { .. }
                    )
                }));
        }
        let mut arch = Archipelago::new(
            islands,
            Topology::RingUni,
            MigrationPolicy {
                interval: INTERVAL,
                ..MigrationPolicy::default()
            },
        )
        .expect("valid configuration");
        let _ = arch
            .run(&Termination::new().max_generations(GENS))
            .expect("bounded");

        let mut best_series: Vec<Vec<(u64, f64)>> = vec![Vec::new(); ISLANDS];
        let mut migration_gens: Vec<Vec<u64>> = vec![Vec::new(); ISLANDS];
        for event in ring.take_events() {
            match event.kind {
                EventKind::GenerationCompleted {
                    island,
                    generation,
                    best,
                    ..
                } => best_series[island as usize].push((generation, best)),
                EventKind::MigrationReceived {
                    island, generation, ..
                } => migration_gens[island as usize].push(generation),
                _ => {}
            }
        }

        for (migrations, series) in migration_gens.iter().zip(&best_series) {
            for w in series.windows(2) {
                let improvement = w[1].1 - w[0].1;
                let gen = w[1].0;
                let post = migrations.iter().any(|&m| gen > m && gen - m <= window);
                if post {
                    post_migration.push(improvement);
                } else {
                    equilibrium.push(improvement);
                }
            }
        }
        if rep == 0 {
            sample_series = best_series[0].clone();
            sample_migrations = migration_gens[0].clone();
        }
    }

    let post = Summary::of(&post_migration);
    let eq = Summary::of(&equilibrium);
    let mut t = Table::new(vec!["phase", "mean best-fitness gain per generation", "samples"])
        .with_title(format!(
            "E11 — punctuated equilibria (trap 4x16, {ISLANDS} islands, migration every {INTERVAL} gens)"
        ));
    t.row(vec![
        format!("{window} gens after migration"),
        f3(post.mean),
        post.n.to_string(),
    ]);
    t.row(vec![
        "equilibrium (all other gens)".into(),
        f3(eq.mean),
        eq.n.to_string(),
    ]);
    emit(&t);
    println!(
        "punctuation ratio (post-migration gain / equilibrium gain): {:.1}x\n",
        post.mean / eq.mean.max(1e-9)
    );

    // Figure-style series: island 0 best around its recorded migrations.
    let mut series = Table::new(vec!["generation", "island-0 best", "event"])
        .with_title("E11 — sample trace (island 0, rep 0)");
    for &(gen, best) in &sample_series {
        let near_migration = sample_migrations.iter().any(|&m| gen >= m && gen - m <= 2);
        if gen % 8 == 0 || near_migration {
            let event = if sample_migrations.contains(&gen) {
                "<- migration"
            } else {
                ""
            };
            series.row(vec![gen.to_string(), format!("{best:.1}"), event.into()]);
        }
    }
    emit(&series);
}
