//! Cellular grids as islands: the survey's **hybrid** model.
//!
//! Implementing `pga-island`'s [`Deme`] trait for [`CellularGa`] lets an
//! archipelago host fine-grained islands — a ring of cellular GAs, or a
//! mixed ring of panmictic and cellular demes (Alba & Troya 2002's
//! distributed study runs generational, steady-state and cellular islands
//! under one migration policy). Immigrants land on random grid cells
//! (`Random`/`RandomIfBetter`) or on the worst cell (`Worst`/
//! `WorstIfBetter`); emigrants leave from the best cells, random cells, or
//! tournament winners, exactly mirroring the panmictic semantics.
//!
//! The grid is stepped, checkpointed and restored as the [`Engine`]
//! (`pga_core::Engine`) it already is; this impl adds migration only.
//! An improving immigrant resets the grid's stagnation count, as it does
//! in the panmictic GA.
//!
//! [`Engine`]: pga_core::Engine

use crate::engine::CellularGa;
use pga_core::ops::ReplacementPolicy;
use pga_core::{Individual, Objective, Problem};
use pga_island::{Deme, EmigrantSelection};

impl<P: Problem> Deme for CellularGa<P> {
    type Genome = P::Genome;

    fn objective(&self) -> Objective {
        self.problem().objective()
    }

    fn best_individual(&self) -> Individual<P::Genome> {
        self.ledger().best_ever().clone()
    }

    fn emigrants(
        &mut self,
        selection: EmigrantSelection,
        count: usize,
    ) -> Vec<Individual<P::Genome>> {
        let objective = self.problem().objective();
        let n = self.len();
        let count = count.min(n);
        let mut rng = self.rng_mut().clone();
        let picks: Vec<usize> = match selection {
            EmigrantSelection::Best => {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| {
                    let fa = self.grid()[a].fitness();
                    let fb = self.grid()[b].fitness();
                    match objective {
                        Objective::Maximize => fb.total_cmp(&fa),
                        Objective::Minimize => fa.total_cmp(&fb),
                    }
                });
                idx.truncate(count);
                idx
            }
            EmigrantSelection::Random => rng.sample_distinct(n, count),
            EmigrantSelection::Tournament(k) => {
                let k = k.max(1);
                (0..count)
                    .map(|_| {
                        let mut best = rng.below(n);
                        for _ in 1..k {
                            let c = rng.below(n);
                            if objective
                                .better(self.grid()[c].fitness(), self.grid()[best].fitness())
                            {
                                best = c;
                            }
                        }
                        best
                    })
                    .collect()
            }
        };
        *self.rng_mut() = rng;
        picks.into_iter().map(|i| self.grid()[i].clone()).collect()
    }

    fn immigrate(
        &mut self,
        immigrants: Vec<Individual<P::Genome>>,
        policy: ReplacementPolicy,
    ) -> usize {
        let objective = self.problem().objective();
        let n = self.len();
        let mut accepted = 0usize;
        for im in immigrants {
            debug_assert!(im.is_evaluated(), "immigrants must carry fitness");
            self.ledger_mut().offer_immigrant(&im);
            let mut rng = self.rng_mut().clone();
            let target = match policy {
                // The builder rejects empty grids, so the fallback is
                // never taken.
                ReplacementPolicy::Worst | ReplacementPolicy::WorstIfBetter => (0..n)
                    .max_by(|&a, &b| {
                        let fa = self.grid()[a].fitness();
                        let fb = self.grid()[b].fitness();
                        // "max" by badness: worst under the objective.
                        match objective {
                            Objective::Maximize => fb.total_cmp(&fa),
                            Objective::Minimize => fa.total_cmp(&fb),
                        }
                    })
                    .unwrap_or(0),
                ReplacementPolicy::Random | ReplacementPolicy::RandomIfBetter => rng.below(n),
            };
            *self.rng_mut() = rng;
            let conditional = matches!(
                policy,
                ReplacementPolicy::WorstIfBetter | ReplacementPolicy::RandomIfBetter
            );
            if conditional && !objective.better(im.fitness(), self.grid()[target].fitness()) {
                continue;
            }
            self.grid_mut()[target] = im;
            accepted += 1;
        }
        accepted
    }

    fn record_event(&mut self, event: &pga_observe::Event) {
        self.ledger_mut().record_event(event);
    }

    fn set_trace_island(&mut self, island: u32) {
        self.ledger_mut().set_trace_island(island);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdatePolicy;
    use pga_core::ops::{BitFlip, OnePoint, ReplacementPolicy, Tournament};
    use pga_core::{BitString, Engine, GaBuilder, Rng64, Scheme, Termination};
    use pga_island::{Archipelago, MigrationPolicy};
    use pga_topology::Topology;
    use std::sync::Arc;
    use std::time::Duration;

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

    fn cell_island(seed: u64) -> CellularGa<Arc<OneMax>> {
        CellularGa::builder(Arc::new(OneMax(32)))
            .grid(6, 6)
            .seed(seed)
            .update_policy(UpdatePolicy::Synchronous)
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(32))
            .build()
            .unwrap()
    }

    #[test]
    fn cellular_deme_hooks_roundtrip() {
        let mut deme = cell_island(1);
        let out = deme.emigrants(EmigrantSelection::Best, 3);
        assert_eq!(out.len(), 3);
        // Best emigrants are sorted best-first.
        assert!(out[0].fitness() >= out[1].fitness());
        let perfect = Individual::evaluated(BitString::ones(32), 32.0);
        let accepted = deme.immigrate(vec![perfect], ReplacementPolicy::WorstIfBetter);
        assert_eq!(accepted, 1);
        assert_eq!(deme.best_individual().fitness(), 32.0);
        assert!(deme.progress(Duration::ZERO).best_is_optimal);
    }

    #[test]
    fn improving_immigrant_resets_stagnation() {
        let mut deme = cell_island(3);
        let stalled = (0..200).find_map(|_| {
            deme.step();
            let progress = deme.progress(Duration::ZERO);
            (progress.stagnant_generations > 0 && !progress.best_is_optimal).then_some(progress)
        });
        assert!(
            stalled.is_some(),
            "the grid never stalled below the optimum"
        );
        let perfect = Individual::evaluated(BitString::ones(32), 32.0);
        deme.immigrate(vec![perfect], ReplacementPolicy::WorstIfBetter);
        let progress = deme.progress(Duration::ZERO);
        assert!(progress.best_is_optimal);
        assert_eq!(progress.stagnant_generations, 0);
    }

    #[test]
    fn ring_of_cellular_islands_solves_onemax() {
        let demes: Vec<CellularGa<Arc<OneMax>>> = (0..4).map(|i| cell_island(10 + i)).collect();
        let mut arch = Archipelago::new(
            demes,
            Topology::RingUni,
            MigrationPolicy {
                interval: 4,
                ..MigrationPolicy::default()
            },
        )
        .unwrap();
        let r = arch
            .run(&Termination::new().until_optimum().max_generations(200))
            .unwrap();
        assert!(r.hit_optimum, "best = {}", r.best.fitness());
    }

    #[test]
    fn mixed_panmictic_and_cellular_ring() {
        // The hybrid model proper: two cellular grids + two panmictic GAs
        // exchanging migrants in one ring.
        let problem = Arc::new(OneMax(32));
        let mut demes: Vec<Box<dyn Deme<Genome = BitString>>> = Vec::new();
        for i in 0..2 {
            demes.push(Box::new(cell_island(20 + i)));
            demes.push(Box::new(
                GaBuilder::new(Arc::clone(&problem))
                    .seed(30 + i)
                    .pop_size(36)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(32))
                    .scheme(Scheme::Generational { elitism: 1 })
                    .build()
                    .unwrap(),
            ));
        }
        let mut arch =
            Archipelago::new(demes, Topology::RingBi, MigrationPolicy::default()).unwrap();
        let r = arch
            .run(&Termination::new().until_optimum().max_generations(250))
            .unwrap();
        assert!(r.hit_optimum, "best = {}", r.best.fitness());
        assert_eq!(r.per_island_best.len(), 4);
    }

    #[test]
    fn immigrate_worst_replaces_worst_cell() {
        let mut deme = cell_island(5);
        let worst_before = deme
            .grid()
            .iter()
            .map(Individual::fitness)
            .fold(f64::INFINITY, f64::min);
        let marker = Individual::evaluated(BitString::ones(32), 32.0);
        deme.immigrate(vec![marker], ReplacementPolicy::Worst);
        let worst_after = deme
            .grid()
            .iter()
            .map(Individual::fitness)
            .fold(f64::INFINITY, f64::min);
        assert!(worst_after >= worst_before);
        assert!(deme.grid().iter().any(|c| c.fitness() == 32.0));
    }
}
