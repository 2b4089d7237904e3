//! One-thread-per-island engine with channel-based migration, panic
//! isolation, and supervised fault recovery.
//!
//! The shared-memory analogue of an MPI/PVM island PGA: each deme evolves on
//! its own OS thread and migrants travel over **bounded** crossbeam channels
//! — one channel per directed topology edge. Synchronous mode blocks at each
//! migration point until every in-neighbor's batch (or disconnection)
//! arrives; asynchronous mode drains whatever is buffered and moves on,
//! which is exactly the semantics whose search-time effects Alba & Troya
//! (2001) analyze.
//!
//! Every island iteration runs under `catch_unwind` beneath a supervisor
//! thread tracking per-island heartbeats: a panicking deme no longer aborts
//! the run — the island is *lost*, its links close gracefully and the
//! survivors' results are still returned ([`StopReason::IslandLost`] marks
//! the casualty in [`IslandRun::islands`]). With
//! [`crate::ResurrectionPolicy::FromSnapshot`] enabled the island is
//! instead restored from its last periodic snapshot and rewired into the
//! topology — see [`crate::resilient`] for the machinery and the
//! determinism argument.

use crate::archipelago::{IslandRun, IslandStats};
use crate::deme::Deme;
use crate::migration::{MigrationPolicy, SyncMode};
use crate::resilient::{
    supervise, IslandCheckpoint, LinkState, ResilientOptions, ResurrectionPolicy, Status,
};
use crossbeam::channel::{bounded, unbounded, Receiver, SyncSender, TrySendError};
use pga_core::termination::{Progress, StopReason, Termination};
use pga_core::{ConfigError, Individual, Objective, StepReport};
use pga_observe::{Event, EventKind};
use pga_topology::Topology;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

type Batch<G> = Vec<Individual<G>>;

/// Per-island result summary assembled by the island thread. Dead islands
/// report the last consistent summary cached before the loss (the deme
/// itself may be logically inconsistent after a mid-step panic).
struct IslandOutcome<G> {
    best: Individual<G>,
    hit_optimum: bool,
    generations: u64,
    evaluations: u64,
    history: Vec<StepReport>,
    sent: u64,
    accepted: u64,
    dropped: u64,
    resurrections: u64,
    stop: StopReason,
}

/// Runs the demes on real threads until the shared [`Termination`] rule
/// fires on every island. Set `record_history` for per-generation traces.
///
/// Equivalent to [`run_threaded_resilient`] with default
/// [`ResilientOptions`]: no fault injection, no resurrection — but panic
/// isolation and bounded migration channels are always active, so a
/// panicking deme yields a partial [`IslandRun`] carrying the survivors'
/// results instead of aborting the run.
///
/// Accepts any deme engine ([`pga_core::Ga`], cellular grids, boxed mixes) —
/// see [`Deme`].
///
/// Each island evaluates the rule against its own generation count and the
/// *global* evaluation total, so generation budgets mean per-island
/// generations (as in the sequential stepper's lockstep) and evaluation
/// budgets cap the whole archipelago. When the rule stops at a target
/// fitness, one island reaching it stops all islands.
///
/// Under [`SyncMode::Synchronous`] the search trajectory is identical to
/// [`crate::Archipelago::run`] with the same seeds; under
/// [`SyncMode::Asynchronous`] migrant arrival depends on thread scheduling
/// (documented nondeterminism — the effect under study in E03's ablation).
///
/// Fails when `islands` is empty, the topology rejects the island count,
/// or the termination rule is unbounded.
pub fn run_threaded<D: Deme>(
    islands: Vec<D>,
    topology: &Topology,
    policy: MigrationPolicy,
    termination: &Termination,
    record_history: bool,
) -> Result<IslandRun<D::Genome>, ConfigError> {
    run_threaded_resilient(
        islands,
        topology,
        policy,
        termination,
        record_history,
        &ResilientOptions::default(),
    )
}

/// [`run_threaded`] with fault injection and supervised recovery: a seeded
/// [`pga_cluster::MigrationFaultPlan`] scripts island panics and link
/// faults, and [`crate::ResiliencePolicy`] controls heartbeats, channel
/// capacity, and checkpoint-based resurrection (see [`crate::resilient`]).
///
/// With the default (benign) options this *is* [`run_threaded`]: same
/// trajectories, same results.
///
/// # Errors
/// As [`run_threaded`], plus [`ConfigError::InvalidParameter`] when the
/// fault plan scripts islands or edges absent from the topology, or the
/// resilience policy is malformed.
#[allow(clippy::too_many_lines)]
pub fn run_threaded_resilient<D: Deme>(
    islands: Vec<D>,
    topology: &Topology,
    policy: MigrationPolicy,
    termination: &Termination,
    record_history: bool,
    options: &ResilientOptions,
) -> Result<IslandRun<D::Genome>, ConfigError> {
    let n = islands.len();
    if n == 0 {
        return Err(ConfigError::InvalidParameter {
            name: "islands",
            message: "need at least one island".into(),
        });
    }
    topology
        .validate(n)
        .map_err(|e| ConfigError::InvalidParameter {
            name: "topology",
            message: e.to_string(),
        })?;
    if !termination.is_bounded() {
        return Err(ConfigError::UnboundedTermination);
    }
    let adjacency = topology.adjacency(n);
    options.faults.validate(&adjacency)?;
    options.resilience.validate()?;
    let resilience = &options.resilience;
    let faults = &options.faults;
    let objective = islands[0].objective();
    // Bounded links: a stalled island can buffer at most
    // `capacity` batches per in-edge instead of growing memory without
    // bound. Floor of 2 keeps sync lockstep deadlock-free (an island may
    // run one epoch ahead of a recovering neighbor).
    let capacity = policy
        .count
        .max(1)
        .saturating_mul(resilience.channel_capacity_factor)
        .max(2);
    let start = Instant::now();

    // One bounded channel per directed edge.
    let mut senders: Vec<Vec<SyncSender<Batch<D::Genome>>>> = (0..n).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<Receiver<Batch<D::Genome>>>> = (0..n).map(|_| Vec::new()).collect();
    for (src, targets) in adjacency.iter().enumerate() {
        for &dst in targets {
            let (tx, rx) = bounded(capacity);
            senders[src].push(tx);
            receivers[dst].push(rx);
        }
    }

    let (status_tx, status_rx) = unbounded::<Status>();
    let found = AtomicBool::new(false);
    let spent = AtomicU64::new(0);
    // Join-failure fallback summaries (the island body catches its own
    // panics, so this only fires on a harness bug).
    let fallback_bests: Vec<Individual<D::Genome>> =
        islands.iter().map(Deme::best_individual).collect();

    let (outcomes, report) = std::thread::scope(|scope| {
        let found = &found;
        let spent = &spent;
        let termination = &termination;
        let supervisor = {
            let recorder = options.supervisor.clone();
            let timeout = resilience.heartbeat_timeout;
            scope.spawn(move || supervise(&status_rx, n, timeout, recorder))
        };
        let mut handles = Vec::with_capacity(n);
        for (island_idx, mut deme) in islands.into_iter().enumerate() {
            let my_senders = std::mem::take(&mut senders[island_idx]);
            let my_receivers = std::mem::take(&mut receivers[island_idx]);
            // Out-neighbor ids, aligned with `my_senders` (same adjacency
            // order), so migration events can name their destination.
            let my_targets = adjacency[island_idx].clone();
            let my_links: Vec<LinkState<D::Genome>> = my_targets
                .iter()
                .map(|&dst| LinkState::new(faults.link(island_idx, dst)))
                .collect();
            let panic_at = (island_idx < faults.len())
                .then(|| faults.island(island_idx).panic_at_generation)
                .flatten();
            let status = status_tx.clone();
            let resurrects = resilience.resurrects();
            let snapshot_interval = resilience.snapshot_interval;
            let hb_interval = resilience.heartbeat_interval;
            let mut respawns_left = match resilience.resurrection {
                ResurrectionPolicy::None => 0,
                ResurrectionPolicy::FromSnapshot { max_respawns } => max_respawns,
            };
            deme.set_trace_island(island_idx as u32);
            handles.push(scope.spawn(move || {
                let island = island_idx as u32;
                let mut link_states = my_links;
                let mut txs: Vec<Option<SyncSender<Batch<D::Genome>>>> =
                    my_senders.into_iter().map(Some).collect();
                let mut open: Vec<Option<Receiver<Batch<D::Genome>>>> =
                    my_receivers.into_iter().map(Some).collect();
                let mut history = Vec::new();
                let mut sent = 0u64;
                let mut accepted = 0u64;
                let mut dropped = 0u64;
                let mut resurrections = 0u64;
                let mut generation = 0u64;
                let maximizing = deme.objective() == Objective::Maximize;
                let mut best_local = deme.progress(Duration::ZERO).best_fitness;
                let mut best_cached = deme.best_individual();
                let mut hit_cached = deme.progress(Duration::ZERO).best_is_optimal;
                let mut evals_cached = deme.progress(Duration::ZERO).evaluations;
                let mut stagnant = 0u64;
                let mut injection_armed = panic_at.is_some();
                let mut last_beat = start.elapsed();
                let _ = status.send(Status::Heartbeat { island });

                // Seed the global counter with this island's initial
                // population evaluations.
                spent.fetch_add(deme.progress(Duration::ZERO).evaluations, Ordering::Relaxed);
                deme.record_run_started();

                let mut checkpoint: Option<IslandCheckpoint<D::Genome>> = None;
                let take_checkpoint =
                    |deme: &D,
                     generation: u64,
                     best_local: f64,
                     stagnant: u64,
                     sent: u64,
                     accepted: u64,
                     dropped: u64,
                     history_len: usize,
                     best_cached: &Individual<D::Genome>,
                     hit_cached: bool,
                     evals_cached: u64| IslandCheckpoint {
                        snapshot: deme.snapshot(),
                        generation,
                        best_local,
                        stagnant,
                        sent,
                        accepted,
                        dropped,
                        history_len,
                        best_cached: best_cached.clone(),
                        hit_cached,
                        evals_cached,
                    };
                if resurrects {
                    checkpoint = Some(take_checkpoint(
                        &deme,
                        generation,
                        best_local,
                        stagnant,
                        sent,
                        accepted,
                        dropped,
                        history.len(),
                        &best_cached,
                        hit_cached,
                        evals_cached,
                    ));
                }

                // Inbox arena recycled across migration epochs; cleared
                // before each receive phase, so a mid-epoch panic leaves
                // nothing stale for a resurrected island to observe.
                let mut inbox_arena: Batch<D::Genome> = Vec::new();
                let stop = 'run: loop {
                    let evaluations = spent.load(Ordering::Relaxed);
                    let elapsed = start.elapsed();
                    let progress = Progress {
                        generations: generation,
                        evaluations,
                        best_fitness: best_local,
                        best_is_optimal: hit_cached,
                        stagnant_generations: stagnant,
                        elapsed,
                        maximizing,
                        cost_units: evaluations as f64,
                    };
                    if let Some(reason) = termination.check(&progress) {
                        break reason;
                    }
                    if termination.stops_at_target() && found.load(Ordering::Relaxed) {
                        break StopReason::TargetReached;
                    }
                    if elapsed.saturating_sub(last_beat) >= hb_interval {
                        last_beat = elapsed;
                        let _ = status.send(Status::Heartbeat { island });
                    }

                    // One guarded iteration: fault injection, one deme
                    // step, and (at epoch boundaries) the migration phase.
                    let gen_before = generation;
                    let mut in_migration = false;
                    let mut epoch_done = false;
                    let iteration = catch_unwind(AssertUnwindSafe(|| {
                        if injection_armed && panic_at == Some(gen_before + 1) {
                            // Fires once: a resurrected island does not
                            // re-die replaying the same generation.
                            injection_armed = false;
                            panic!("injected island panic (MigrationFaultPlan)");
                        }
                        let before = deme.progress(Duration::ZERO).evaluations;
                        let stats = deme.step();
                        generation += 1;
                        spent.fetch_add(
                            deme.progress(Duration::ZERO).evaluations - before,
                            Ordering::Relaxed,
                        );
                        evals_cached = deme.progress(Duration::ZERO).evaluations;
                        if record_history {
                            history.push(stats);
                        }
                        let now_best = deme.progress(Duration::ZERO).best_fitness;
                        if (maximizing && now_best > best_local)
                            || (!maximizing && now_best < best_local)
                        {
                            best_local = now_best;
                            best_cached = deme.best_individual();
                            stagnant = 0;
                        } else {
                            stagnant += 1;
                        }
                        if deme.progress(Duration::ZERO).best_is_optimal {
                            hit_cached = true;
                            found.store(true, Ordering::Relaxed);
                            if termination.stops_at_target() {
                                return Some(StopReason::TargetReached);
                            }
                        }

                        if policy.sync == SyncMode::Overlap {
                            // Overlap mode: drain the inbox opportunistically
                            // at every replacement point (each generation),
                            // decoupled from the epoch send below — migration
                            // overlaps evaluation with no rendezvous at all.
                            inbox_arena.clear();
                            let inbox = &mut inbox_arena;
                            for slot in &mut open {
                                let Some(rx) = slot else { continue };
                                while let Ok(batch) = rx.try_recv() {
                                    inbox.extend(batch);
                                }
                            }
                            if !inbox.is_empty() {
                                let offered = inbox.len() as u64;
                                let here = deme.immigrate_batch(inbox, policy.replacement) as u64;
                                accepted += here;
                                deme.record_event(&Event::new(EventKind::AsyncImmigrantsDrained {
                                    island,
                                    generation,
                                    offered,
                                    accepted: here,
                                }));
                                let now_best = deme.progress(Duration::ZERO).best_fitness;
                                if (maximizing && now_best > best_local)
                                    || (!maximizing && now_best < best_local)
                                {
                                    best_local = now_best;
                                    best_cached = deme.best_individual();
                                    stagnant = 0;
                                }
                                if deme.progress(Duration::ZERO).best_is_optimal {
                                    hit_cached = true;
                                    found.store(true, Ordering::Relaxed);
                                    if termination.stops_at_target() {
                                        return Some(StopReason::TargetReached);
                                    }
                                }
                            }
                        }

                        if policy.migrates_at(generation) {
                            in_migration = true;
                            epoch_done = true;
                            // One pick per epoch — the deme's RNG consumption
                            // is independent of edge liveness — yielding one
                            // batch per out-edge (last moved, earlier cloned).
                            // Each edge's scripted link fault applies to its
                            // own batch.
                            let batches = deme.emigrant_batches(
                                policy.emigrant,
                                policy.count,
                                my_targets.len(),
                            );
                            for (e, migrants) in batches.into_iter().enumerate() {
                                if txs[e].is_none() {
                                    continue;
                                }
                                let dst = my_targets[e] as u32;
                                let action = link_states[e].apply(migrants);
                                if action.redelivered > 0 {
                                    let _ = status.send(Status::BatchRedelivered {
                                        from: island,
                                        to: dst,
                                        generation,
                                        count: action.redelivered,
                                    });
                                }
                                if action.dropped > 0 {
                                    dropped += action.dropped;
                                    let _ = status.send(Status::BatchDropped {
                                        from: island,
                                        to: dst,
                                        generation,
                                        count: action.dropped,
                                        reason: action.reason,
                                    });
                                }
                                let Some(batch) = action.batch else {
                                    // Link cut: sever the edge.
                                    txs[e] = None;
                                    continue;
                                };
                                let count = batch.len() as u64;
                                if count > 0 {
                                    sent += count;
                                    deme.record_event(&Event::new(EventKind::MigrationSent {
                                        from: island,
                                        to: dst,
                                        generation,
                                        count,
                                    }));
                                }
                                // Empty batches still travel in sync mode:
                                // they keep the lockstep alive.
                                let failure: Option<&'static str> = match policy.sync {
                                    SyncMode::Synchronous => txs[e]
                                        .as_ref()
                                        .and_then(|tx| tx.send(batch).err())
                                        .map(|_| "peer-dead"),
                                    SyncMode::Asynchronous | SyncMode::Overlap => {
                                        txs[e].as_ref().and_then(|tx| match tx.try_send(batch) {
                                            Ok(()) => None,
                                            Err(TrySendError::Full(_)) => Some("channel-full"),
                                            Err(TrySendError::Disconnected(_)) => Some("peer-dead"),
                                        })
                                    }
                                };
                                if let Some(reason) = failure {
                                    if reason == "peer-dead" {
                                        // The neighbor already stopped (or
                                        // died): close the edge.
                                        txs[e] = None;
                                    }
                                    if count > 0 {
                                        dropped += count;
                                        let _ = status.send(Status::BatchDropped {
                                            from: island,
                                            to: dst,
                                            generation,
                                            count,
                                            reason,
                                        });
                                    }
                                }
                            }
                            // Receive from in-neighbors into the arena.
                            inbox_arena.clear();
                            let inbox = &mut inbox_arena;
                            for slot in &mut open {
                                let Some(rx) = slot else { continue };
                                match policy.sync {
                                    SyncMode::Synchronous => match rx.recv() {
                                        Ok(batch) => inbox.extend(batch),
                                        Err(_) => *slot = None,
                                    },
                                    SyncMode::Asynchronous => {
                                        while let Ok(batch) = rx.try_recv() {
                                            inbox.extend(batch);
                                        }
                                    }
                                    // Overlap already drained after this
                                    // generation's step; no rendezvous here.
                                    SyncMode::Overlap => {}
                                }
                            }
                            if !inbox.is_empty() {
                                let offered = inbox.len() as u64;
                                let here = deme.immigrate_batch(inbox, policy.replacement) as u64;
                                accepted += here;
                                deme.record_event(&Event::new(EventKind::MigrationReceived {
                                    island,
                                    generation,
                                    offered,
                                    accepted: here,
                                }));
                                let now_best = deme.progress(Duration::ZERO).best_fitness;
                                if (maximizing && now_best > best_local)
                                    || (!maximizing && now_best < best_local)
                                {
                                    best_local = now_best;
                                    best_cached = deme.best_individual();
                                    stagnant = 0;
                                }
                                if deme.progress(Duration::ZERO).best_is_optimal {
                                    hit_cached = true;
                                    found.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        None
                    }));

                    match iteration {
                        Ok(Some(reason)) => break reason,
                        Ok(None) => {
                            if resurrects
                                && (epoch_done || generation.is_multiple_of(snapshot_interval))
                            {
                                checkpoint = Some(take_checkpoint(
                                    &deme,
                                    generation,
                                    best_local,
                                    stagnant,
                                    sent,
                                    accepted,
                                    dropped,
                                    history.len(),
                                    &best_cached,
                                    hit_cached,
                                    evals_cached,
                                ));
                            }
                        }
                        Err(_) => {
                            let _ = status.send(Status::Lost {
                                island,
                                generation: gen_before + 1,
                            });
                            // A panic inside the migration phase is not
                            // resurrectable: the epoch is partially
                            // committed to the links and replaying it
                            // would double-deliver batches.
                            let revived = !in_migration
                                && respawns_left > 0
                                && checkpoint
                                    .as_ref()
                                    .is_some_and(|cp| deme.restore(&cp.snapshot).is_ok());
                            if revived {
                                respawns_left -= 1;
                                resurrections += 1;
                                // Rewind the harness loop-locals to the
                                // checkpoint; the continuation is
                                // bit-identical to an uninterrupted run.
                                if let Some(cp) = checkpoint.as_ref() {
                                    generation = cp.generation;
                                    best_local = cp.best_local;
                                    stagnant = cp.stagnant;
                                    sent = cp.sent;
                                    accepted = cp.accepted;
                                    dropped = cp.dropped;
                                    history.truncate(cp.history_len);
                                    best_cached = cp.best_cached.clone();
                                    hit_cached = cp.hit_cached;
                                    evals_cached = cp.evals_cached;
                                    let _ = status.send(Status::Resurrected {
                                        island,
                                        generation: cp.generation,
                                        respawn: resurrections,
                                    });
                                }
                            } else {
                                break 'run StopReason::IslandLost;
                            }
                        }
                    }
                };
                // Close all links promptly: receivers see disconnection
                // instead of blocking, senders to this island unblock.
                for tx in &mut txs {
                    *tx = None;
                }
                open.clear();
                let lost = stop == StopReason::IslandLost;
                if lost {
                    // The deme may be logically inconsistent after the
                    // panic: report the last consistent cached summary.
                    let _ = &deme;
                } else {
                    let _ = status.send(Status::Finished { island });
                    deme.record_run_finished();
                    best_cached = deme.best_individual();
                    hit_cached = deme.progress(Duration::ZERO).best_is_optimal;
                    generation = deme.progress(Duration::ZERO).generations;
                    evals_cached = deme.progress(Duration::ZERO).evaluations;
                }
                IslandOutcome {
                    best: best_cached,
                    hit_optimum: hit_cached,
                    generations: generation,
                    evaluations: evals_cached,
                    history,
                    sent,
                    accepted,
                    dropped,
                    resurrections,
                    stop,
                }
            }));
        }
        drop(status_tx);
        let outcomes: Vec<IslandOutcome<D::Genome>> = handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| match h.join() {
                Ok(outcome) => outcome,
                Err(_) => IslandOutcome {
                    best: fallback_bests[i].clone(),
                    hit_optimum: false,
                    generations: 0,
                    evaluations: 0,
                    history: Vec::new(),
                    sent: 0,
                    accepted: 0,
                    dropped: 0,
                    resurrections: 0,
                    stop: StopReason::IslandLost,
                },
            })
            .collect();
        let report = supervisor.join().unwrap_or_default();
        (outcomes, report)
    });

    // Assemble the shared result shape.
    let mut best_island = 0;
    for (i, o) in outcomes.iter().enumerate() {
        if objective.better(o.best.fitness(), outcomes[best_island].best.fitness()) {
            best_island = i;
        }
    }
    // Aggregate stop: a reached target wins; otherwise the first
    // survivor's reason; all-lost runs report the loss.
    let stop = outcomes
        .iter()
        .find(|o| o.stop == StopReason::TargetReached)
        .or_else(|| outcomes.iter().find(|o| o.stop != StopReason::IslandLost))
        .map_or(StopReason::IslandLost, |o| o.stop);
    Ok(IslandRun {
        hit_optimum: outcomes[best_island].hit_optimum,
        best: outcomes[best_island].best.clone(),
        best_island,
        total_evaluations: outcomes.iter().map(|o| o.evaluations).sum(),
        generations: outcomes.iter().map(|o| o.generations).collect(),
        per_island_best: outcomes.iter().map(|o| o.best.fitness()).collect(),
        stop,
        elapsed: start.elapsed(),
        migrants_sent: outcomes.iter().map(|o| o.sent).sum(),
        migrants_accepted: outcomes.iter().map(|o| o.accepted).sum(),
        islands: outcomes
            .iter()
            .map(|o| IslandStats {
                stop: o.stop,
                generations: o.generations,
                evaluations: o.evaluations,
                best: o.best.fitness(),
                sent: o.sent,
                accepted: o.accepted,
                dropped: o.dropped,
                resurrections: o.resurrections,
            })
            .collect(),
        heartbeat_misses: report.heartbeat_misses,
        histories: outcomes.into_iter().map(|o| o.history).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::EmigrantSelection;
    use pga_core::ops::{BitFlip, OnePoint, ReplacementPolicy, Tournament};
    use pga_core::{BitString, Ga, GaBuilder, Objective, Problem, Rng64, Scheme, SerialEvaluator};
    use std::sync::Arc;

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

    fn islands(n: usize, seed: u64) -> Vec<Ga<Arc<OneMax>, SerialEvaluator>> {
        let p = Arc::new(OneMax(48));
        (0..n)
            .map(|i| {
                GaBuilder::new(Arc::clone(&p))
                    .seed(seed + i as u64)
                    .pop_size(30)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(48))
                    .scheme(Scheme::Generational { elitism: 1 })
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn threaded_sync_solves_onemax() {
        let r = run_threaded(
            islands(4, 11),
            &Topology::RingUni,
            MigrationPolicy::default(),
            &Termination::new().until_optimum().max_generations(300),
            false,
        )
        .unwrap();
        assert!(r.hit_optimum, "best = {}", r.best.fitness());
        assert_eq!(r.stop, StopReason::TargetReached);
        assert_eq!(r.generations.len(), 4);
        assert_eq!(r.islands.len(), 4);
        assert!(r.islands.iter().all(|s| s.resurrections == 0));
    }

    #[test]
    fn threaded_async_solves_onemax() {
        let policy = MigrationPolicy {
            sync: SyncMode::Asynchronous,
            interval: 8,
            count: 2,
            emigrant: EmigrantSelection::Best,
            replacement: ReplacementPolicy::WorstIfBetter,
        };
        let r = run_threaded(
            islands(4, 13),
            &Topology::Complete,
            policy,
            &Termination::new().until_optimum().max_generations(300),
            false,
        )
        .unwrap();
        assert!(r.hit_optimum, "best = {}", r.best.fitness());
    }

    #[test]
    fn threaded_matches_sequential_without_migration() {
        let stop = Termination::new().max_generations(30);
        let threaded = run_threaded(
            islands(3, 21),
            &Topology::RingUni,
            MigrationPolicy::isolated(),
            &stop,
            false,
        )
        .unwrap();
        let mut arch = crate::Archipelago::new(
            islands(3, 21),
            Topology::RingUni,
            MigrationPolicy::isolated(),
        )
        .unwrap();
        let sequential = arch.run(&stop).unwrap();
        assert_eq!(threaded.per_island_best, sequential.per_island_best);
        assert_eq!(threaded.total_evaluations, sequential.total_evaluations);
    }

    #[test]
    fn sync_no_deadlock_on_early_exit() {
        let p = Arc::new(OneMax(8));
        let islands: Vec<_> = (0..4)
            .map(|i| {
                GaBuilder::new(Arc::clone(&p))
                    .seed(100 + i as u64)
                    .pop_size(20)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(8))
                    .build()
                    .unwrap()
            })
            .collect();
        let r = run_threaded(
            islands,
            &Topology::RingUni,
            MigrationPolicy {
                interval: 2,
                ..MigrationPolicy::default()
            },
            &Termination::new().until_optimum().max_generations(500),
            false,
        )
        .unwrap();
        assert!(r.hit_optimum);
    }

    #[test]
    fn history_recorded_per_island() {
        let r = run_threaded(
            islands(2, 31),
            &Topology::RingBi,
            MigrationPolicy::default(),
            &Termination::new().max_generations(12),
            true,
        )
        .unwrap();
        assert_eq!(r.histories.len(), 2);
        assert_eq!(r.histories[0].len(), 12);
    }

    #[test]
    fn unbounded_rule_is_rejected() {
        let e = run_threaded(
            islands(2, 1),
            &Topology::RingUni,
            MigrationPolicy::default(),
            &Termination::new().until_optimum(),
            false,
        )
        .err()
        .unwrap();
        assert_eq!(e, ConfigError::UnboundedTermination);
    }

    #[test]
    fn fault_plan_validated_against_topology() {
        use pga_cluster::{LinkFault, MigrationFaultPlan};
        let options = ResilientOptions {
            // 0 -> 2 is not a RingUni edge on 3 islands.
            faults: MigrationFaultPlan::none(3).with_link_fault(0, 2, LinkFault::healthy()),
            ..ResilientOptions::default()
        };
        let e = run_threaded_resilient(
            islands(3, 1),
            &Topology::RingUni,
            MigrationPolicy::default(),
            &Termination::new().max_generations(10),
            false,
            &options,
        )
        .err()
        .unwrap();
        assert!(matches!(
            e,
            ConfigError::InvalidParameter {
                name: "fault_plan",
                ..
            }
        ));
    }

    #[test]
    fn threaded_traces_merge_deterministically() {
        use pga_observe::{merge_island_traces, EventKind, FilteredRecorder, RingRecorder};
        let run = || {
            let p = Arc::new(OneMax(48));
            let rings: Vec<RingRecorder> = (0..3).map(|_| RingRecorder::new(65_536)).collect();
            let islands: Vec<_> = (0..3)
                .map(|i| {
                    GaBuilder::new(Arc::clone(&p))
                        .seed(70 + i as u64)
                        .pop_size(30)
                        .selection(Tournament::binary())
                        .crossover(OnePoint)
                        .mutation(BitFlip::one_over_len(48))
                        // Drop the wall-clock batch timings so the merged
                        // trace is byte-comparable across runs.
                        .recorder(FilteredRecorder::new(rings[i].clone(), |e| {
                            !matches!(e.kind, EventKind::EvaluationBatch { .. })
                        }))
                        .build()
                        .unwrap()
                })
                .collect();
            let _ = run_threaded(
                islands,
                &Topology::RingUni,
                MigrationPolicy::default(),
                &Termination::new().max_generations(40),
                false,
            )
            .unwrap();
            merge_island_traces(rings.iter().map(|r| r.take_events()).collect())
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, EventKind::MigrationSent { .. })));
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, EventKind::MigrationReceived { .. })));
        assert_eq!(a, b, "merged threaded traces must be reproducible");
    }

    #[test]
    fn boxed_demes_run_threaded() {
        let p = Arc::new(OneMax(32));
        let demes: Vec<Box<dyn Deme<Genome = BitString>>> = (0..3)
            .map(|i| {
                Box::new(
                    GaBuilder::new(Arc::clone(&p))
                        .seed(50 + i as u64)
                        .pop_size(20)
                        .selection(Tournament::binary())
                        .crossover(OnePoint)
                        .mutation(BitFlip::one_over_len(32))
                        .build()
                        .unwrap(),
                ) as Box<dyn Deme<Genome = BitString>>
            })
            .collect();
        let r = run_threaded(
            demes,
            &Topology::RingUni,
            MigrationPolicy::default(),
            &Termination::new().until_optimum().max_generations(400),
            false,
        )
        .unwrap();
        assert!(r.hit_optimum);
    }
}
