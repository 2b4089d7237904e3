//! The [`Recorder`] trait and composable recorder combinators.

use crate::event::{Event, EventKind};
use crate::metrics::Registry;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Consumes a stream of [`Event`]s.
///
/// Recorders are attached to engines (`Ga::builder().recorder(..)`,
/// `CellularGa`, the island drivers, the simulated master–slave wrapper)
/// and must never influence the search: implementations only observe.
pub trait Recorder: Send {
    /// Handles one event.
    fn record(&mut self, event: &Event);

    /// Flushes buffered output (no-op for in-memory recorders).
    fn flush(&mut self) {}
}

impl<R: Recorder + ?Sized> Recorder for Box<R> {
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    fn flush(&mut self) {
        (**self).flush();
    }
}

/// Feeds an already-captured trace through another recorder (e.g. replay a
/// ring buffer into a CSV sink after a threaded run).
pub fn replay<R: Recorder + ?Sized>(events: &[Event], recorder: &mut R) {
    for event in events {
        recorder.record(event);
    }
    recorder.flush();
}

/// Locks a recorder's shared state. A poisoned lock only means another
/// holder panicked mid-event; the buffer is still consistent, so tracing
/// carries on instead of taking the engine down with it.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct RingInner {
    capacity: usize,
    dropped: u64,
    events: VecDeque<Event>,
}

/// Bounded in-memory trace buffer.
///
/// Cloning shares the underlying buffer, so one ring can be attached to
/// several islands of a single-threaded archipelago and read back once
/// afterwards. When the buffer is full the *oldest* events are dropped
/// (and counted), so the tail of a long run is always retained.
#[derive(Clone)]
pub struct RingRecorder {
    inner: Arc<Mutex<RingInner>>,
}

impl RingRecorder {
    /// Ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            inner: Arc::new(Mutex::new(RingInner {
                capacity,
                dropped: 0,
                events: VecDeque::with_capacity(capacity.min(4096)),
            })),
        }
    }

    /// Snapshot of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        lock(&self.inner).events.iter().cloned().collect()
    }

    /// Drains the buffered events, oldest first.
    #[must_use]
    pub fn take_events(&self) -> Vec<Event> {
        lock(&self.inner).events.drain(..).collect()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        lock(&self.inner).dropped
    }

    /// Buffered event count.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).events.len()
    }

    /// `true` when no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: &Event) {
        let mut inner = lock(&self.inner);
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event.clone());
    }
}

/// Clonable handle sharing one inner recorder behind a mutex.
///
/// This is the composition primitive for fan-in: attach clones of one
/// `SharedRecorder` to every island of an archipelago and all events land
/// in the same sink, in step order (the single-threaded drivers interleave
/// islands deterministically).
#[derive(Clone)]
pub struct SharedRecorder {
    inner: Arc<Mutex<Box<dyn Recorder>>>,
}

impl SharedRecorder {
    /// Wraps `inner` for shared use.
    #[must_use]
    pub fn new(inner: impl Recorder + 'static) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Box::new(inner))),
        }
    }
}

impl Recorder for SharedRecorder {
    fn record(&mut self, event: &Event) {
        lock(&self.inner).record(event);
    }

    fn flush(&mut self) {
        lock(&self.inner).flush();
    }
}

/// Fans every event out to several recorders (tee).
#[derive(Default)]
pub struct MultiRecorder {
    sinks: Vec<Box<dyn Recorder>>,
}

impl MultiRecorder {
    /// Empty tee.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a destination.
    #[must_use]
    pub fn with(mut self, sink: impl Recorder + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }
}

impl Recorder for MultiRecorder {
    fn record(&mut self, event: &Event) {
        for sink in &mut self.sinks {
            sink.record(event);
        }
    }

    fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

/// Forwards only events matching a predicate.
pub struct FilteredRecorder<R, F> {
    inner: R,
    keep: F,
}

impl<R: Recorder, F: Fn(&Event) -> bool + Send> FilteredRecorder<R, F> {
    /// Keeps events for which `keep` returns `true`.
    #[must_use]
    pub fn new(inner: R, keep: F) -> Self {
        Self { inner, keep }
    }

    /// Recovers the wrapped recorder.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Recorder, F: Fn(&Event) -> bool + Send> Recorder for FilteredRecorder<R, F> {
    fn record(&mut self, event: &Event) {
        if (self.keep)(event) {
            self.inner.record(event);
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Downsamples high-frequency per-generation events: passes one
/// `GenerationCompleted` / `EvaluationBatch` in every `stride` per island,
/// and every event of any other kind. Counter-based (no randomness), so
/// sampling is deterministic and seed-transparent.
pub struct SampledRecorder<R> {
    inner: R,
    stride: u64,
    seen: Vec<u64>,
}

impl<R: Recorder> SampledRecorder<R> {
    /// Keeps one per-generation event in every `stride` (per island).
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn every(inner: R, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        Self {
            inner,
            stride,
            seen: Vec::new(),
        }
    }

    /// Recovers the wrapped recorder.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Recorder> Recorder for SampledRecorder<R> {
    fn record(&mut self, event: &Event) {
        let sampled = matches!(
            event.kind,
            EventKind::GenerationCompleted { .. } | EventKind::EvaluationBatch { .. }
        );
        if sampled {
            let island = event.island().unwrap_or(0) as usize;
            if island >= self.seen.len() {
                self.seen.resize(island + 1, 0);
            }
            let n = self.seen[island];
            self.seen[island] += 1;
            if !n.is_multiple_of(self.stride) {
                return;
            }
        }
        self.inner.record(event);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Aggregates the event stream into a metrics [`Registry`]:
///
/// * `events.<kind>` counters for every kind seen;
/// * `migration.sent` / `migration.accepted` counters;
/// * `eval.batch_micros` histogram (timing-scope latencies);
/// * `pool.tasks` / `pool.steals` / `pool.parks` counters, a
///   `pool.workers` gauge and a `pool.queue_micros` histogram (work-stealing
///   pool health, from `pool_batch` events);
/// * `archipelago.islands_lost` / `archipelago.islands_resurrected` /
///   `archipelago.batches_dropped` / `archipelago.batches_redelivered` /
///   `archipelago.heartbeat_misses` counters (resilient island lifecycle);
/// * `fitness.best_ever` histogram over generation snapshots;
/// * `run.generation` / `run.best_ever` gauges tracking the latest state.
pub struct MetricsRecorder {
    registry: Registry,
}

impl MetricsRecorder {
    /// Fresh recorder with an empty registry. `fitness_buckets` are the
    /// histogram upper bounds for best-fitness observations.
    #[must_use]
    pub fn new(fitness_buckets: Vec<f64>) -> Self {
        let mut registry = Registry::new();
        registry.histogram_with_bounds("fitness.best_ever", fitness_buckets);
        registry.histogram_with_bounds(
            "eval.batch_micros",
            crate::metrics::exponential_bounds(10.0, 4.0, 10),
        );
        registry.histogram_with_bounds(
            "pool.queue_micros",
            crate::metrics::exponential_bounds(1.0, 4.0, 10),
        );
        Self { registry }
    }

    /// Read access to the aggregated metrics.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Consumes the recorder, yielding the registry.
    #[must_use]
    pub fn into_registry(self) -> Registry {
        self.registry
    }
}

impl Recorder for MetricsRecorder {
    fn record(&mut self, event: &Event) {
        self.registry
            .inc(&format!("events.{}", event.kind.name()), 1);
        match &event.kind {
            EventKind::GenerationCompleted {
                generation,
                best_ever,
                ..
            } => {
                self.registry.observe("fitness.best_ever", *best_ever);
                self.registry
                    .set_gauge("run.generation", *generation as f64);
                self.registry.set_gauge("run.best_ever", *best_ever);
            }
            EventKind::EvaluationBatch { micros, fresh, .. } => {
                self.registry.observe("eval.batch_micros", *micros as f64);
                self.registry.inc("eval.fresh", *fresh);
            }
            EventKind::PoolBatch {
                workers,
                tasks,
                steals,
                parks,
                queue_micros,
                ..
            } => {
                self.registry.set_gauge("pool.workers", *workers as f64);
                self.registry.inc("pool.tasks", *tasks);
                self.registry.inc("pool.steals", *steals);
                self.registry.inc("pool.parks", *parks);
                self.registry
                    .observe("pool.queue_micros", *queue_micros as f64);
            }
            EventKind::MigrationSent { count, .. } => {
                self.registry.inc("migration.sent", *count);
            }
            EventKind::MigrationReceived { accepted, .. } => {
                self.registry.inc("migration.accepted", *accepted);
            }
            EventKind::NodeFailed { .. } => {
                self.registry.inc("cluster.node_failures", 1);
            }
            EventKind::TaskReassigned { .. } => {
                self.registry.inc("cluster.reassignments", 1);
            }
            EventKind::TaskDispatched { .. } => {
                self.registry.inc("resilient.dispatched", 1);
            }
            EventKind::HeartbeatMissed { .. } => {
                self.registry.inc("resilient.heartbeat_misses", 1);
            }
            EventKind::TaskRetried { backoff_micros, .. } => {
                self.registry.inc("resilient.retries", 1);
                self.registry
                    .observe("resilient.backoff_micros", *backoff_micros as f64);
            }
            EventKind::WorkerQuarantined { .. } => {
                self.registry.inc("resilient.quarantined", 1);
            }
            EventKind::WorkerRecovered { .. } => {
                self.registry.inc("resilient.recovered", 1);
            }
            EventKind::IslandLost { .. } => {
                self.registry.inc("archipelago.islands_lost", 1);
            }
            EventKind::IslandResurrected { .. } => {
                self.registry.inc("archipelago.islands_resurrected", 1);
            }
            EventKind::MigrantBatchDropped { count, .. } => {
                self.registry.inc("archipelago.batches_dropped", 1);
                self.registry.inc("archipelago.migrants_dropped", *count);
            }
            EventKind::MigrantBatchRedelivered { count, .. } => {
                self.registry.inc("archipelago.batches_redelivered", 1);
                self.registry
                    .inc("archipelago.migrants_redelivered", *count);
            }
            EventKind::IslandHeartbeatMissed { .. } => {
                self.registry.inc("archipelago.heartbeat_misses", 1);
            }
            EventKind::AsyncFold { clock_micros, .. } => {
                self.registry.inc("async.folds", 1);
                self.registry
                    .set_gauge("async.clock_micros", *clock_micros as f64);
            }
            EventKind::AsyncImmigrantsDrained {
                offered, accepted, ..
            } => {
                self.registry.inc("async.immigrants_drained", *offered);
                self.registry.inc("async.immigrants_accepted", *accepted);
            }
            _ => {}
        }
    }
}

/// Deterministically merges per-island traces (from a threaded island run)
/// into one global trace.
///
/// Events are ordered by `(generation, phase rank, island, intra-island
/// index)`; per-island streams are themselves deterministic under
/// synchronous migration, so the merged trace is reproducible regardless
/// of thread scheduling.
#[must_use]
pub fn merge_island_traces(per_island: Vec<Vec<Event>>) -> Vec<Event> {
    let mut tagged: Vec<(u64, u8, u32, usize, Event)> = Vec::new();
    for (island, trace) in per_island.into_iter().enumerate() {
        for (idx, event) in trace.into_iter().enumerate() {
            let generation = event.generation().unwrap_or(u64::MAX);
            let phase = event.kind.phase_rank();
            let island_id = event.island().unwrap_or(island as u32);
            tagged.push((generation, phase, island_id, idx, event));
        }
    }
    tagged.sort_by_key(|a| (a.0, a.1, a.2, a.3));
    tagged.into_iter().map(|(_, _, _, _, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Time;

    fn gen_event(island: u32, generation: u64) -> Event {
        Event::new(EventKind::GenerationCompleted {
            island,
            generation,
            evaluations: generation * 10,
            best: 1.0,
            mean: 0.5,
            best_ever: 1.0,
        })
    }

    #[test]
    fn ring_keeps_newest_events() {
        let mut ring = RingRecorder::new(3);
        for g in 1..=5 {
            ring.record(&gen_event(0, g));
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(events[0].generation(), Some(3));
        assert_eq!(events[2].generation(), Some(5));
    }

    #[test]
    fn shared_ring_clones_share_a_buffer() {
        let ring = RingRecorder::new(16);
        let mut a = ring.clone();
        let mut b = ring.clone();
        a.record(&gen_event(0, 1));
        b.record(&gen_event(1, 1));
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn filtered_recorder_drops_unmatched() {
        let ring = RingRecorder::new(16);
        let mut filtered = FilteredRecorder::new(ring.clone(), |e| {
            matches!(e.kind, EventKind::MigrationSent { .. })
        });
        filtered.record(&gen_event(0, 1));
        filtered.record(&Event::new(EventKind::MigrationSent {
            from: 0,
            to: 1,
            generation: 1,
            count: 2,
        }));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.events()[0].kind.name(), "migration_sent");
    }

    #[test]
    fn sampler_keeps_every_nth_generation_per_island() {
        let ring = RingRecorder::new(64);
        let mut sampled = SampledRecorder::every(ring.clone(), 3);
        for g in 1..=9 {
            sampled.record(&gen_event(0, g));
            sampled.record(&gen_event(1, g));
        }
        // 9 generations / stride 3 = 3 kept per island.
        assert_eq!(ring.len(), 6);
        // Non-sampled kinds always pass.
        sampled.record(&Event::at(
            Time::Sim(1.0),
            EventKind::NodeFailed { node: 1 },
        ));
        assert_eq!(ring.len(), 7);
    }

    #[test]
    fn metrics_recorder_aggregates_counters_and_histograms() {
        let mut rec = MetricsRecorder::new(vec![8.0, 16.0, 32.0]);
        for g in 1..=4 {
            rec.record(&gen_event(0, g));
        }
        rec.record(&Event::new(EventKind::MigrationSent {
            from: 0,
            to: 1,
            generation: 4,
            count: 3,
        }));
        rec.record(&Event::new(EventKind::EvaluationBatch {
            island: 0,
            batch: 4,
            size: 10,
            fresh: 9,
            micros: 120,
        }));
        let reg = rec.registry();
        assert_eq!(reg.counter("events.generation_completed"), 4);
        assert_eq!(reg.counter("migration.sent"), 3);
        assert_eq!(reg.counter("eval.fresh"), 9);
        let h = reg.histogram("fitness.best_ever").unwrap();
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn merge_orders_by_generation_phase_island() {
        let island0 = vec![
            gen_event(0, 1),
            gen_event(0, 2),
            Event::new(EventKind::MigrationSent {
                from: 0,
                to: 1,
                generation: 2,
                count: 1,
            }),
        ];
        let island1 = vec![
            gen_event(1, 1),
            gen_event(1, 2),
            Event::new(EventKind::MigrationReceived {
                island: 1,
                generation: 2,
                offered: 1,
                accepted: 1,
            }),
        ];
        let merged = merge_island_traces(vec![island0, island1]);
        let names: Vec<&str> = merged.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            names,
            vec![
                "generation_completed", // gen 1, island 0
                "generation_completed", // gen 1, island 1
                "generation_completed", // gen 2, island 0
                "generation_completed", // gen 2, island 1
                "migration_sent",       // gen 2 phase 4
                "migration_received",   // gen 2 phase 5
            ]
        );
    }
}
