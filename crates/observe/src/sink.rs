//! Streaming text sinks: CSV and JSONL encodings of the event stream.

use crate::event::{Event, FieldValue, Time};
use crate::record::Recorder;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Every column a flattened event can populate, in output order. One fixed
/// schema keeps CSV rows position-stable across event kinds.
const CSV_COLUMNS: &[&str] = &[
    "seq",
    "time",
    "clock",
    "kind",
    "island",
    "node",
    "from",
    "to",
    "generation",
    "batch",
    "evaluations",
    "size",
    "fresh",
    "count",
    "offered",
    "accepted",
    "task",
    "best",
    "mean",
    "best_ever",
    "micros",
    "seed",
    "hit_optimum",
    "engine",
    "problem",
];

fn format_field(value: &FieldValue) -> String {
    match value {
        FieldValue::Int(v) => v.to_string(),
        FieldValue::Float(v) => format!("{v}"),
        FieldValue::Bool(v) => v.to_string(),
        FieldValue::Text(v) => v.clone(),
    }
}

fn time_columns(time: Time) -> (String, String) {
    match time {
        Time::None => (String::new(), String::new()),
        Time::Wall(s) => (format!("{s:.6}"), "wall".into()),
        Time::Sim(s) => (format!("{s:.6}"), "sim".into()),
    }
}

/// Writes one CSV row per event against a fixed column schema; the
/// header row is emitted before the first event.
///
/// Cells are only quoted when they contain a comma, quote, or newline
/// (standard RFC 4180 quoting), which never happens for numeric fields.
pub struct CsvSink<W: Write + Send> {
    out: W,
    seq: u64,
    wrote_header: bool,
}

impl<W: Write + Send> CsvSink<W> {
    /// Sink writing to `out`; the header row is emitted with the first
    /// event.
    #[must_use]
    pub fn new(out: W) -> Self {
        Self {
            out,
            seq: 0,
            wrote_header: false,
        }
    }

    /// Recovers the writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    fn quote(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
}

impl<W: Write + Send> Recorder for CsvSink<W> {
    fn record(&mut self, event: &Event) {
        if !self.wrote_header {
            self.wrote_header = true;
            let _ = writeln!(self.out, "{}", CSV_COLUMNS.join(","));
        }
        let fields = event.fields();
        let (time, clock) = time_columns(event.time);
        let row: Vec<String> = CSV_COLUMNS
            .iter()
            .map(|&col| match col {
                "seq" => self.seq.to_string(),
                "time" => time.clone(),
                "clock" => clock.clone(),
                "kind" => event.kind.name().to_string(),
                _ => fields
                    .iter()
                    .find(|(name, _)| *name == col)
                    .map(|(_, value)| Self::quote(&format_field(value)))
                    .unwrap_or_default(),
            })
            .collect();
        let _ = writeln!(self.out, "{}", row.join(","));
        self.seq += 1;
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_value(value: &FieldValue) -> String {
    match value {
        FieldValue::Int(v) => v.to_string(),
        FieldValue::Bool(v) => v.to_string(),
        FieldValue::Float(v) => {
            if v.is_finite() {
                format!("{v}")
            } else {
                // JSON has no inf/nan; encode as strings.
                format!("\"{v}\"")
            }
        }
        FieldValue::Text(v) => format!("\"{}\"", json_escape(v)),
    }
}

/// Encodes one event as a self-describing JSONL line (no trailing
/// newline), e.g. `{"seq":3,"kind":"migration_sent","from":0,"to":1,...}`.
///
/// The single source of truth for the JSONL wire format: [`JsonlSink`]
/// (batch, `Write`-backed) and [`JsonlStream`] (incremental, drainable)
/// both delegate here, so a consumer parsing one parses the other.
#[must_use]
pub fn jsonl_line(seq: u64, event: &Event) -> String {
    let mut line = format!("{{\"seq\":{seq},\"kind\":\"{}\"", event.kind.name());
    match event.time {
        Time::None => {}
        Time::Wall(s) => line.push_str(&format!(",\"wall_s\":{s:.6}")),
        Time::Sim(s) => line.push_str(&format!(",\"sim_s\":{s:.6}")),
    }
    for (name, value) in event.fields() {
        line.push_str(&format!(",\"{name}\":{}", json_value(&value)));
    }
    line.push('}');
    line
}

/// Writes one JSON object per line per event (JSONL / NDJSON), e.g.:
///
/// ```json
/// {"seq":3,"kind":"migration_sent","from":0,"to":1,"generation":40,"count":1}
/// ```
pub struct JsonlSink<W: Write + Send> {
    out: W,
    seq: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Sink writing to `out`.
    #[must_use]
    pub fn new(out: W) -> Self {
        Self { out, seq: 0 }
    }

    /// Recovers the writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write + Send> Recorder for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let line = jsonl_line(self.seq, event);
        let _ = writeln!(self.out, "{line}");
        self.seq += 1;
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

struct StreamInner {
    seq: u64,
    capacity: usize,
    dropped: u64,
    lines: VecDeque<String>,
    closed: bool,
    /// Consumers blocked in [`JsonlStream::wait_lines`].
    waiters: usize,
    /// Shared tally of undrained line bytes (see [`JsonlStream::metered`]).
    meter: Option<Arc<AtomicUsize>>,
}

impl StreamInner {
    /// Takes all buffered lines, oldest first.
    fn drain(&mut self) -> Vec<String> {
        let lines: Vec<String> = if self.closed {
            // A closed stream is not refilled: hand over the buffer itself.
            std::mem::take(&mut self.lines).into()
        } else {
            self.lines.drain(..).collect()
        };
        self.meter_sub(lines.iter().map(String::len).sum());
        lines
    }

    fn meter_add(&self, bytes: usize) {
        if let Some(meter) = &self.meter {
            meter.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    fn meter_sub(&self, bytes: usize) {
        if let Some(meter) = &self.meter {
            meter.fetch_sub(bytes, Ordering::Relaxed);
        }
    }
}

impl Drop for StreamInner {
    fn drop(&mut self) {
        self.meter_sub(self.lines.iter().map(String::len).sum());
    }
}

/// Incremental JSONL event stream: a clonable [`Recorder`] that encodes
/// each event as a [`jsonl_line`] into a shared bounded buffer, which a
/// consumer on another thread drains line-by-line.
///
/// This is the live-streaming counterpart of [`JsonlSink`]: a job server
/// attaches one clone to an engine and its `/jobs/:id/events` endpoint
/// drains the other end while the run is still in flight. When the buffer
/// is full the *oldest* lines are dropped (and counted), so a slow or
/// absent consumer never blocks or bloats the producer. Once a closed
/// stream is drained its buffer is freed.
///
/// A consumer can also block until there is something to drain:
/// [`JsonlStream::wait_lines`] wakes on every recorded line and on close.
#[derive(Clone)]
pub struct JsonlStream {
    shared: Arc<StreamShared>,
}

struct StreamShared {
    inner: Mutex<StreamInner>,
    /// Notified on close, and on every recorded line while a consumer
    /// waits.
    ready: Condvar,
}

impl JsonlStream {
    /// Stream buffering at most `capacity` undrained lines.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// Like [`JsonlStream::with_capacity`], and every undrained line's
    /// byte length is also counted in `meter`, which many streams may
    /// share: a server's gauge of event bytes it holds for its clients.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn metered(capacity: usize, meter: Arc<AtomicUsize>) -> Self {
        Self::build(capacity, Some(meter))
    }

    fn build(capacity: usize, meter: Option<Arc<AtomicUsize>>) -> Self {
        assert!(capacity > 0, "stream capacity must be positive");
        Self {
            shared: Arc::new(StreamShared {
                inner: Mutex::new(StreamInner {
                    seq: 0,
                    capacity,
                    dropped: 0,
                    lines: VecDeque::new(),
                    closed: false,
                    waiters: 0,
                    meter,
                }),
                ready: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StreamInner> {
        self.shared
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stream with a default buffer of 64 Ki lines.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(1 << 16)
    }

    /// Takes all buffered lines, oldest first (without trailing newlines).
    #[must_use]
    pub fn drain_lines(&self) -> Vec<String> {
        self.lock().drain()
    }

    /// Blocks until a line is buffered, the stream is closed, or
    /// `timeout` passes; then takes all buffered lines, as
    /// [`JsonlStream::drain_lines`] does. The flag is `true` once the
    /// stream is closed and these were its last lines: the consumer is
    /// done. One lock per wake.
    #[must_use]
    pub fn wait_lines(&self, timeout: Duration) -> (Vec<String>, bool) {
        let mut inner = self.lock();
        inner.waiters += 1;
        let (mut inner, _) = self
            .shared
            .ready
            .wait_timeout_while(inner, timeout, |i| i.lines.is_empty() && !i.closed)
            .unwrap_or_else(PoisonError::into_inner);
        inner.waiters -= 1;
        let lines = inner.drain();
        (lines, inner.closed)
    }

    /// Undrained line count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().lines.len()
    }

    /// `true` when no lines are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Marks the stream finished: the producer will emit no more events.
    /// Consumers drain whatever remains and stop waiting.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        if inner.lines.is_empty() {
            inner.lines = VecDeque::new();
        }
        drop(inner);
        self.shared.ready.notify_all();
    }

    /// `true` once [`JsonlStream::close`] was called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

impl Default for JsonlStream {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder for JsonlStream {
    fn record(&mut self, event: &Event) {
        let mut inner = self.lock();
        let line = jsonl_line(inner.seq, event);
        inner.seq += 1;
        if inner.lines.len() == inner.capacity {
            if let Some(evicted) = inner.lines.pop_front() {
                inner.meter_sub(evicted.len());
            }
            inner.dropped += 1;
        }
        inner.meter_add(line.len());
        inner.lines.push_back(line);
        // Producers pay for a wake only while someone waits.
        if inner.waiters > 0 {
            drop(inner);
            self.shared.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::new(EventKind::RunStarted {
                island: 0,
                engine: "ga-generational".into(),
                problem: "one,max \"quoted\"".into(),
                seed: 7,
            }),
            Event::new(EventKind::GenerationCompleted {
                island: 0,
                generation: 1,
                evaluations: 60,
                best: 41.0,
                mean: 31.5,
                best_ever: 41.0,
            }),
            Event::at(Time::Sim(0.25), EventKind::NodeFailed { node: 2 }),
        ]
    }

    #[test]
    fn csv_has_header_and_stable_width() {
        let mut sink = CsvSink::new(Vec::new());
        crate::record::replay(&sample_events(), &mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let header_cols = lines[0].split(',').count();
        assert!(lines[0].starts_with("seq,time,clock,kind"));
        // Quoted cells make naive splitting wrong only for the quoted row;
        // verify the numeric rows align with the header.
        assert_eq!(lines[2].split(',').count(), header_cols);
        assert!(lines[2].contains("generation_completed"));
        assert!(lines[3].contains("sim"));
    }

    #[test]
    fn csv_quotes_commas_and_quotes() {
        let mut sink = CsvSink::new(Vec::new());
        sink.record(&sample_events()[0]);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"one,max \"\"quoted\"\"\""));
    }

    #[test]
    fn jsonl_stream_drains_incrementally_and_matches_the_sink() {
        let stream = JsonlStream::with_capacity(8);
        let mut producer = stream.clone();
        let events = sample_events();
        producer.record(&events[0]);
        producer.record(&events[1]);
        let first = stream.drain_lines();
        assert_eq!(first.len(), 2);
        assert!(stream.is_empty());
        producer.record(&events[2]);
        let second = stream.drain_lines();
        assert_eq!(second.len(), 1);

        // Byte-identical to the batch sink over the same trace.
        let mut sink = JsonlSink::new(Vec::new());
        crate::record::replay(&events, &mut sink);
        let batch = String::from_utf8(sink.into_inner()).unwrap();
        let streamed: Vec<String> = first.into_iter().chain(second).collect();
        assert_eq!(batch.lines().collect::<Vec<_>>(), streamed);

        assert!(!stream.is_closed());
        stream.close();
        assert!(stream.is_closed());
    }

    #[test]
    fn jsonl_stream_drops_oldest_when_full() {
        let stream = JsonlStream::with_capacity(2);
        let mut producer = stream.clone();
        for generation in 1..=5 {
            producer.record(&Event::new(EventKind::GenerationCompleted {
                island: 0,
                generation,
                evaluations: generation,
                best: 1.0,
                mean: 0.5,
                best_ever: 1.0,
            }));
        }
        assert_eq!(stream.dropped(), 3);
        let lines = stream.drain_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"generation\":4"));
        assert!(lines[1].contains("\"generation\":5"));
    }

    #[test]
    fn wait_lines_wakes_on_record_and_close_and_is_done_only_once_drained() {
        use std::time::Instant;
        let timeout = Duration::from_secs(30);
        let stream = JsonlStream::with_capacity(8);
        let events = sample_events();
        // Lines already buffered return at once, not done.
        let mut producer = stream.clone();
        producer.record(&events[0]);
        let (lines, done) = stream.wait_lines(timeout);
        assert_eq!((lines.len(), done), (1, false));
        // Waits until the consumer is blocked in `wait_lines`, so each
        // wake below is forced to come from the other thread.
        let once_waiting = |stream: &JsonlStream| {
            while stream.lock().waiters == 0 {
                std::thread::yield_now();
            }
        };
        // A record from another thread wakes the waiter.
        let started = Instant::now();
        let handle = {
            let mut producer = stream.clone();
            let event = events[1].clone();
            std::thread::spawn(move || {
                once_waiting(&producer);
                producer.record(&event);
            })
        };
        let (lines, done) = stream.wait_lines(timeout);
        assert_eq!((lines.len(), done), (1, false));
        assert!(started.elapsed() < timeout / 2, "woken by the record");
        handle.join().unwrap();
        // A close from another thread wakes it, done.
        let closer = stream.clone();
        let started = Instant::now();
        let handle = std::thread::spawn(move || {
            once_waiting(&closer);
            closer.close();
        });
        let (lines, done) = stream.wait_lines(timeout);
        assert_eq!((lines.len(), done), (0, true), "woken by the close");
        assert!(started.elapsed() < timeout / 2, "woken by the close");
        handle.join().unwrap();
        // Lines left at the close come back with `done`: the last ones.
        let closing = JsonlStream::with_capacity(8);
        closing.clone().record(&events[2]);
        closing.close();
        assert_eq!(
            closing.wait_lines(timeout),
            (vec![jsonl_line(0, &events[2])], true)
        );
        assert_eq!(closing.wait_lines(timeout), (Vec::new(), true));
        // With nothing buffered and no close, it waits out the timeout.
        let open = JsonlStream::with_capacity(2);
        let (lines, done) = open.wait_lines(Duration::from_millis(10));
        assert!(lines.is_empty() && !done);
    }

    #[test]
    fn metered_streams_count_undrained_bytes_and_free_closed_buffers() {
        let meter = Arc::new(AtomicUsize::new(0));
        let a = JsonlStream::metered(2, Arc::clone(&meter));
        let b = JsonlStream::metered(8, Arc::clone(&meter));
        let events = sample_events();
        let (mut pa, mut pb) = (a.clone(), b.clone());
        for event in &events {
            pa.record(event);
            pb.record(event);
        }
        // `a` evicted its oldest line; the meter counts what is held.
        let held = |s: &JsonlStream| s.lock().lines.iter().map(String::len).sum();
        assert_eq!(meter.load(Ordering::Relaxed), held(&a) + held(&b));
        let drained: usize = a.drain_lines().iter().map(String::len).sum();
        assert_eq!(meter.load(Ordering::Relaxed), held(&b));
        assert!(drained > 0);
        // A closed stream gives its buffer away on the final drain.
        b.close();
        assert_eq!(b.drain_lines().len(), events.len());
        assert_eq!(b.lock().lines.capacity(), 0);
        assert_eq!(meter.load(Ordering::Relaxed), 0);
        // Dropping a stream with undrained lines releases them too.
        pa.record(&events[0]);
        assert!(meter.load(Ordering::Relaxed) > 0);
        drop((a, pa));
        assert_eq!(meter.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn jsonl_rows_are_self_describing() {
        let mut sink = JsonlSink::new(Vec::new());
        crate::record::replay(&sample_events(), &mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"run_started\""));
        assert!(lines[0].contains("\\\"quoted\\\""));
        assert!(lines[1].contains("\"best\":41"));
        assert!(lines[2].contains("\"sim_s\":0.250000"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }
}
