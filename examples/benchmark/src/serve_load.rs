//! The served workloads: load over real HTTP against a server started in
//! this process, restart timing over a pre-seeded spool, and verification
//! of every served result against an uninterrupted `Driver` run.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};

use pga_core::{Driver, ErasedRun};
use pga_serve::protocol::Json;
use pga_serve::{build_engine, JobId, JobSpec, JobState, Serve, ServeBuilder, ServeRuntime, Spool};

use crate::replay::{self, job_record, Scope};
use crate::report::{add_pool_metrics, add_span_metrics, peak_rss_mb, Measured, Phases, RunOpts};
use crate::stats::Sample;
use crate::trace::{Spans, Trace};
use crate::workload::{arrival_due, is_hog, job_spec, Workload};

/// Closed-loop clients: one thread and at most one open connection each,
/// no more than the two cores of the reference host.
const CLIENTS: usize = 2;
/// Server restarts timed for `setup_s`.
const RESTARTS: usize = 15;
/// Pause between timed restarts, so they sample more than one instant.
const RESTART_GAP: Duration = Duration::from_millis(50);
/// Drained records in the spool each timed restart recovers.
const SEEDED_RECORDS: u64 = 64;
/// Completed jobs re-run uninterrupted, at least (all when fewer finish).
const CHECKED_JOBS: usize = 100;
/// Replayed jobs per job configuration in a traced run.
const REPLAYED_PER_CONFIG: usize = 8;
/// In traced runs, one job in this many is preceded by `GET /healthz`.
const HEALTHZ_EVERY: u64 = 16;
/// The open-loop generator may send at most this late (p99).
const LATE_LIMIT_MS: f64 = 5.0;
/// The backlog check fits outstanding jobs over this much of the
/// window's end (or its second half, when shorter)…
const BACKLOG_SPAN: Duration = Duration::from_secs(10);
/// …and fails the run when they grow faster than this (jobs/s).
const BACKLOG_SLOPE: f64 = 1.0;
/// How long unfinished open-loop jobs may take after the window.
const GRACE: Duration = Duration::from_secs(30);

/// A request on its own connection (the server closes every one).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    // One write: a request split across packets can stall on delayed ACKs.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status_code(&raw), body))
}

fn status_code(response: &[u8]) -> u16 {
    String::from_utf8_lossy(&response[..response.len().min(64)])
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

fn submit(addr: SocketAddr, body: &str) -> Result<JobId, String> {
    let (code, text) = http(addr, "POST", "/jobs", body).map_err(|e| format!("POST /jobs: {e}"))?;
    if code != 201 {
        return Err(format!("POST /jobs answered {code}: {text}"));
    }
    Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("id")?.as_str()?.parse().ok())
        .ok_or_else(|| format!("POST /jobs answered {text}"))
}

fn healthz(addr: SocketAddr) -> Result<(), String> {
    match http(addr, "GET", "/healthz", "") {
        Ok((200, _)) => Ok(()),
        Ok((code, body)) => Err(format!("GET /healthz answered {code}: {body}")),
        Err(e) => Err(format!("GET /healthz: {e}")),
    }
}

/// Reads a job's event stream until the server closes it; returns the
/// status. With `watch`, also returns when the job was first seen
/// terminal in-process (checked about every millisecond while reading).
fn read_events(
    addr: SocketAddr,
    id: JobId,
    watch: Option<&ServeRuntime>,
) -> std::io::Result<(u16, Option<Instant>)> {
    let mut conn = TcpStream::connect(addr)?;
    let request =
        format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    conn.write_all(request.as_bytes())?;
    if watch.is_some() {
        conn.set_read_timeout(Some(Duration::from_millis(1)))?;
    }
    let mut head = Vec::new();
    let mut buf = [0u8; 16 << 10];
    let mut terminal = None;
    loop {
        if let (Some(runtime), None) = (watch, terminal) {
            if runtime.state(id).is_some_and(|s| s.is_terminal()) {
                terminal = Some(Instant::now());
            }
        }
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) if head.len() < 64 => head.extend_from_slice(&buf[..n.min(64)]),
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok((status_code(&head), terminal))
}

fn start_server(spool: &Path) -> Result<(Serve, SocketAddr), String> {
    let serve = ServeBuilder::new()
        .spool_dir(spool)
        .bind("127.0.0.1:0")
        .build()
        .map_err(|e| format!("server start: {e}"))?;
    let addr = serve.http_addr().ok_or("server has no HTTP address")?;
    Ok((serve, addr))
}

fn sleep_until(at: Instant) {
    if let Some(left) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

/// `setup_s` samples: seconds from `ServeBuilder::build` to the first
/// `GET /readyz` 200, each over a fresh copy of a spool holding
/// [`SEEDED_RECORDS`] drained (queued, never sliced) records of the
/// workload's own jobs. Seeding and copying are not timed.
fn setup_times(workload: Workload, seed: u64, run_dir: &Path) -> Result<Sample, String> {
    let io = |e: std::io::Error| format!("setup spool: {e}");
    let template = run_dir.join("setup-template");
    let spool = Spool::open(&template).map_err(io)?;
    for i in 0..SEEDED_RECORDS {
        let spec = job_spec(workload, seed, i);
        let engine = build_engine(&spec, None).map_err(|e| format!("seed record: {e}"))?;
        let progress = engine.progress(Duration::ZERO);
        let record = job_record(i, &spec, JobState::Queued, 0, &progress, engine.snapshot());
        spool.save(&record).map_err(io)?;
    }
    let mut times = Vec::new();
    for restart in 0..RESTARTS {
        std::thread::sleep(RESTART_GAP);
        let dir = run_dir.join(format!("setup-{restart}"));
        std::fs::create_dir_all(&dir).map_err(io)?;
        for entry in std::fs::read_dir(&template).map_err(io)? {
            let from = entry.map_err(io)?.path();
            std::fs::copy(&from, dir.join(from.file_name().unwrap_or_default())).map_err(io)?;
        }
        let started = Instant::now();
        let (serve, addr) = start_server(&dir)?;
        loop {
            if let Ok((200, _)) = http(addr, "GET", "/readyz", "") {
                break;
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        times.push(started.elapsed().as_secs_f64());
        if serve.recover_report().resumed as u64 != SEEDED_RECORDS {
            return Err(format!("restart recovered {:?}", serve.recover_report()));
        }
        serve.shutdown();
        std::fs::remove_dir_all(&dir).map_err(io)?;
    }
    std::fs::remove_dir_all(&template).map_err(io)?;
    Ok(Sample::new(times))
}

/// Re-runs `spec` uninterrupted under the core `Driver` and requires the
/// served result to match it bit for bit.
fn verify(runtime: &ServeRuntime, id: JobId, spec: &JobSpec) -> Result<(), String> {
    let served = runtime
        .progress_of(id)
        .ok_or_else(|| format!("{id} unknown"))?;
    let mut engine = build_engine(spec, None).map_err(|e| format!("{id} rebuild: {e}"))?;
    let termination = spec.budget.to_termination().map_err(|e| e.to_string())?;
    let outcome = Driver::new(termination)
        .run(&mut ErasedRun(engine.as_mut()))
        .map_err(|e| e.to_string())?;
    let same = outcome.best_fitness.to_bits() == served.best_fitness.to_bits()
        && outcome.generations == served.generations
        && outcome.evaluations == served.evaluations;
    if same {
        Ok(())
    } else {
        Err(format!(
            "{id} served {served:?}, reference run gave {outcome:?}"
        ))
    }
}

/// Reads the peak resident set once a fixed number of jobs has finished
/// (or at the end of the load, when fewer finish). The server keeps state
/// for every finished job, so its memory grows with jobs served; reading
/// it after the same number of jobs compares memory at equal work.
struct RssProbe {
    after: usize,
    finished: AtomicU64,
    peak_mb: std::sync::Mutex<Option<f64>>,
}

impl RssProbe {
    fn new(workload: Workload) -> Self {
        // About half of what the default window finishes on the reference host.
        let after = match workload {
            Workload::ServeSmall => 3000,
            _ => 500,
        };
        Self {
            after,
            finished: AtomicU64::new(0),
            peak_mb: std::sync::Mutex::new(None),
        }
    }

    fn job_finished(&self) {
        if self.finished.fetch_add(1, Ordering::Relaxed) + 1 == self.after as u64 {
            *self.peak_mb.lock().expect("probe lock") = peak_rss_mb();
        }
    }

    fn report(&self, m: &mut Measured) {
        let seen = *self.peak_mb.lock().expect("probe lock");
        if let Some(mb) = seen.or_else(peak_rss_mb) {
            let jobs = self.finished.load(Ordering::Relaxed).min(self.after as u64);
            m.add("peak_rss_mb", mb, "MB", jobs as usize);
        }
    }
}

/// A served job the load generator saw finish.
struct Finished {
    index: u64,
    id: JobId,
    /// When it was sent (closed loop) or due (open loop), from the origin.
    start: Duration,
    /// When it was seen terminal, from the origin.
    end: Duration,
}

impl Finished {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Checks every finished job ended `Done`, and re-runs every k-th one —
/// at least [`CHECKED_JOBS`] — for a bit-identical result.
fn check_results(
    m: &mut Measured,
    runtime: &ServeRuntime,
    workload: Workload,
    seed: u64,
    jobs: &[Finished],
) {
    let every = (jobs.len() / CHECKED_JOBS).max(1);
    for (i, job) in jobs.iter().enumerate() {
        match runtime.state(job.id) {
            Some(JobState::Done(_)) => {}
            other => {
                m.fail(&format!("{} ended {other:?}", job.id));
                continue;
            }
        }
        if i % every == 0 {
            if let Err(e) = verify(runtime, job.id, &job_spec(workload, seed, job.index)) {
                m.fail(&e);
            }
        }
    }
}

/// Counter deltas of the runtime's `/metrics` document across a window.
struct CounterDelta(BTreeMap<String, f64>);

impl CounterDelta {
    fn new(before: &str, after: &str) -> Self {
        let parse = |text: &str| -> BTreeMap<String, f64> {
            text.lines()
                .filter_map(|l| {
                    let (name, value) = l.split_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect()
        };
        let before = parse(before);
        Self(
            parse(after)
                .into_iter()
                .map(|(k, v)| {
                    let d = v - before.get(&k).copied().unwrap_or(0.0);
                    (k, d)
                })
                .collect(),
        )
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn ratio(&self, num: &str, den: &str) -> f64 {
        let den = self.get(den);
        if den > 0.0 {
            self.get(num) / den
        } else {
            0.0
        }
    }
}

fn add_counter_metrics(m: &mut Measured, d: &CounterDelta) {
    m.add(
        "scheduler.slices_per_job",
        d.ratio("serve.slices", "serve.completed"),
        "count",
        1,
    );
    m.add(
        "scheduler.jobs_per_batch",
        d.ratio("serve.slices", "pool.calls"),
        "count",
        1,
    );
    m.add("scheduler.shed", d.get("serve.shed"), "count", 1);
    m.add("scheduler.retries", d.get("serve.retries"), "count", 1);
    m.add("scheduler.stalled", d.get("serve.stalled"), "count", 1);
    m.add("spool.errors", d.get("serve.spool_errors"), "count", 1);
    let pool = |name: &str| d.get(name) as u64;
    add_pool_metrics(
        m,
        &rayon::PoolStats {
            calls: pool("pool.calls"),
            tasks_executed: pool("pool.tasks_executed"),
            steals: pool("pool.steals"),
            parks: pool("pool.parks"),
            queue_wait_micros: pool("pool.queue_wait_micros"),
            ..rayon::PoolStats::default()
        },
    );
}

/// What a load phase left behind for [`summarize`].
struct Load {
    origin: Instant,
    /// Finished jobs, sorted by index.
    finished: Vec<Finished>,
    /// `/metrics` counter deltas over the measured window.
    counters: CounterDelta,
    traces: Vec<Trace>,
}

/// Throughput, latency and layer metrics common to both load shapes.
/// A job counts toward throughput when it finished in the window, and
/// toward latency when it was sent (or due) in the window.
fn summarize(
    m: &mut Measured,
    serve: &Serve,
    workload: Workload,
    opts: &RunOpts,
    mut load: Load,
) -> Result<(), String> {
    let phases = opts.phases;
    // Rates run from the first to the last completion in the window.
    let mut done: Vec<(Duration, u64)> = load
        .finished
        .iter()
        .filter(|f| phases.in_window(f.end))
        .map(|f| (f.end, serve.progress_of(f.id).map_or(0, |p| p.evaluations)))
        .collect();
    done.sort_unstable();
    if let [first, .., last] = done.as_slice() {
        let span = (last.0 - first.0).as_secs_f64();
        let evals: u64 = done[1..].iter().map(|d| d.1).sum();
        m.add(
            "jobs_per_s",
            (done.len() - 1) as f64 / span,
            "1/s",
            done.len(),
        );
        m.add("evals_per_s", evals as f64 / span, "1/s", done.len());
    }
    let latency = |keep: &dyn Fn(&Finished) -> bool, hogs: bool| {
        let hog = |f: &Finished| is_hog(&job_spec(workload, opts.seed, f.index));
        Sample::new(
            load.finished
                .iter()
                .filter(|f| keep(f) && hog(f) == hogs)
                .map(Finished::latency_ms)
                .collect(),
        )
    };
    let small = latency(&|f| phases.in_window(f.start), false);
    m.median("latency_p50_ms", &small, "ms");
    m.tail("latency_p99_ms", &small, 0.99, "ms");
    if workload == Workload::ServeMixed {
        let hog = latency(&|f| phases.in_window(f.start), true);
        m.median("hog_latency_p50_ms", &hog, "ms");
    }
    add_counter_metrics(m, &load.counters);
    if !opts.trace {
        return Ok(());
    }
    let reference = latency(&|f| phases.in_reference(f.start), false);
    if let (Some(traced), Some(untraced)) = (small.median(), reference.median()) {
        m.add(
            "trace.overhead_frac",
            traced / untraced - 1.0,
            "frac",
            reference.n(),
        );
    }
    // Layer split of the window's jobs: time the status document of each,
    // then replay a seeded sample of every job configuration.
    let window_jobs: Vec<&Finished> = load
        .finished
        .iter()
        .filter(|f| phases.in_window(f.start))
        .collect();
    let mut main = Trace::new(load.origin, true);
    for f in &window_jobs {
        let span = main.open("protocol.status_encode", None, Some(f.index));
        let doc = serve.status_json(f.id);
        main.close(span, doc.map(|d| d.len() as u64));
    }
    let sample = replay_sample(workload, opts.seed, &window_jobs);
    replay::replay(
        &mut main,
        &sample,
        &opts.run_dir.join("replay"),
        Scope::Served,
    )?;
    load.traces.push(main);
    let spans = Spans::merge(load.traces);
    let service = replay::service_ms_by_config(&spans, &sample);
    let waits: Vec<f64> = window_jobs
        .iter()
        .filter_map(|f| {
            let key = replay::config_key(&job_spec(workload, opts.seed, f.index));
            Some(f.latency_ms() - service.get(&key)?)
        })
        .collect();
    let waits = Sample::new(waits);
    m.median("scheduler.queue_wait_ms_p50", &waits, "ms");
    m.tail("scheduler.queue_wait_ms_p99", &waits, 0.99, "ms");
    add_span_metrics(m, &spans);
    m.spans = spans;
    Ok(())
}

/// Up to [`REPLAYED_PER_CONFIG`] jobs of each configuration, chosen by
/// the seed from the window's jobs.
fn replay_sample(workload: Workload, seed: u64, jobs: &[&Finished]) -> Vec<(u64, JobSpec)> {
    let mut order: Vec<u64> = jobs.iter().map(|f| f.index).collect();
    pga_core::Rng64::new(seed).shuffle(&mut order);
    let mut per_config: BTreeMap<String, usize> = BTreeMap::new();
    let mut sample = Vec::new();
    for index in order {
        let spec = job_spec(workload, seed, index);
        let taken = per_config.entry(replay::config_key(&spec)).or_default();
        if *taken < REPLAYED_PER_CONFIG {
            *taken += 1;
            sample.push((index, spec));
        }
    }
    sample
}

/// One closed-loop client: submit, stream the events to the close, repeat.
fn client(
    addr: SocketAddr,
    runtime: &ServeRuntime,
    workload: Workload,
    opts: &RunOpts,
    next: &AtomicU64,
    rss: &RssProbe,
    origin: Instant,
) -> (Vec<Finished>, Vec<String>, Trace) {
    let phases = opts.phases;
    let (mut finished, mut errors) = (Vec::new(), Vec::new());
    let mut trace = Trace::new(origin, false);
    while origin.elapsed() < phases.end() {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let job = Some(index);
        let body = job_spec(workload, opts.seed, index).to_json_string();
        trace.set_enabled(opts.trace && origin.elapsed() >= phases.window_start());
        if index.is_multiple_of(HEALTHZ_EVERY) {
            let span = trace.open("http.healthz", None, None);
            if span.is_some() {
                if let Err(e) = healthz(addr) {
                    errors.push(e);
                }
            }
            trace.close(span, None);
        }
        let sent = Instant::now();
        let root = trace.open("job", None, job);
        let span = trace.open("http.submit", root, job);
        let submitted = submit(addr, &body);
        trace.close(span, None);
        let id = match submitted {
            Ok(id) => id,
            Err(e) => {
                errors.push(e);
                trace.close(root, None);
                continue;
            }
        };
        let span = trace.open("http.events", root, job);
        match read_events(addr, id, span.map(|_| runtime)) {
            Ok((200, terminal)) => {
                let end = Instant::now();
                let terminal = terminal.unwrap_or(end);
                trace.record("http.events_tail", span, job, (terminal, end), None);
                rss.job_finished();
                finished.push(Finished {
                    index,
                    id,
                    start: sent - origin,
                    end: end - origin,
                });
            }
            Ok((code, _)) => errors.push(format!("GET /jobs/{id}/events answered {code}")),
            Err(e) => errors.push(format!("GET /jobs/{id}/events: {e}")),
        }
        trace.close(span, None);
        trace.close(root, None);
    }
    (finished, errors, trace)
}

/// `serve-small` and `serve-heavy`: [`CLIENTS`] closed-loop clients.
pub fn closed_loop(workload: Workload, opts: &RunOpts) -> Result<Measured, String> {
    let mut m = Measured::default();
    let setup = setup_times(workload, opts.seed, &opts.run_dir)?;
    m.median("setup_s", &setup, "s");
    let (serve, addr) = start_server(&opts.run_dir.join("spool"))?;
    let next = AtomicU64::new(0);
    let rss = RssProbe::new(workload);
    let origin = Instant::now();
    let phases = opts.phases;
    let (runs, counters) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client(addr, &serve, workload, opts, &next, &rss, origin)))
            .collect();
        let counters = window_counters(&serve, origin, phases);
        let runs: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (runs, counters)
    });
    rss.report(&mut m);
    m.attempted = next.load(Ordering::Relaxed);
    let (mut finished, mut traces) = (Vec::new(), Vec::new());
    for (jobs, errors, trace) in runs {
        finished.extend(jobs);
        errors.iter().for_each(|e| m.fail(e));
        traces.push(trace);
    }
    finished.sort_by_key(|f| f.index);
    check_results(&mut m, &serve, workload, opts.seed, &finished);
    let load = Load {
        origin,
        finished,
        counters,
        traces,
    };
    summarize(&mut m, &serve, workload, opts, load)?;
    serve.shutdown();
    Ok(m)
}

/// Sleeps through the run and returns the `/metrics` counter deltas of
/// its measured window.
fn window_counters(serve: &Serve, origin: Instant, phases: Phases) -> CounterDelta {
    sleep_until(origin + phases.window_start());
    let before = serve.metrics_text();
    sleep_until(origin + phases.end());
    CounterDelta::new(&before, &serve.metrics_text())
}

/// What the open-loop sender hands the observer per arrival.
struct Sent {
    index: u64,
    due: Duration,
    late: Duration,
    id: Result<JobId, String>,
}

/// Sends job `i` at `arrival_due(i)` whether or not earlier jobs finished.
fn sender(
    addr: SocketAddr,
    opts: &RunOpts,
    origin: Instant,
    tx: Sender<Sent>,
) -> (Trace, Vec<String>) {
    let phases = opts.phases;
    let mut trace = Trace::new(origin, false);
    let mut errors = Vec::new();
    for index in 0.. {
        let due = arrival_due(index);
        if due >= phases.end() {
            break;
        }
        let body = job_spec(Workload::ServeMixed, opts.seed, index).to_json_string();
        trace.set_enabled(opts.trace && due >= phases.window_start());
        sleep_until(origin + due);
        let sent = Instant::now();
        let id = submit(addr, &body);
        trace.record(
            "http.submit",
            None,
            Some(index),
            (sent, Instant::now()),
            None,
        );
        let late = sent - (origin + due);
        if tx
            .send(Sent {
                index,
                due,
                late,
                id,
            })
            .is_err()
        {
            break;
        }
        if index.is_multiple_of(HEALTHZ_EVERY) {
            let span = trace.open("http.healthz", None, None);
            if span.is_some() {
                if let Err(e) = healthz(addr) {
                    errors.push(e);
                }
            }
            trace.close(span, None);
        }
    }
    (trace, errors)
}

/// What the open-loop observer saw.
#[derive(Default)]
struct Observed {
    finished: Vec<Finished>,
    errors: Vec<String>,
    /// (arrival due time, how late it was sent)
    late: Vec<(Duration, Duration)>,
    /// (time, jobs submitted and not yet terminal)
    outstanding: Vec<(Duration, usize)>,
}

/// Watches submitted jobs in-process and stamps each one terminal within
/// about a millisecond: `wait` wakes on every finished slice batch.
fn observer(
    runtime: &ServeRuntime,
    rx: Receiver<Sent>,
    rss: &RssProbe,
    origin: Instant,
    end: Duration,
) -> Observed {
    let mut seen = Observed::default();
    let mut waiting: Vec<(u64, JobId, Duration)> = Vec::new();
    let mut sender_done = false;
    let mut next_sample = Duration::ZERO;
    let take = |sent: Sent, seen: &mut Observed, waiting: &mut Vec<_>| {
        seen.late.push((sent.due, sent.late));
        match sent.id {
            Ok(id) => waiting.push((sent.index, id, sent.due)),
            Err(e) => seen.errors.push(e),
        }
    };
    loop {
        loop {
            match rx.try_recv() {
                Ok(sent) => take(sent, &mut seen, &mut waiting),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        let now = origin.elapsed();
        waiting.retain(|&(index, id, due)| {
            if !runtime.state(id).is_some_and(|s| s.is_terminal()) {
                return true;
            }
            rss.job_finished();
            seen.finished.push(Finished {
                index,
                id,
                start: due,
                end: now,
            });
            // A client would read the events; drop them so they do not pile up.
            if let Some(events) = runtime.events(id) {
                let _ = events.drain_lines();
            }
            false
        });
        if now >= next_sample {
            seen.outstanding.push((now, waiting.len()));
            next_sample = now + Duration::from_millis(100);
        }
        if sender_done && waiting.is_empty() {
            break;
        }
        if now > end + GRACE {
            for (_, id, _) in &waiting {
                seen.errors
                    .push(format!("{id} unfinished {GRACE:?} after the window"));
            }
            break;
        }
        match waiting.first() {
            Some(&(_, id, _)) => {
                runtime.wait(id, Duration::from_millis(1));
            }
            None => match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(sent) => take(sent, &mut seen, &mut waiting),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => sender_done = true,
            },
        }
    }
    seen
}

/// Least-squares slope of `(seconds, count)` points.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mx, my) = points
        .iter()
        .fold((0.0, 0.0), |(x, y), p| (x + p.0 / n, y + p.1 / n));
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in points {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// Open-loop validity: the generator kept to its schedule, and the
/// server kept up with it.
fn check_open_loop(m: &mut Measured, phases: &Phases, seen: &Observed) {
    let late = Sample::new(
        seen.late
            .iter()
            .filter(|(due, _)| *due >= phases.window_start())
            .map(|(_, late)| late.as_secs_f64() * 1e3)
            .collect(),
    );
    m.tail("loadgen.late_ms_p99", &late, 0.99, "ms");
    match late.tail(0.99) {
        Some(p99) if p99 > LATE_LIMIT_MS => m.invalid.push(format!(
            "load generator ran {p99:.2} ms late (p99), limit {LATE_LIMIT_MS} ms"
        )),
        Some(_) => {}
        None => eprintln!("benchmark: too few arrivals for the lateness check"),
    }
    let span = BACKLOG_SPAN.min(phases.window / 2);
    let tail_start = phases.end() - span;
    let points: Vec<(f64, f64)> = seen
        .outstanding
        .iter()
        .filter(|(t, _)| *t >= tail_start && *t <= phases.end())
        .map(|(t, n)| (t.as_secs_f64(), *n as f64))
        .collect();
    let growth = slope(&points);
    if growth > BACKLOG_SLOPE {
        m.invalid.push(format!(
            "backlog grows by {growth:.2} jobs/s over the last {span:?} of the window"
        ));
    }
    let max = seen.outstanding.iter().map(|(_, n)| *n).max().unwrap_or(0);
    m.add(
        "loadgen.outstanding_max",
        max as f64,
        "count",
        seen.outstanding.len(),
    );
}

/// `serve-mixed`: one open-loop sender on a fixed schedule, one observer.
pub fn open_loop(opts: &RunOpts) -> Result<Measured, String> {
    let workload = Workload::ServeMixed;
    let mut m = Measured::default();
    let setup = setup_times(workload, opts.seed, &opts.run_dir)?;
    m.median("setup_s", &setup, "s");
    let (serve, addr) = start_server(&opts.run_dir.join("spool"))?;
    let runtime = serve.runtime();
    let rss = RssProbe::new(workload);
    let origin = Instant::now();
    let phases = opts.phases;
    let (sent, seen, counters) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let sending = scope.spawn(move || sender(addr, opts, origin, tx));
        let observing = scope.spawn(|| observer(&runtime, rx, &rss, origin, phases.end()));
        let counters = window_counters(&serve, origin, phases);
        let sent = sending.join().expect("sender thread panicked");
        let seen = observing.join().expect("observer thread panicked");
        (sent, seen, counters)
    });
    rss.report(&mut m);
    let (sender_trace, sender_errors) = sent;
    m.attempted = seen.late.len() as u64;
    sender_errors
        .iter()
        .chain(&seen.errors)
        .for_each(|e| m.fail(e));
    check_open_loop(&mut m, &phases, &seen);
    let mut finished = seen.finished;
    finished.sort_by_key(|f| f.index);
    check_results(&mut m, &serve, workload, opts.seed, &finished);
    let mut observer_trace = Trace::new(origin, opts.trace);
    for f in finished.iter().filter(|f| phases.in_window(f.start)) {
        let bounds = (origin + f.start, origin + f.end);
        observer_trace.record("job", None, Some(f.index), bounds, None);
    }
    let load = Load {
        origin,
        finished,
        counters,
        traces: vec![sender_trace, observer_trace],
    };
    summarize(&mut m, &serve, workload, opts, load)?;
    serve.shutdown();
    Ok(m)
}
