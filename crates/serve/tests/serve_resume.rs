//! End-to-end tests of the GA-as-a-service runtime: crash-safe resume
//! (the tentpole guarantee — a hard-dropped server recovers every
//! in-flight job **bit-identically**), admission control, per-tenant
//! fairness, cooperative cancel, and the HTTP wire surface.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pga_core::Driver;
use pga_serve::factory::build_engine;
use pga_serve::{
    Budget, EngineSpec, JobId, JobSpec, JobState, ProblemSpec, Serve, ServeBuilder, Spool,
    SubmitError,
};

const WAIT: Duration = Duration::from_secs(120);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pga-serve-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(tenant: &str, seed: u64, engine: EngineSpec, generations: u64) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        problem: ProblemSpec::onemax(48),
        engine,
        seed,
        budget: Budget {
            generations: Some(generations),
            ..Budget::default()
        },
    }
}

/// Every wire-buildable engine family, one job each.
fn family_specs(generations: u64) -> Vec<JobSpec> {
    vec![
        spec("alpha", 11, EngineSpec::ga(24, 1), generations),
        spec("alpha", 12, EngineSpec::steady(24), generations),
        spec("beta", 13, EngineSpec::cellular(5, 5), generations),
        spec("beta", 14, EngineSpec::island(3, 12), generations),
        // Barrier-free asynchronous family: folds arrive under a virtual
        // clock, so spool resume must also restore in-flight work.
        spec("gamma", 15, EngineSpec::async_steady(20, 4), generations),
        // Compact family: the snapshot is a probability vector + RNG, so
        // crash-resume must restore the model bit-for-bit.
        spec("gamma", 16, EngineSpec::cga(63), generations),
        // Sharded compact family: per-node RNG streams and a virtual
        // clock ride along in the snapshot.
        spec("delta", 17, EngineSpec::pcga(63, 6), generations),
    ]
}

/// The reference result: the same spec driven, uninterrupted, by the
/// core generic driver. Returns (best fitness bits, final snapshot).
fn reference_run(spec: &JobSpec) -> (u64, Vec<u8>) {
    let mut engine = build_engine(spec, None).expect("reference engine builds");
    let termination = spec.budget.to_termination().expect("bounded budget");
    let outcome = Driver::new(termination)
        .run(engine.as_mut())
        .expect("reference run completes");
    (outcome.best_fitness.to_bits(), engine.snapshot().to_bytes())
}

#[test]
fn hard_dropped_server_resumes_every_job_bit_identically() {
    let dir = temp_dir("resume");
    // A budget no fast slice loop can finish before the poll below sees
    // every job at generation 4, so the crash always lands mid-run.
    let budget = 400;
    let specs = family_specs(budget);

    // First server: admit everything, then crash mid-flight.
    let first = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(4)
        .quantum_steps(4)
        .build()
        .expect("first server starts");
    let ids: Vec<JobId> = specs
        .iter()
        .map(|s| first.submit(s.clone()).expect("admitted"))
        .collect();
    // Let every job make partial progress (≥ 1 slice, < full budget).
    let deadline = Instant::now() + WAIT;
    loop {
        let progressed = ids
            .iter()
            .all(|&id| first.progress_of(id).is_some_and(|p| p.generations >= 4));
        if progressed {
            break;
        }
        assert!(Instant::now() < deadline, "jobs never progressed");
        std::thread::sleep(Duration::from_millis(2));
    }
    first.abandon(); // kill -9 at a slice boundary: in-flight batch lost

    // Second server over the same spool: must resume all four.
    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(4)
        .quantum_steps(4)
        .build()
        .expect("second server starts");
    let report = second.recover_report().clone();
    assert_eq!(
        report.resumed,
        specs.len(),
        "all in-flight jobs re-admitted"
    );
    assert_eq!(report.skipped, 0, "no spool corruption");
    assert!(second.wait_all(WAIT), "recovered jobs finish");

    // Each recovered job's result must be bit-identical to an
    // uninterrupted run of the same spec.
    for (spec, id) in specs.iter().zip(&ids) {
        let (ref_bits, ref_snapshot) = reference_run(spec);
        let progress = second.progress_of(*id).expect("job known after restart");
        assert_eq!(
            progress.best_fitness.to_bits(),
            ref_bits,
            "best fitness diverged for {spec:?}"
        );
        assert_eq!(progress.generations, budget, "full budget consumed exactly");
        assert_eq!(
            second.state(*id),
            Some(JobState::Done(pga_core::StopReason::MaxGenerations))
        );
        // Strongest form: the final engine state in the spool is
        // byte-for-byte the uninterrupted engine's state.
        let scan = Spool::open(&dir)
            .expect("spool reopens")
            .load_all()
            .expect("scan");
        let record = scan
            .records
            .iter()
            .find(|r| r.id == *id)
            .expect("terminal record retained");
        let snapshot = record
            .engine_snapshot
            .as_ref()
            .expect("final snapshot persisted");
        assert_eq!(
            snapshot.to_bytes(),
            ref_snapshot,
            "final engine state diverged for {spec:?}"
        );
    }
    second.shutdown();

    // Third server: terminal jobs survive as status tombstones.
    let third = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("third server");
    assert_eq!(third.recover_report().terminal, specs.len());
    assert_eq!(third.recover_report().resumed, 0);
    for id in &ids {
        let doc = third.status_json(*id).expect("status retained");
        assert!(doc.contains("\"state\":\"done\""), "{doc}");
    }
    third.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_restart_mid_run_is_also_bit_identical() {
    let dir = temp_dir("graceful");
    // A budget no fast slice loop can finish before the poll below sees
    // generation 2, so the restart always finds the job mid-run.
    let spec = spec("solo", 77, EngineSpec::island(3, 12), 3_000);
    let first = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(2)
        .quantum_steps(2)
        .build()
        .expect("server starts");
    let id = first.submit(spec.clone()).expect("admitted");
    let deadline = Instant::now() + WAIT;
    while first.progress_of(id).is_none_or(|p| p.generations < 2) {
        assert!(Instant::now() < deadline, "job never progressed");
        std::thread::sleep(Duration::from_millis(1));
    }
    first.shutdown();

    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("restart");
    assert_eq!(second.recover_report().resumed, 1);
    assert!(second.wait(id, WAIT));
    let (ref_bits, _) = reference_run(&spec);
    let progress = second.progress_of(id).expect("known");
    assert_eq!(progress.best_fitness.to_bits(), ref_bits);
    assert_eq!(progress.generations, 3_000);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submissions_past_the_job_cap_are_shed_and_readmitted_later() {
    let dir = temp_dir("shed");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .max_jobs(2)
        .retry_after_ms(1500)
        .build()
        .expect("server starts");
    let a = serve
        .submit(spec("t", 1, EngineSpec::ga(16, 1), 2000))
        .expect("first admitted");
    let b = serve
        .submit(spec("t", 2, EngineSpec::ga(16, 1), 2000))
        .expect("second admitted");
    // At the cap: the third submission is shed with the retry hint.
    match serve.submit(spec("t", 3, EngineSpec::ga(16, 1), 10)) {
        Err(SubmitError::Shed { retry_after_ms }) => assert_eq!(retry_after_ms, 1500),
        other => panic!("expected shed, got {other:?}"),
    }
    assert!(serve.metrics_text().contains("serve.shed 1\n"));
    // Free capacity and retry: admitted.
    assert!(serve.cancel(a));
    assert!(serve.wait(a, WAIT));
    let c = serve
        .submit(spec("t", 3, EngineSpec::ga(16, 1), 10))
        .expect("admitted after capacity freed");
    assert!(serve.wait(c, WAIT));
    assert!(serve.cancel(b));
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_hog_tenant_cannot_starve_a_late_small_tenant() {
    let dir = temp_dir("fair");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .max_jobs(64)
        .steps_per_slice(4)
        .quantum_steps(4)
        .build()
        .expect("server starts");
    // The hog floods first: 12 long jobs.
    let hog_ids: Vec<JobId> = (0..12)
        .map(|i| {
            serve
                .submit(spec("hog", 100 + i, EngineSpec::ga(16, 1), 400))
                .expect("hog admitted")
        })
        .collect();
    // The small tenant arrives after the flood with 2 short jobs.
    let small_ids: Vec<JobId> = (0..2)
        .map(|i| {
            serve
                .submit(spec("small", 200 + i, EngineSpec::ga(16, 1), 40))
                .expect("small admitted")
        })
        .collect();
    // Under DRR the small tenant's 80 steps share the server fairly
    // with the hog's 4800: both small jobs must finish while the hog
    // still has work outstanding — i.e. the flood cannot starve them.
    for id in &small_ids {
        assert!(serve.wait(*id, WAIT), "small tenant starved");
    }
    let hog_unfinished = hog_ids
        .iter()
        .filter(|id| serve.state(**id).is_some_and(|s| !s.is_terminal()))
        .count();
    assert!(
        hog_unfinished > 0,
        "hog finished entirely before the small tenant — DRR not effective"
    );
    // Fairness ledger: both tenants were granted slices.
    let slices = serve.tenant_slices();
    assert!(slices["hog"] > 0 && slices["small"] > 0);
    assert!(serve.wait_all(WAIT), "hog eventually completes too");
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_interrupts_a_running_job_and_persists_the_cancellation() {
    let dir = temp_dir("cancel");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("server starts");
    let id = serve
        .submit(spec("t", 5, EngineSpec::ga(16, 1), 1_000_000))
        .expect("admitted");
    // Let it get going, then cancel.
    let deadline = Instant::now() + WAIT;
    while serve.progress_of(id).is_none_or(|p| p.generations == 0) {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(serve.cancel(id));
    assert!(serve.wait(id, WAIT));
    assert_eq!(serve.state(id), Some(JobState::Cancelled));
    assert!(
        !serve.cancel(id),
        "cancel is not repeatable on a terminal job"
    );
    let generations_at_cancel = serve.progress_of(id).expect("known").generations;
    assert!(generations_at_cancel < 1_000_000);
    serve.shutdown();
    // The cancellation is durable.
    let restarted = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("restart");
    assert_eq!(restarted.state(id), Some(JobState::Cancelled));
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// HTTP wire surface
// ---------------------------------------------------------------------

struct Response {
    code: u16,
    headers: HashMap<String, String>,
    body: String,
}

/// Minimal HTTP/1.1 client: one request, close-delimited read.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(WAIT)).expect("timeout");
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    let mut reader = BufReader::new(conn);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let mut headers = HashMap::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).expect("body");
    Response {
        code,
        headers,
        body,
    }
}

fn start_http_server(dir: &PathBuf, max_jobs: usize) -> (Serve, std::net::SocketAddr) {
    let serve = ServeBuilder::new()
        .spool_dir(dir)
        .max_jobs(max_jobs)
        .bind("127.0.0.1:0")
        .build()
        .expect("http server starts");
    let addr = serve.http_addr().expect("bound");
    (serve, addr)
}

#[test]
fn http_surface_submits_reports_streams_and_cancels() {
    let dir = temp_dir("http");
    let (serve, addr) = start_http_server(&dir, 8);

    // Submit a short job over the wire.
    let submit = http(
        addr,
        "POST",
        "/jobs",
        r#"{"tenant":"wire","problem":{"kind":"onemax","len":32},
           "engine":{"family":"ga","pop":16},"seed":9,"budget":{"generations":12}}"#,
    );
    assert_eq!(submit.code, 201, "{}", submit.body);
    assert!(submit.body.contains("\"id\":\"j0\""), "{}", submit.body);

    // The events endpoint streams JSONL until the job completes.
    let events = http(addr, "GET", "/jobs/j0/events", "");
    assert_eq!(events.code, 200);
    assert_eq!(
        events.headers.get("content-type").map(String::as_str),
        Some("application/x-ndjson")
    );
    let lines: Vec<&str> = events.body.lines().collect();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"kind\":\"generation_completed\"")),
        "no generation events in: {:?}",
        &lines[..lines.len().min(3)]
    );
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));

    // Status for the finished job.
    let status = http(addr, "GET", "/jobs/j0", "");
    assert_eq!(status.code, 200);
    assert!(
        status.body.contains("\"state\":\"done\""),
        "{}",
        status.body
    );
    assert!(
        status.body.contains("\"generations\":12"),
        "{}",
        status.body
    );

    // Unknown jobs and bad specs are typed failures.
    assert_eq!(http(addr, "GET", "/jobs/j99", "").code, 404);
    let bad = http(addr, "POST", "/jobs", r#"{"tenant":"x"}"#);
    assert_eq!(bad.code, 400);
    assert!(bad.body.contains("error"));

    // Cancel over the wire: submit a long job, then DELETE it.
    let long = http(
        addr,
        "POST",
        "/jobs",
        r#"{"tenant":"wire","problem":{"kind":"onemax","len":32},
           "engine":{"family":"ga","pop":16},"seed":10,"budget":{"generations":500000}}"#,
    );
    assert_eq!(long.code, 201);
    let cancel = http(addr, "DELETE", "/jobs/j1", "");
    assert_eq!(cancel.code, 200);
    assert!(cancel.body.contains("\"cancelled\":true"));
    // Once the cancellation lands (terminal state), a repeat DELETE
    // conflicts. A DELETE racing the in-flight slice may still get 200,
    // so wait for the state transition first.
    assert!(
        serve.wait(pga_serve::JobId(1), WAIT),
        "cancelled job never became terminal"
    );
    let second_cancel = http(addr, "DELETE", "/jobs/j1", "");
    assert_eq!(
        second_cancel.code, 409,
        "cancel of a terminal job conflicts"
    );

    // Metrics document includes runtime counters and live pool stats.
    let metrics = http(addr, "GET", "/metrics", "");
    assert_eq!(metrics.code, 200);
    assert!(
        metrics.body.contains("serve.submitted 2\n"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("pool.workers "), "{}", metrics.body);

    // The registry listing is wire-visible: every registered family and
    // problem shows up in GET /families.
    let families = http(addr, "GET", "/families", "");
    assert_eq!(families.code, 200);
    for name in [
        "\"ga\"",
        "\"steady\"",
        "\"cellular\"",
        "\"island\"",
        "\"async-steady\"",
        "\"cga\"",
        "\"pcga\"",
        "\"onemax\"",
        "\"trap\"",
    ] {
        assert!(families.body.contains(name), "{}", families.body);
    }

    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_sheds_with_retry_after_at_the_cap() {
    let dir = temp_dir("http-shed");
    let (serve, addr) = start_http_server(&dir, 1);
    let body = r#"{"tenant":"wire","problem":{"kind":"onemax","len":32},
        "engine":{"family":"ga","pop":16},"seed":1,"budget":{"generations":500000}}"#;
    assert_eq!(http(addr, "POST", "/jobs", body).code, 201);
    let shed = http(addr, "POST", "/jobs", body);
    assert_eq!(shed.code, 429);
    let retry_after: u64 = shed
        .headers
        .get("retry-after")
        .and_then(|v| v.parse().ok())
        .expect("Retry-After header");
    assert!(retry_after >= 1);
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
