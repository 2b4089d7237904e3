//! Chaos-engineering integration tests: every fault is scripted by a
//! seeded [`ChaosPlan`], so each scenario is a deterministic replay —
//! the same plan injects the same faults at the same points every run.
//!
//! The invariants under test are the serve layer's availability
//! contract: healthy tenants finish **bit-identically** to a fault-free
//! run no matter what faults land around them; poison jobs are
//! quarantined after exactly the retry budget; spool faults degrade
//! (never kill) the server and clear on recovery; torn or corrupt spool
//! frames in any window, and a crash mid-compaction, never abort startup.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use pga_core::Driver;
use pga_serve::factory::build_engine;
use pga_serve::{
    Budget, ChaosPlan, EngineSpec, JobId, JobSpec, JobState, ProblemSpec, Serve, ServeBuilder,
    StormSpec,
};

const WAIT: Duration = Duration::from_secs(120);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pga-serve-chaos-{tag}-{}-{:?}",
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

/// Fault-free reference: the same spec driven by the core driver.
fn reference_bits(spec: &JobSpec) -> u64 {
    let mut engine = build_engine(spec, None).expect("reference engine builds");
    let termination = spec.budget.to_termination().expect("bounded budget");
    let outcome = Driver::new(termination)
        .run(engine.as_mut())
        .expect("reference run completes");
    outcome.best_fitness.to_bits()
}

fn counter(serve: &Serve, name: &str) -> u64 {
    let text = serve.metrics_text();
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

#[test]
fn poison_tenant_is_quarantined_after_exactly_the_retry_budget() {
    let dir = temp_dir("poison");
    let budget = 2;
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(4)
        .quantum_steps(4)
        .retry_budget(budget)
        .backoff_base_ms(1)
        .chaos(ChaosPlan::none().poison_tenant("evil"))
        .build()
        .expect("server starts");

    let healthy: Vec<(JobSpec, JobId)> = [
        spec("alpha", 21, EngineSpec::ga(24, 1), 30),
        spec("beta", 22, EngineSpec::island(3, 12), 30),
        spec("gamma", 23, EngineSpec::cga(63), 30),
    ]
    .into_iter()
    .map(|s| {
        let id = serve.submit(s.clone()).expect("admitted");
        (s, id)
    })
    .collect();
    let evil = serve
        .submit(spec("evil", 24, EngineSpec::ga(24, 1), 30))
        .expect("poison job is admitted like any other");

    assert!(serve.wait_all(WAIT), "pool drains despite the poison job");

    // Quarantine: terminal `poisoned` after exactly `budget` retries,
    // which means exactly `budget + 1` crashes — never more.
    assert!(
        matches!(serve.state(evil), Some(JobState::Poisoned(_))),
        "expected poisoned, got {:?}",
        serve.state(evil)
    );
    let doc = serve.status_json(evil).expect("status visible");
    assert!(doc.contains("\"state\":\"poisoned\""), "{doc}");
    assert!(doc.contains(&format!("\"retries\":{budget}")), "{doc}");
    assert_eq!(counter(&serve, "serve.poisoned"), 1);
    assert_eq!(counter(&serve, "serve.retries"), budget);
    assert_eq!(counter(&serve, "serve.slice_crashes"), budget + 1);
    assert_eq!(serve.health().poisoned, 1);

    // The job's event stream narrates the quarantine.
    let lines = serve.events(evil).expect("stream").drain_lines().join("\n");
    assert!(lines.contains("job_retried"), "{lines}");
    assert!(lines.contains("job_poisoned"), "{lines}");

    // Blast-radius contract: every healthy job is bit-identical to a
    // fault-free run — the poison tenant perturbed nothing.
    for (s, id) in &healthy {
        assert_eq!(
            serve.state(*id),
            Some(JobState::Done(pga_core::StopReason::MaxGenerations))
        );
        let progress = serve.progress_of(*id).expect("progress");
        assert_eq!(
            progress.best_fitness.to_bits(),
            reference_bits(s),
            "healthy job diverged under chaos: {s:?}"
        );
    }
    serve.shutdown();

    // The quarantine survives restart: the poisoned tombstone comes
    // back from the spool (record version 2, state tag `poisoned`).
    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("restart");
    assert_eq!(second.recover_report().skipped, 0);
    assert_eq!(second.recover_report().resumed, 0, "nothing left to run");
    let doc = second.status_json(evil).expect("tombstone retained");
    assert!(doc.contains("\"state\":\"poisoned\""), "{doc}");
    assert!(doc.contains(&format!("\"retries\":{budget}")), "{doc}");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spool_write_faults_degrade_then_recover_without_losing_the_run() {
    let dir = temp_dir("degrade");
    // Three consecutive write faults: one full persist_with_retry cycle
    // (3 attempts) fails end-to-end, flipping the degraded flag; the
    // next persist succeeds and clears it.
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(4)
        .quantum_steps(4)
        .chaos(
            ChaosPlan::none()
                .spool_write_error(0)
                .spool_write_error(1)
                .spool_write_error(2),
        )
        .build()
        .expect("server starts");
    let s = spec("solo", 31, EngineSpec::steady(24), 40);
    let id = serve.submit(s.clone()).expect("admitted");
    assert!(serve.wait(id, WAIT), "job finishes despite spool faults");

    assert_eq!(counter(&serve, "serve.spool_errors"), 3);
    // The final persist succeeded, so the flag has cleared.
    assert!(!serve.health().degraded, "degraded mode must clear");
    // The run itself was never perturbed: results are bit-identical.
    let progress = serve.progress_of(id).expect("progress");
    assert_eq!(progress.best_fitness.to_bits(), reference_bits(&s));
    // The degraded episode is narrated on the job's event stream —
    // one entering transition, one clearing transition.
    let lines = serve.events(id).expect("stream").drain_lines().join("\n");
    assert!(lines.contains("spool_degraded"), "{lines}");
    serve.shutdown();

    // The terminal state made it to disk once writes healed.
    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("restart");
    let doc = second.status_json(id).expect("terminal record on disk");
    assert!(doc.contains("\"state\":\"done\""), "{doc}");
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_reclassifies_a_stalled_slice_and_the_job_still_finishes() {
    let dir = temp_dir("stall");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(4)
        .quantum_steps(4)
        .retry_budget(3)
        .backoff_base_ms(1)
        .slice_deadline_ms(50)
        .chaos(ChaosPlan::none().slice_stall(0, Duration::from_millis(400)))
        .build()
        .expect("server starts");
    let s = spec("solo", 41, EngineSpec::ga(24, 1), 30);
    let id = serve.submit(s.clone()).expect("admitted");
    assert!(serve.wait(id, WAIT), "job finishes after the stall");

    assert!(
        counter(&serve, "serve.stalled") >= 1,
        "watchdog never fired"
    );
    assert!(counter(&serve, "serve.retries") >= 1, "stall cost a retry");
    // The stalled slice's work was discarded and replayed, so the
    // result is still bit-identical to the fault-free reference.
    assert_eq!(
        serve.state(id),
        Some(JobState::Done(pga_core::StopReason::MaxGenerations))
    );
    let progress = serve.progress_of(id).expect("progress");
    assert_eq!(progress.best_fitness.to_bits(), reference_bits(&s));
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Splits a spool segment into its frames (`[magic][job id][len]
/// [record]`, see `pga_serve::spool`), each with the job id it names.
fn frames(segment: &[u8]) -> Vec<(JobId, Vec<u8>)> {
    let mut out = Vec::new();
    let mut rest = segment;
    while rest.len() >= 16 {
        assert_eq!(&rest[..4], b"PGJF", "frame magic");
        let id = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(rest[12..16].try_into().expect("4 bytes")) as usize;
        let (frame, tail) = rest.split_at(16 + len);
        out.push((JobId(id), frame.to_vec()));
        rest = tail;
    }
    assert!(rest.is_empty(), "segment ends on a frame boundary");
    out
}

/// Every frame job `id` has in `frames`, in order, concatenated.
fn frames_of(frames: &[(JobId, Vec<u8>)], id: JobId) -> Vec<u8> {
    frames
        .iter()
        .filter(|(of, _)| *of == id)
        .flat_map(|(_, f)| f.clone())
        .collect()
}

/// The last frame of job `id` in `frames`.
fn last_frame_of(frames: &[(JobId, Vec<u8>)], id: JobId) -> Vec<u8> {
    frames
        .iter()
        .rev()
        .find(|(of, _)| *of == id)
        .map(|(_, f)| f.clone())
        .expect("job has a frame")
}

#[test]
fn torn_spool_writes_in_every_window_never_abort_startup() {
    let dir = temp_dir("torn");
    // Seed the spool with three legitimate terminal jobs.
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("server starts");
    let ids: Vec<JobId> = (51..54)
        .map(|seed| {
            serve
                .submit(spec("solo", seed, EngineSpec::ga(16, 1), 10))
                .expect("admitted")
        })
        .collect();
    assert!(serve.wait_all(WAIT));
    serve.shutdown();
    let (k1, k2, k3) = (ids[0], ids[1], ids[2]);

    // Re-lay the log as segments that hold every crash window.
    let all = frames(&std::fs::read(dir.join("spool-0")).expect("segment 0"));
    let corrupt = |mut frame: Vec<u8>| {
        let mid = frame.len() / 2;
        frame[mid] ^= 0xff;
        frame
    };
    let last1 = last_frame_of(&all, k1);
    let last3 = last_frame_of(&all, k3);
    // Segment 0: job 1's frames, intact.
    std::fs::write(dir.join("spool-0"), frames_of(&all, k1)).expect("write");
    // Segment 1: a bad magic, then a corrupt latest frame of job 1, and
    // only after both, every frame of job 2 — which must still be read.
    let mut segment = last_frame_of(&all, k2);
    segment[0] ^= 0xff;
    segment.extend(corrupt(last1));
    segment.extend(frames_of(&all, k2));
    std::fs::write(dir.join("spool-1"), segment).expect("write");
    // Segment 2: empty (created, crash before the first append).
    std::fs::write(dir.join("spool-2"), b"").expect("write");
    // Segment 3: a corrupt frame of job 3 superseded by its later good
    // frames, then a torn tail inside a frame header.
    let mut segment = corrupt(last3.clone());
    segment.extend(frames_of(&all, k3));
    segment.extend(&last3[..10]);
    std::fs::write(dir.join("spool-3"), segment).expect("write");
    // Segment 4: a torn tail inside a frame's record.
    std::fs::write(dir.join("spool-4"), &last3[..last3.len() / 2]).expect("write");

    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("startup survives every torn window");
    let report = second.recover_report();
    assert_eq!(
        report.skipped, 2,
        "the bad magic and job 1's unsuperseded corrupt frame are reported; \
         job 3's superseded one and both torn tails are not"
    );
    // Every job still recovered — job 1 from its last good frame — and
    // the server still works.
    assert_eq!(report.terminal, 3);
    for id in [k1, k2, k3] {
        let doc = second.status_json(id).expect("good record survived");
        assert!(doc.contains("\"state\":\"done\""), "{doc}");
    }
    let fresh = second
        .submit(spec("solo", 54, EngineSpec::ga(16, 1), 10))
        .expect("fresh work admitted");
    assert!(second.wait(fresh, WAIT));
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_compaction_loses_nothing_and_resumes_bit_identically() {
    let dir = temp_dir("mid-compaction");
    let short = spec("solo", 55, EngineSpec::ga(16, 1), 10);
    let long = spec("solo", 53, EngineSpec::ga(16, 1), 400);
    let first = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(2)
        .quantum_steps(2)
        .build()
        .expect("server starts");
    let done = first.submit(short.clone()).expect("admitted");
    assert!(first.wait(done, WAIT));
    let id = first.submit(long.clone()).expect("admitted");
    let deadline = std::time::Instant::now() + WAIT;
    while first.progress_of(id).is_none_or(|p| p.generations < 2) {
        assert!(std::time::Instant::now() < deadline, "job never progressed");
        std::thread::sleep(Duration::from_millis(1));
    }
    first.shutdown();

    // A compaction copies each job's latest frame into the next segment
    // and only then deletes the older ones. A crash mid-copy leaves the
    // complete old segment beside a partial new one.
    let all = frames(&std::fs::read(dir.join("spool-0")).expect("segment 0"));
    let latest = last_frame_of(&all, id);
    let mut partial = last_frame_of(&all, done);
    partial.extend(&latest[..latest.len() / 2]);
    std::fs::write(dir.join("spool-1"), partial).expect("write");

    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("restart");
    let report = second.recover_report();
    assert_eq!(report.resumed, 1, "mid-run job recovered");
    assert_eq!(report.terminal, 1, "finished job recovered");
    assert_eq!(report.skipped, 0, "the torn copy is a torn tail");
    assert!(second.wait(id, WAIT));
    for (s, job) in [(&short, done), (&long, id)] {
        let progress = second.progress_of(job).expect("known");
        assert_eq!(progress.best_fitness.to_bits(), reference_bits(s));
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_storm_leaves_every_healthy_tenant_bit_identical() {
    let dir = temp_dir("storm");
    let storm = StormSpec::default();
    let plan = ChaosPlan::storm(0xC4A05, &storm).poison_tenant("mallory");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(4)
        .quantum_steps(4)
        .retry_budget(3)
        .backoff_base_ms(1)
        .slice_deadline_ms(2_000)
        .chaos(plan)
        .build()
        .expect("server starts");

    let healthy: Vec<(JobSpec, JobId)> = [
        spec("alpha", 61, EngineSpec::ga(24, 1), 30),
        spec("alpha", 62, EngineSpec::steady(24), 30),
        spec("beta", 63, EngineSpec::cellular(5, 5), 30),
        spec("beta", 64, EngineSpec::island(3, 12), 30),
        spec("gamma", 65, EngineSpec::async_steady(20, 4), 30),
        spec("gamma", 66, EngineSpec::cga(63), 30),
        spec("delta", 67, EngineSpec::pcga(63, 6), 30),
    ]
    .into_iter()
    .map(|s| {
        let id = serve.submit(s.clone()).expect("admitted");
        (s, id)
    })
    .collect();
    let doomed = serve
        .submit(spec("mallory", 68, EngineSpec::ga(24, 1), 30))
        .expect("admitted");

    assert!(serve.wait_all(WAIT), "storm drains");
    assert!(matches!(serve.state(doomed), Some(JobState::Poisoned(_))));
    assert_eq!(counter(&serve, "serve.poisoned"), 1, "exactly one poisoned");
    for (s, id) in &healthy {
        assert_eq!(
            serve.state(*id),
            Some(JobState::Done(pga_core::StopReason::MaxGenerations)),
            "healthy job did not finish: {s:?}"
        );
        let progress = serve.progress_of(*id).expect("progress");
        assert_eq!(
            progress.best_fitness.to_bits(),
            reference_bits(s),
            "storm perturbed a healthy result: {s:?}"
        );
    }
    serve.shutdown();

    // Post-storm recovery on a clean (chaos-free) server. A torn
    // terminal write may have quarantined a record — bounded by the
    // scripted truncation count — and a failed terminal persist may
    // have left a *stale but valid* record, which simply resumes and
    // replays deterministically to the same answer.
    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .build()
        .expect("restart");
    assert!(
        second.recover_report().skipped <= storm.spool_truncations,
        "more corruption than the plan scripted: {:?}",
        second.recover_report()
    );
    assert!(second.wait_all(WAIT), "resumed stragglers finish");
    for (s, id) in &healthy {
        let Some(doc) = second.status_json(*id) else {
            continue; // terminal write torn: record quarantined, job forgotten
        };
        assert!(doc.contains("\"state\":\"done\""), "{doc}");
        if let Some(progress) = second.progress_of(*id) {
            assert_eq!(
                progress.best_fitness.to_bits(),
                reference_bits(s),
                "post-storm replay diverged: {s:?}"
            );
        }
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// HTTP connection-drop chaos
// ---------------------------------------------------------------------

/// Raw client that tolerates the server dropping the connection:
/// returns `None` when no status line ever arrives.
fn try_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Option<(u16, String)> {
    let mut conn = TcpStream::connect(addr).ok()?;
    conn.set_read_timeout(Some(WAIT)).ok()?;
    let mut payload = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    payload.extend_from_slice(body);
    conn.write_all(&payload).ok()?;
    let mut reader = BufReader::new(conn);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).ok()?;
    let code: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut headers = HashMap::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).ok()?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).ok()?;
    Some((code, body))
}

#[test]
fn dropped_connections_hit_only_the_scripted_request() {
    let dir = temp_dir("drop");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .bind("127.0.0.1:0")
        .chaos(ChaosPlan::none().drop_connection(0))
        .build()
        .expect("server starts");
    let addr = serve.http_addr().expect("bound");

    // The first connection is scripted to drop: no response at all.
    assert_eq!(
        try_request(addr, "GET", "/healthz", b""),
        None,
        "scripted connection should be severed before any response"
    );
    // The very next connection is served normally.
    let (code, body) = try_request(addr, "GET", "/healthz", b"").expect("second conn served");
    assert_eq!(code, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
