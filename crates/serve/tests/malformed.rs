//! Deterministic malformed-input suite for the serve wire surface.
//!
//! Two layers are attacked: the JSON codec in `protocol` (truncated
//! records, absurd nesting and lengths — every case must come back as a
//! typed error, never a panic or a stack overflow), the HTTP front end
//! (invalid UTF-8 bodies, oversized `Content-Length` rejected `413`
//! before the body is read, the health/readiness/drain surface), and the
//! spool (frames of an older format are reported, never fatal).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use pga_core::snapshot::SnapshotWriter;
use pga_serve::protocol::Json;
use pga_serve::{
    build_engine, Budget, EngineSpec, JobId, JobProgress, JobRecord, JobSpec, JobState,
    ProblemSpec, Serve, ServeBuilder, Spool,
};

const WAIT: Duration = Duration::from_secs(60);

/// A canonical valid spec, produced by the encoder itself so the wire
/// shape can never drift out from under the truncation sweep.
fn valid_spec() -> String {
    JobSpec {
        tenant: "acme".into(),
        problem: ProblemSpec::onemax(32),
        engine: EngineSpec::ga(16, 1),
        seed: 7,
        budget: Budget {
            generations: Some(10),
            ..Budget::default()
        },
    }
    .to_json_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pga-serve-mal-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Protocol layer
// ---------------------------------------------------------------------

#[test]
fn every_truncation_of_a_valid_spec_is_a_typed_error() {
    let valid = valid_spec();
    assert!(JobSpec::from_json_str(&valid).is_ok());
    for cut in 0..valid.len() {
        let prefix = &valid[..cut];
        assert!(
            JobSpec::from_json_str(prefix).is_err(),
            "truncation at byte {cut} parsed: {prefix:?}"
        );
    }
}

#[test]
fn absurd_nesting_is_bounded_not_a_stack_overflow() {
    // 100k opening brackets would previously recurse 100k frames deep.
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let deep = open.repeat(100_000);
        let err = Json::parse(&deep).expect_err("unterminated nesting");
        assert!(
            err.to_string().contains("nesting deeper"),
            "expected a depth error, got: {err}"
        );
        // Balanced-but-deep documents fail the same way.
        let balanced = format!("{}0{}", open.repeat(100), close.repeat(100));
        assert!(Json::parse(&balanced).is_err());
    }
    // Documents inside the bound still parse.
    let shallow = format!("{}0{}", "[".repeat(32), "]".repeat(32));
    assert!(Json::parse(&shallow).is_ok());
}

#[test]
fn absurd_literals_are_rejected_not_trusted() {
    // A 10 MB unterminated string.
    let long = format!("\"{}", "x".repeat(10 << 20));
    assert!(Json::parse(&long).is_err());
    // Numbers that do not fit a finite f64, and garbage after a value.
    for text in ["1e999999999", "-", "0x10", "1 2", "nulll", "\u{0}"] {
        assert!(Json::parse(text).is_err(), "accepted {text:?}");
    }
    // A spec whose fields are the wrong shapes entirely.
    for text in [
        "[]",
        "42",
        r#"{"tenant":7,"problem":{"kind":"onemax","len":32},"engine":{"family":"ga","pop":16},"seed":1,"budget":{"generations":1}}"#,
        r#"{"tenant":"t","problem":[],"engine":{"family":"ga","pop":16},"seed":1,"budget":{"generations":1}}"#,
        r#"{"tenant":"t","problem":{"kind":"onemax","len":32},"engine":{"family":"ga","pop":16},"seed":1,"budget":{}}"#,
    ] {
        assert!(JobSpec::from_json_str(text).is_err(), "accepted {text:?}");
    }
}

// ---------------------------------------------------------------------
// HTTP layer
// ---------------------------------------------------------------------

struct Response {
    code: u16,
    headers: HashMap<String, String>,
    body: String,
}

/// Minimal raw client: writes `payload` verbatim, reads to close.
fn raw(addr: std::net::SocketAddr, payload: &[u8]) -> Response {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(WAIT)).expect("timeout");
    conn.write_all(payload).expect("request written");
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

fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &[u8]) -> Response {
    let mut payload = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    payload.extend_from_slice(body);
    raw(addr, &payload)
}

fn start(dir: &PathBuf, cap: usize) -> (Serve, std::net::SocketAddr) {
    let serve = ServeBuilder::new()
        .spool_dir(dir)
        .max_body_bytes(cap)
        .bind("127.0.0.1:0")
        .build()
        .expect("server starts");
    let addr = serve.http_addr().expect("bound");
    (serve, addr)
}

#[test]
fn oversized_content_length_is_rejected_413_before_the_body() {
    let dir = temp_dir("cap");
    let (serve, addr) = start(&dir, 256);
    // Claim a giant body but never send it: the server must answer from
    // the headers alone instead of waiting for (or buffering) the body.
    let huge =
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 10000000000\r\nConnection: close\r\n\r\n";
    let resp = raw(addr, huge.as_bytes());
    assert_eq!(resp.code, 413, "{}", resp.body);
    assert!(resp.body.contains("cap"), "{}", resp.body);
    // Just over the configured cap: also 413.
    let body = vec![b'x'; 257];
    assert_eq!(request(addr, "POST", "/jobs", &body).code, 413);
    // Under the cap: the body is read and judged on its merits (400 —
    // it is not a job spec).
    let small = vec![b'x'; 10];
    assert_eq!(request(addr, "POST", "/jobs", &small).code, 400);
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_utf8_and_malformed_bodies_get_400() {
    let dir = temp_dir("utf8");
    let (serve, addr) = start(&dir, 1 << 20);
    let valid = valid_spec();
    let resp = request(addr, "POST", "/jobs", &[0xff, 0xfe, 0x80, 0x80]);
    assert_eq!(resp.code, 400);
    assert!(resp.body.contains("UTF-8"), "{}", resp.body);
    for bad in [
        &b"{"[..],
        &b"[[[[[[[["[..],
        &b"{\"tenant\":}"[..],
        &valid.as_bytes()[..valid.len() - 1],
    ] {
        assert_eq!(request(addr, "POST", "/jobs", bad).code, 400);
    }
    // A valid spec still goes through after all that abuse.
    assert_eq!(request(addr, "POST", "/jobs", valid.as_bytes()).code, 201);
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_ready_and_drain_surface() {
    let dir = temp_dir("health");
    let (serve, addr) = start(&dir, 1 << 20);
    let health = request(addr, "GET", "/healthz", b"");
    assert_eq!(health.code, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    assert!(
        health.body.contains("\"degraded\":false"),
        "{}",
        health.body
    );
    assert_eq!(
        health.headers.get("content-type").map(String::as_str),
        Some("application/json")
    );
    let ready = request(addr, "GET", "/readyz", b"");
    assert_eq!(ready.code, 200);
    assert!(ready.body.contains("\"ready\":true"));

    // Admit a job, then drain over the wire: admission closes, the job
    // is persisted, readiness flips.
    let valid = valid_spec();
    assert_eq!(request(addr, "POST", "/jobs", valid.as_bytes()).code, 201);
    let drain = request(addr, "POST", "/drain", b"");
    assert_eq!(drain.code, 200);
    assert!(drain.body.contains("\"persisted\":"), "{}", drain.body);
    let ready = request(addr, "GET", "/readyz", b"");
    assert_eq!(ready.code, 503);
    assert!(ready.body.contains("\"ready\":false"));
    let shed = request(addr, "POST", "/jobs", valid.as_bytes());
    assert_eq!(shed.code, 503, "draining server admits nothing");
    // Health stays 200 while draining — the pool is alive.
    assert_eq!(request(addr, "GET", "/healthz", b"").code, 200);
    // Wrong methods on the new routes are 405, not 404.
    assert_eq!(request(addr, "POST", "/healthz", b"").code, 405);
    assert_eq!(request(addr, "GET", "/drain", b"").code, 405);
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Spool layer
// ---------------------------------------------------------------------

/// `payload` serialized in the PGAS version-1 layout: the current layout
/// with version byte 1 and a bytewise 64-bit FNV-1a trailer.
fn pgas_v1(tag: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    for b in *b"PGAS" {
        w.put_u8(b);
    }
    w.put_u8(1);
    w.put_str(tag);
    w.put_bytes(payload);
    let mut bytes = w.into_bytes();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in &bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    bytes.extend_from_slice(&h.to_le_bytes());
    bytes
}

/// Job `id`'s frame as spool version 2 wrote it: a queued record in a
/// PGAS version-1 container that embeds the engine's version-1 snapshot.
fn old_layout_frame(id: u64, spec: &JobSpec) -> Vec<u8> {
    let snapshot = build_engine(spec, None).expect("spec builds").snapshot();
    let mut w = SnapshotWriter::new();
    w.put_u8(2);
    w.put_u64(id);
    w.put_str(&spec.to_json_string());
    w.put_u8(0);
    // slices, steps, consumed, retries, generations, evaluations
    for _ in 0..6 {
        w.put_u64(0);
    }
    w.put_f64(0.0);
    w.put_bool(false);
    w.put_bool(true);
    w.put_bytes(&pgas_v1(snapshot.engine_tag(), snapshot.payload()));
    let container = pgas_v1("serve-job", &w.into_bytes());
    let mut frame = b"PGJF".to_vec();
    frame.extend_from_slice(&id.to_le_bytes());
    frame.extend_from_slice(&(container.len() as u32).to_le_bytes());
    frame.extend_from_slice(&container);
    frame
}

/// Job `id`'s frame in the current spool layout, except that its nested
/// engine snapshot carries PGAS version byte 2: the layout before the
/// run-ledger block led every ledger engine's payload. The header check
/// rejects it before its checksum is read.
fn nested_v2_frame(dir: &Path, id: u64, spec: &JobSpec) -> Vec<u8> {
    let engine = build_engine(spec, None).expect("spec builds");
    let snapshot = engine.snapshot();
    let nested_len = snapshot.to_bytes().len();
    let progress = engine.progress(Duration::ZERO);
    let record = JobRecord {
        id: JobId(id),
        spec: spec.clone(),
        state: JobState::Queued,
        slices: 0,
        steps: 0,
        consumed: Duration::ZERO,
        retries: 0,
        progress: JobProgress {
            generations: progress.generations,
            evaluations: progress.evaluations,
            best_fitness: progress.best_fitness,
            best_is_optimal: progress.best_is_optimal,
        },
        engine_snapshot: Some(snapshot),
    };
    let scratch = dir.with_extension(format!("frame-{id}"));
    Spool::open(&scratch)
        .expect("scratch spool opens")
        .save(&record)
        .expect("frame saved");
    let mut frame = std::fs::read(scratch.join("spool-0")).expect("frame read");
    let _ = std::fs::remove_dir_all(&scratch);
    let version_at = frame.len() - nested_len + 4;
    assert_eq!(frame[version_at], 3, "the nested snapshot ends the frame");
    frame[version_at] = 2;
    frame
}

#[test]
fn frames_of_an_older_spool_version_are_skipped_per_job_and_the_server_gets_ready() {
    let dir = temp_dir("old-frames");
    std::fs::create_dir_all(&dir).expect("spool dir");
    let engines = [
        EngineSpec::ga(16, 1),
        EngineSpec::island(3, 8),
        EngineSpec::cga(31),
    ];
    let mut segment = Vec::new();
    for (id, engine) in (1..).zip(engines) {
        let spec = JobSpec {
            tenant: "old".into(),
            problem: ProblemSpec::onemax(32),
            engine,
            seed: id,
            budget: Budget {
                generations: Some(10),
                ..Budget::default()
            },
        };
        segment.extend(old_layout_frame(id, &spec));
    }
    // A current frame whose engine snapshot predates the ledger block.
    let spec = JobSpec {
        tenant: "old".into(),
        problem: ProblemSpec::onemax(32),
        engine: EngineSpec::ga(16, 1),
        seed: 4,
        budget: Budget {
            generations: Some(10),
            ..Budget::default()
        },
    };
    segment.extend(nested_v2_frame(&dir, 4, &spec));
    std::fs::write(dir.join("spool-0"), &segment).expect("segment written");

    let scan = Spool::open(&dir)
        .expect("spool opens")
        .load_all()
        .expect("scan never fails on bad frames");
    assert!(scan.records.is_empty());
    assert_eq!(scan.skipped.len(), 4, "one report per job");
    for skipped in &scan.skipped {
        assert!(skipped.message.contains("BadHeader"), "{}", skipped.message);
    }
    assert!(
        scan.skipped
            .iter()
            .any(|s| s.message.contains("bad engine snapshot")),
        "the nested version-2 snapshot is the reported fault"
    );

    let (serve, addr) = start(&dir, 1 << 20);
    let report = serve.recover_report();
    assert_eq!((report.resumed, report.skipped), (0, 4));
    let ready = request(addr, "GET", "/readyz", b"");
    assert_eq!(ready.code, 200);
    assert!(ready.body.contains("\"ready\":true"));
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
