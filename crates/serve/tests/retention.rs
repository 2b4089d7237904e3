//! Memory retention of the job runtime, read from the deterministic
//! `serve.retained_bytes` gauge: the checkpoint bytes plus undrained
//! event-line bytes it holds. Finished jobs keep only their status, so
//! the gauge must not grow with the number of jobs a server has run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pga_serve::{Budget, EngineSpec, JobId, JobSpec, ProblemSpec, Serve, ServeBuilder, Spool};

const WAIT: Duration = Duration::from_secs(120);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pga-serve-retention-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64, generations: u64) -> JobSpec {
    JobSpec {
        tenant: format!("t{}", seed % 4),
        problem: ProblemSpec::onemax(16),
        engine: EngineSpec::ga(8, 1),
        seed,
        budget: Budget {
            generations: Some(generations),
            ..Budget::default()
        },
    }
}

fn retained_bytes(serve: &Serve) -> usize {
    let text = serve.metrics_text();
    text.lines()
        .find_map(|line| line.strip_prefix("serve.retained_bytes "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("retained_bytes gauge exported") as usize
}

fn drained_bytes(serve: &Serve, id: JobId) -> usize {
    let stream = serve.events(id).expect("job known");
    stream.drain_lines().iter().map(String::len).sum()
}

#[test]
fn retained_bytes_count_live_checkpoints_and_undrained_events() {
    let dir = temp_dir("accounting");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(2)
        .quantum_steps(2)
        .build()
        .expect("server starts");
    // A job that cannot finish: after a drain it holds its checkpoint.
    let live = serve.submit(spec(1, 1_000_000)).expect("admitted");
    let deadline = Instant::now() + WAIT;
    while serve.progress_of(live).is_none_or(|p| p.generations < 2) {
        assert!(Instant::now() < deadline, "job never progressed");
        std::thread::sleep(Duration::from_millis(1));
    }
    serve.drain();
    let held = retained_bytes(&serve);
    let events = drained_bytes(&serve, live);
    assert!(events > 0, "a running ga records its generations");
    let checkpoint = retained_bytes(&serve);
    assert_eq!(held - events, checkpoint);
    // The checkpoint held is exactly the engine snapshot the drain spooled.
    let scan = Spool::open(&dir).expect("spool").load_all().expect("scan");
    let snapshot = scan.records[0].engine_snapshot.as_ref().expect("spooled");
    assert_eq!(checkpoint, snapshot.to_bytes().len());
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retained_bytes_do_not_grow_with_finished_jobs() {
    let dir = temp_dir("growth");
    // Several slices per job, so every job holds a checkpoint mid-run.
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .steps_per_slice(2)
        .quantum_steps(2)
        .build()
        .expect("server starts");
    let mut seed = 0u64;
    let mut run = |jobs: u64| {
        for _ in 0..jobs / 50 {
            let ids: Vec<JobId> = (0..50)
                .map(|_| {
                    seed += 1;
                    serve.submit(spec(seed, 6)).expect("admitted")
                })
                .collect();
            assert!(serve.wait_all(WAIT), "batch finishes");
            for id in ids {
                assert!(serve.state(id).is_some_and(|s| s.is_terminal()));
                drained_bytes(&serve, id);
            }
        }
        retained_bytes(&serve)
    };
    let after_200 = run(200);
    let after_2000 = run(1800);
    assert_eq!(after_200, after_2000);
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
