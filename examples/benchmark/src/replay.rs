//! Replays jobs through the same public calls the scheduler makes for
//! them, so a traced run can split a job's service time into layers:
//! parse → build → (`poll_step` × allowance → `snapshot` + `to_bytes` →
//! `Spool::save`) × slices.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use pga_core::driver::Clock;
use pga_core::{Progress, Snapshot};
use pga_observe::JsonlStream;
use pga_serve::{build_engine, JobId, JobProgress, JobRecord, JobSpec, JobState, Spool};

use crate::trace::{Spans, Trace};

/// Steps per slice: the server's default slice and DRR quantum.
const ALLOWANCE: u64 = 8;
/// Slices replayed per job at most; every serve job finishes within it.
const MAX_SLICES: u64 = 16;

/// What a replay covers: the whole served path, or only building and
/// stepping (for runs that never touch the wire or the spool).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Served,
    EngineOnly,
}

/// The span name of one `poll_step` of `family`.
pub fn poll_span(family: &str) -> String {
    format!("engine.{family}.poll")
}

/// Replays `specs` (job ids are their indices) into `trace`, spooling
/// into `spool_dir` on the served path.
pub fn replay(
    trace: &mut Trace,
    specs: &[(u64, JobSpec)],
    spool_dir: &Path,
    scope: Scope,
) -> Result<(), String> {
    let spool = match scope {
        Scope::Served => Some(Spool::open(spool_dir).map_err(|e| format!("replay spool: {e}"))?),
        Scope::EngineOnly => None,
    };
    for (id, spec) in specs {
        let job = Some(*id);
        let root = trace.open("replay.job", None, job);
        let spec = if scope == Scope::Served {
            let text = spec.to_json_string();
            let span = trace.open("protocol.parse", root, job);
            let parsed = JobSpec::from_json_str(&text).map_err(|e| format!("parse: {e}"))?;
            trace.close(span, None);
            parsed
        } else {
            spec.clone()
        };
        let termination = spec
            .budget
            .to_termination()
            .map_err(|e| format!("budget: {e}"))?;
        // Served jobs stream their events, as the server's jobs do.
        let stream = (scope == Scope::Served).then(|| JsonlStream::with_capacity(1 << 16));
        let span = trace.open("factory.build", root, job);
        let mut engine = build_engine(&spec, stream.clone()).map_err(|e| format!("build: {e}"))?;
        trace.close(span, None);
        let poll_name = poll_span(spec.engine.family());
        let mut consumed = Duration::ZERO;
        engine.record_run_started();
        for slice in 0..MAX_SLICES {
            let slice_span = trace.open("replay.slice", root, job);
            let started = Instant::now();
            let mut done = false;
            // The scheduler's check-then-poll loop (see `run_slice`).
            for _ in 0..ALLOWANCE {
                let elapsed = match engine.clock() {
                    Clock::Wall => consumed + started.elapsed(),
                    Clock::Virtual(simulated) => simulated,
                };
                if termination.check(&engine.progress(elapsed)).is_some() || engine.halted() {
                    done = true;
                    break;
                }
                let span = trace.open(&poll_name, slice_span, job);
                let poll = engine.poll_step();
                trace.close(span, Some(poll.folded));
                if poll.folded == 0 && poll.report.is_none() {
                    break;
                }
            }
            consumed += started.elapsed();
            if let Some(spool) = &spool {
                let span = trace.open("snapshot.encode", slice_span, job);
                let snapshot = engine.snapshot();
                let bytes = snapshot.to_bytes().len() as u64;
                trace.close(span, Some(bytes));
                let progress = engine.progress(consumed);
                let state = JobState::Running;
                let record = job_record(*id, &spec, state, slice + 1, &progress, snapshot);
                let span = trace.open("spool.save", slice_span, job);
                spool
                    .save(&record)
                    .map_err(|e| format!("spool save: {e}"))?;
                trace.close(span, Some(dir_bytes(spool_dir)));
                spool
                    .remove(record.id)
                    .map_err(|e| format!("spool remove: {e}"))?;
            }
            trace.close(slice_span, None);
            if let Some(stream) = &stream {
                let _ = stream.drain_lines();
            }
            if done {
                break;
            }
        }
        trace.close(root, None);
    }
    Ok(())
}

/// The spool record of job `id` after `slices` slices, as the scheduler
/// writes it.
pub fn job_record(
    id: u64,
    spec: &JobSpec,
    state: JobState,
    slices: u64,
    p: &Progress,
    snapshot: Snapshot,
) -> JobRecord {
    JobRecord {
        id: JobId(id),
        spec: spec.clone(),
        state,
        slices,
        steps: p.generations,
        consumed: p.elapsed,
        retries: 0,
        progress: JobProgress {
            generations: p.generations,
            evaluations: p.evaluations,
            best_fitness: p.best_fitness,
            best_is_optimal: p.best_is_optimal,
        },
        engine_snapshot: Some(snapshot),
    }
}

/// Bytes of the files in `dir` (the one record a replay keeps there).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Median replayed service time (ms) of each job configuration: the
/// spec with its tenant and seed blanked, so jobs that differ only in
/// those share a key.
pub fn service_ms_by_config(spans: &Spans, specs: &[(u64, JobSpec)]) -> BTreeMap<String, f64> {
    let families: Vec<String> = specs
        .iter()
        .map(|(_, s)| poll_span(s.engine.family()))
        .collect();
    let mut names: Vec<&str> = families.iter().map(String::as_str).collect();
    names.extend(["snapshot.encode", "spool.save"]);
    let by_job = spans.self_ns_by_job(&names);
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (job, spec) in specs {
        if let Some(&ns) = by_job.get(job) {
            samples
                .entry(config_key(spec))
                .or_default()
                .push(ns as f64 / 1e6);
        }
    }
    samples
        .into_iter()
        .filter_map(|(key, v)| Some((key, crate::stats::Sample::new(v).median()?)))
        .collect()
}

pub fn config_key(spec: &JobSpec) -> String {
    let mut spec = spec.clone();
    spec.tenant = "-".into();
    spec.seed = 0;
    spec.to_json_string()
}
