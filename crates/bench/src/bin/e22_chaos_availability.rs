//! E22 — chaos availability: the `pga-serve` job server under a seeded
//! fault storm (spool write errors, torn writes, slice panics, stalled
//! slices) plus scripted poison tenants whose every slice crashes.
//!
//! Claims checked (the availability contract from DESIGN.md §6):
//! 1. **Healthy-tenant availability ≥ 0.99** — every job from a healthy
//!    tenant completes its budget despite the storm, because crashed and
//!    stalled slices are discarded and replayed from the last good
//!    snapshot under a bounded retry budget.
//! 2. **Exactly-N quarantines** — poison faults are keyed by tenant, so
//!    precisely the scripted tenants reach the terminal `poisoned` state
//!    (after exactly `retry_budget` resurrections), and nothing else
//!    fails un-quarantined.
//! 3. **Bit-identical under chaos** — each healthy job's best fitness is
//!    bit-for-bit the fault-free reference (the same spec driven by the
//!    core driver), and a post-storm restart replays any stragglers to
//!    the same bits.
//!
//! Determinism: the storm is a pure function of (seed, `StormSpec`) —
//! index-keyed faults land wherever thread interleaving puts them, but
//! every invariant above is interleaving-independent by construction.
//!
//! Writes `results/BENCH_chaos.json` (full mode only), gated by
//! `scripts/verify.sh`; redirect stdout to
//! `results/e22_chaos_availability.txt`.

use pga_analysis::Table;
use pga_bench::emit;
use pga_core::Driver;
use pga_serve::factory::build_engine;
use pga_serve::{
    Budget, ChaosPlan, EngineSpec, JobId, JobSpec, JobState, ProblemSpec, Serve, ServeBuilder,
    StormSpec,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 0xCA05_ACE5;
const GENS: u64 = 30;
const WAIT: Duration = Duration::from_secs(120);
const RETRY_BUDGET: u64 = 3;

fn spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pga-e22-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One job per engine family for a tenant: the storm must leave every
/// execution model bit-identical, not just the generational GA.
fn family_jobs(tenant: &str, seed_base: u64) -> Vec<JobSpec> {
    [
        EngineSpec::ga(24, 1),
        EngineSpec::steady(24),
        EngineSpec::cellular(5, 5),
        EngineSpec::island(3, 12),
        EngineSpec::async_steady(20, 4),
        EngineSpec::cga(63),
        EngineSpec::pcga(63, 6),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, engine)| JobSpec {
        tenant: tenant.into(),
        problem: ProblemSpec::onemax(48),
        engine,
        seed: seed_base + i as u64,
        budget: Budget {
            generations: Some(GENS),
            ..Budget::default()
        },
    })
    .collect()
}

/// Fault-free reference bits for a spec: the core driver, no server.
fn reference_bits(spec: &JobSpec) -> u64 {
    let mut engine = build_engine(spec, None).expect("reference engine builds");
    let termination = spec.budget.to_termination().expect("bounded budget");
    let outcome = Driver::new(termination)
        .run(engine.as_mut())
        .expect("reference run completes");
    outcome.best_fitness.to_bits()
}

fn counter(serve: &Serve, name: &str) -> u64 {
    serve
        .metrics_snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

struct StormOutcome {
    healthy_total: usize,
    healthy_done: usize,
    bit_identical: usize,
    unquarantined_failures: usize,
    quarantined: usize,
    retries: u64,
    slice_crashes: u64,
    stalled: u64,
    spool_errors: u64,
    wall_ms: f64,
    fired_write_errors: u64,
    fired_truncations: u64,
    fired_panics: u64,
    fired_stalls: u64,
    recovery_skipped: usize,
    recovery_divergent: usize,
}

fn run_storm(healthy_tenants: usize, poison_tenants: usize, storm: &StormSpec) -> StormOutcome {
    let dir = spool(&format!("storm-{healthy_tenants}-{poison_tenants}"));
    let mut plan = ChaosPlan::storm(SEED, storm);
    let poison_names: Vec<String> = (0..poison_tenants).map(|p| format!("poison-{p}")).collect();
    for name in &poison_names {
        plan = plan.poison_tenant(name);
    }
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .max_jobs(256)
        .steps_per_slice(4)
        .quantum_steps(4)
        .retry_budget(RETRY_BUDGET)
        .backoff_base_ms(1)
        .slice_deadline_ms(2_000)
        .chaos(plan)
        .build()
        .expect("chaos server starts");

    let started = Instant::now();
    let mut healthy: Vec<(JobSpec, JobId)> = Vec::new();
    for t in 0..healthy_tenants {
        for spec in family_jobs(&format!("tenant-{t:02}"), 1_000 * (t as u64 + 1)) {
            let id = serve.submit(spec.clone()).expect("admitted");
            healthy.push((spec, id));
        }
    }
    let doomed: Vec<JobId> = poison_names
        .iter()
        .enumerate()
        .map(|(p, name)| {
            serve
                .submit(JobSpec {
                    tenant: name.clone(),
                    problem: ProblemSpec::onemax(48),
                    engine: EngineSpec::ga(24, 1),
                    seed: 9_000 + p as u64,
                    budget: Budget {
                        generations: Some(GENS),
                        ..Budget::default()
                    },
                })
                .expect("poison job admitted like any other")
        })
        .collect();
    assert!(serve.wait_all(WAIT), "storm did not drain in time");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut healthy_done = 0;
    let mut bit_identical = 0;
    let mut unquarantined_failures = 0;
    for (spec, id) in &healthy {
        match serve.state(*id) {
            Some(JobState::Done(_)) => {
                healthy_done += 1;
                let bits = serve
                    .progress_of(*id)
                    .expect("progress of a done job")
                    .best_fitness
                    .to_bits();
                if bits == reference_bits(spec) {
                    bit_identical += 1;
                }
            }
            Some(JobState::Failed(_) | JobState::Poisoned(_)) => unquarantined_failures += 1,
            other => panic!("healthy job neither done nor failed: {other:?}"),
        }
    }
    let quarantined = doomed
        .iter()
        .filter(|id| matches!(serve.state(**id), Some(JobState::Poisoned(_))))
        .count();

    let retries = counter(&serve, "serve.retries");
    let slice_crashes = counter(&serve, "serve.slice_crashes");
    let stalled = counter(&serve, "serve.stalled");
    let spool_errors = counter(&serve, "serve.spool_errors");
    let fired = serve
        .runtime()
        .chaos()
        .map(|c| c.counts())
        .expect("chaos injector present");
    serve.shutdown();

    // Post-storm recovery: a chaos-free server over the same spool.
    // Failed terminal persists leave stale-but-valid records (resumed
    // and replayed to the same bits); torn terminal writes quarantine
    // that record (bounded by the scripted truncation count).
    let second = ServeBuilder::new()
        .spool_dir(&dir)
        .max_jobs(256)
        .build()
        .expect("post-storm server starts");
    let recovery_skipped = second.recover_report().skipped;
    assert!(second.wait_all(WAIT), "recovery replay did not finish");
    let mut recovery_divergent = 0;
    for (spec, id) in &healthy {
        let Some(progress) = second.progress_of(*id) else {
            continue; // record torn at the final write: quarantined, not wrong
        };
        if progress.best_fitness.to_bits() != reference_bits(spec) {
            recovery_divergent += 1;
        }
    }
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    StormOutcome {
        healthy_total: healthy.len(),
        healthy_done,
        bit_identical,
        unquarantined_failures,
        quarantined,
        retries,
        slice_crashes,
        stalled,
        spool_errors,
        wall_ms,
        fired_write_errors: fired.spool_write_errors,
        fired_truncations: fired.spool_truncations,
        fired_panics: fired.slice_panics,
        fired_stalls: fired.slice_stalls,
        recovery_skipped,
        recovery_divergent,
    }
}

fn main() {
    // Injected slice panics are caught and handled by the scheduler;
    // keep their backtraces out of the experiment output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        let injected = message.is_some_and(|m| m.contains("chaos: injected slice panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let quick = pga_bench::quick_mode();
    let (healthy_tenants, poison_tenants) = if quick { (1, 1) } else { (3, 2) };
    let storm = StormSpec::default();

    let outcome = run_storm(healthy_tenants, poison_tenants, &storm);
    let availability = outcome.healthy_done as f64 / outcome.healthy_total as f64;

    // The three claims, asserted before anything is written.
    assert!(
        availability >= 0.99,
        "healthy availability {availability:.4} < 0.99"
    );
    assert_eq!(
        outcome.unquarantined_failures, 0,
        "a healthy job failed without being the scripted poison"
    );
    assert_eq!(
        outcome.quarantined, poison_tenants,
        "quarantine count is not exactly the scripted poison-tenant count"
    );
    assert_eq!(
        outcome.bit_identical, outcome.healthy_done,
        "a healthy job diverged from its fault-free reference"
    );
    assert_eq!(
        outcome.recovery_divergent, 0,
        "post-storm replay diverged from the fault-free reference"
    );

    let mut t = Table::new(vec!["metric", "value"]).with_title(format!(
        "E22 — chaos availability: {} healthy jobs ({} tenants × 7 families), \
         {} poison tenant(s), seeded storm 0x{SEED:X}",
        outcome.healthy_total, healthy_tenants, poison_tenants
    ));
    for (metric, value) in [
        ("healthy jobs", outcome.healthy_total.to_string()),
        ("healthy done", outcome.healthy_done.to_string()),
        ("availability", format!("{availability:.4}")),
        (
            "bit-identical vs reference",
            outcome.bit_identical.to_string(),
        ),
        (
            "un-quarantined failures",
            outcome.unquarantined_failures.to_string(),
        ),
        (
            "quarantined (expected)",
            format!("{} ({})", outcome.quarantined, poison_tenants),
        ),
        ("slice crashes absorbed", outcome.slice_crashes.to_string()),
        ("retries granted", outcome.retries.to_string()),
        ("watchdog reclassifications", outcome.stalled.to_string()),
        ("spool write failures", outcome.spool_errors.to_string()),
        ("storm wall clock [ms]", format!("{:.1}", outcome.wall_ms)),
    ] {
        t.row(vec![metric.to_string(), value]);
    }
    emit(&t);

    let mut t2 = Table::new(vec!["fault", "scripted", "fired"])
        .with_title("E22b — scripted vs fired faults (fired ≤ scripted: the horizon may outlive the run; poison panics ride the same counter)");
    for (fault, scripted, fired) in [
        (
            "spool write error",
            storm.spool_write_errors,
            outcome.fired_write_errors,
        ),
        (
            "spool torn write",
            storm.spool_truncations,
            outcome.fired_truncations,
        ),
        ("slice panic", storm.slice_panics, outcome.fired_panics),
        ("slice stall", storm.slice_stalls, outcome.fired_stalls),
    ] {
        t2.row(vec![
            fault.to_string(),
            scripted.to_string(),
            fired.to_string(),
        ]);
    }
    emit(&t2);

    println!(
        "E22c — post-storm recovery: {} record(s) quarantined by checksum (≤ {} scripted torn \
         writes), {} divergent replays\n",
        outcome.recovery_skipped, storm.spool_truncations, outcome.recovery_divergent
    );

    if quick {
        println!("quick mode: skipping results/BENCH_chaos.json");
    } else {
        let json = render_json(&outcome, availability, poison_tenants, &storm);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_chaos.json"
        );
        std::fs::write(path, &json).expect("write BENCH_chaos.json");
        println!("wrote {path}");
    }
    println!(
        "reading: under a seeded storm of spool faults, torn writes, slice panics and stalls,\n\
         every healthy tenant's job completes bit-identically to its fault-free reference\n\
         (availability ≥ 0.99 with zero un-quarantined failures), exactly the scripted poison\n\
         tenants are quarantined after the retry budget, and a post-storm restart replays any\n\
         stragglers to the same bits — chaos perturbs scheduling, never results."
    );
}

fn render_json(
    o: &StormOutcome,
    availability: f64,
    expected_quarantined: usize,
    storm: &StormSpec,
) -> String {
    format!(
        "{{\n  \"seed\": {SEED},\n  \"retry_budget\": {RETRY_BUDGET},\n  \
         \"healthy_jobs\": {},\n  \"healthy_done\": {},\n  \"availability\": {:.4},\n  \
         \"bit_identical\": {},\n  \"unquarantined_failures\": {},\n  \
         \"quarantined\": {},\n  \"expected_quarantined\": {expected_quarantined},\n  \
         \"slice_crashes\": {},\n  \"retries\": {},\n  \"stalled\": {},\n  \
         \"spool_errors\": {},\n  \"wall_ms\": {:.1},\n  \
         \"storm\": {{\"spool_write_errors\": {}, \"spool_truncations\": {}, \
         \"slice_panics\": {}, \"slice_stalls\": {}}},\n  \
         \"fired\": {{\"spool_write_errors\": {}, \"spool_truncations\": {}, \
         \"slice_panics\": {}, \"slice_stalls\": {}}},\n  \
         \"recovery\": {{\"skipped\": {}, \"divergent\": {}}}\n}}\n",
        o.healthy_total,
        o.healthy_done,
        availability,
        o.bit_identical,
        o.unquarantined_failures,
        o.quarantined,
        o.slice_crashes,
        o.retries,
        o.stalled,
        o.spool_errors,
        o.wall_ms,
        storm.spool_write_errors,
        storm.spool_truncations,
        storm.slice_panics,
        storm.slice_stalls,
        o.fired_write_errors,
        o.fired_truncations,
        o.fired_panics,
        o.fired_stalls,
        o.recovery_skipped,
        o.recovery_divergent,
    )
}
