//! Workload inputs: job-spec streams, the open-loop arrival schedule, and
//! the research configurations. Every input is a pure function of the
//! `--seed` value; the server only ever sees the generated specs.

use std::time::Duration;

use pga_core::rng::{splitmix64, Rng64};
use pga_serve::{Budget, EngineSpec, JobSpec, ProblemSpec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeSmall,
    ServeHeavy,
    ServeMixed,
    Solve,
}

impl Workload {
    pub const ALL: [Self; 4] = [
        Self::ServeSmall,
        Self::ServeHeavy,
        Self::ServeMixed,
        Self::Solve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::ServeSmall => "serve-small",
            Self::ServeHeavy => "serve-heavy",
            Self::ServeMixed => "serve-mixed",
            Self::Solve => "solve",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Open-loop period of `serve-mixed`: one arrival every 20 ms (50 jobs/s).
pub const MIXED_PERIOD: Duration = Duration::from_millis(20);
/// Every sixth `serve-mixed` arrival is a job of the hog tenant.
pub const HOG_EVERY: u64 = 6;
pub const HOG_TENANT: &str = "hog";
const MIXED_TENANTS: u64 = 8;

/// Seeds stay below 2^53 so they survive the wire's `f64` numbers.
fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
    state = splitmix64(&mut state) ^ index;
    splitmix64(&mut state) >> 11
}

fn spec(tenant: String, problem: ProblemSpec, engine: EngineSpec, seed: u64, gens: u64) -> JobSpec {
    JobSpec {
        tenant,
        problem,
        engine,
        seed,
        budget: Budget {
            generations: Some(gens),
            ..Budget::default()
        },
    }
}

/// The engines small `serve-mixed` jobs rotate through: every family the
/// server registers, each sized to well under a millisecond of compute.
fn small_engines() -> [EngineSpec; 7] {
    [
        EngineSpec::ga(32, 1),
        EngineSpec::steady(32),
        EngineSpec::cellular(6, 6),
        EngineSpec::island(4, 8),
        EngineSpec::async_steady(32, 4),
        EngineSpec::cga(63),
        EngineSpec::pcga(63, 8),
    ]
}

/// The `index`-th job a serve workload submits. `serve-small` and
/// `serve-heavy` draw their closed-loop jobs from this stream in order;
/// `serve-mixed` submits job `index` at its `index`-th arrival.
pub fn job_spec(workload: Workload, seed: u64, index: u64) -> JobSpec {
    let job_seed = derive_seed(seed, 0, index);
    match workload {
        Workload::ServeSmall => spec(
            format!("tenant-{}", index % 2),
            ProblemSpec::onemax(64),
            EngineSpec::ga(32, 1),
            job_seed,
            30,
        ),
        Workload::ServeHeavy => spec(
            format!("tenant-{}", index % 2),
            ProblemSpec::onemax(2048),
            EngineSpec::ga(256, 1),
            job_seed,
            100,
        ),
        Workload::ServeMixed if index % HOG_EVERY == HOG_EVERY - 1 => spec(
            HOG_TENANT.into(),
            ProblemSpec::onemax(4096),
            EngineSpec::island(4, 64),
            job_seed,
            100,
        ),
        Workload::Solve => unreachable!("solve submits no jobs"),
        Workload::ServeMixed => {
            // The k-th small job takes the k-th entry of two seeded
            // rotations; 8 tenants and 7 families are coprime, so every
            // 56 consecutive small jobs cover each pairing once.
            let small = index - index / HOG_EVERY;
            let mut rng = Rng64::new(derive_seed(seed, 1, 0));
            let mut tenants: Vec<u64> = (0..MIXED_TENANTS).collect();
            let mut engines = small_engines();
            rng.shuffle(&mut tenants);
            rng.shuffle(&mut engines);
            let tenant = tenants[(small % MIXED_TENANTS) as usize];
            let engine = engines[(small % engines.len() as u64) as usize].clone();
            spec(
                format!("tenant-{tenant}"),
                ProblemSpec::onemax(64),
                engine,
                job_seed,
                30,
            )
        }
    }
}

pub fn is_hog(spec: &JobSpec) -> bool {
    spec.tenant == HOG_TENANT
}

/// When the `index`-th open-loop arrival is due, from the schedule start.
pub fn arrival_due(index: u64) -> Duration {
    MIXED_PERIOD * u32::try_from(index).expect("arrival index fits u32")
}

/// Seeds each research configuration runs at: pass `i` of `solve` runs
/// every configuration once, at seed slot `i % SOLVE_SEEDS`.
pub const SOLVE_SEEDS: u64 = 6;

/// The five engine configurations of `solve` at seed slot `slot`. Budgets
/// are fixed generation counts, so every seed does the same work (runs
/// are compared at equal work); whether a run reached the optimum is
/// reported separately.
pub fn solve_specs(seed: u64, slot: u64) -> Vec<JobSpec> {
    let configs = [
        (ProblemSpec::onemax(1024), EngineSpec::ga(128, 1), 800),
        (ProblemSpec::trap(4, 32), EngineSpec::island(4, 64), 400),
        (ProblemSpec::trap(4, 32), EngineSpec::cellular(16, 16), 400),
        (ProblemSpec::onemax(1024), EngineSpec::cga(127), 3000),
        (ProblemSpec::onemax(1024), EngineSpec::pcga(127, 256), 1500),
    ];
    (2u64..)
        .zip(configs)
        .map(|(stream, (problem, engine, gens))| {
            let job_seed = derive_seed(seed, stream, slot % SOLVE_SEEDS);
            spec("solve".into(), problem, engine, job_seed, gens)
        })
        .collect()
}

/// Seed of the master–slave research run at seed slot `slot`.
pub fn master_slave_seed(seed: u64, slot: u64) -> u64 {
    derive_seed(seed, 7, slot % SOLVE_SEEDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, n: u64) -> Vec<String> {
        (0..n)
            .map(|i| job_spec(workload, seed, i).to_json_string())
            .collect()
    }

    #[test]
    fn spec_streams_are_pure_functions_of_the_seed() {
        for workload in [
            Workload::ServeSmall,
            Workload::ServeHeavy,
            Workload::ServeMixed,
        ] {
            assert_eq!(stream(workload, 7, 200), stream(workload, 7, 200));
            assert_ne!(stream(workload, 7, 200), stream(workload, 8, 200));
        }
        assert_eq!(solve_specs(3, 1), solve_specs(3, 1));
        assert_eq!(solve_specs(3, 1), solve_specs(3, 1 + SOLVE_SEEDS));
        assert_ne!(solve_specs(3, 1), solve_specs(3, 2));
        assert_ne!(solve_specs(3, 1), solve_specs(4, 1));
        assert_eq!(master_slave_seed(3, 1), master_slave_seed(3, 1));
        assert_ne!(master_slave_seed(3, 1), master_slave_seed(4, 1));
    }

    #[test]
    fn every_spec_survives_the_wire() {
        let mut specs = solve_specs(11, 0);
        for workload in [Workload::ServeSmall, Workload::ServeMixed] {
            specs.extend((0..60).map(|i| job_spec(workload, 11, i)));
        }
        for spec in specs {
            let back = JobSpec::from_json_str(&spec.to_json_string()).expect("valid spec");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn mixed_arrivals_rotate_tenants_and_families_around_the_hog() {
        let specs: Vec<JobSpec> = (0..6 * 56)
            .map(|i| job_spec(Workload::ServeMixed, 5, i))
            .collect();
        let mut pairs = std::collections::BTreeSet::new();
        for (i, spec) in specs.iter().enumerate() {
            let hog = i as u64 % HOG_EVERY == HOG_EVERY - 1;
            assert_eq!(is_hog(spec), hog, "arrival {i}");
            if !hog {
                pairs.insert((spec.tenant.clone(), spec.engine.family().to_string()));
            }
        }
        assert_eq!(pairs.len(), 56, "8 tenants x 7 families");
    }

    #[test]
    fn the_arrival_schedule_is_fixed_and_only_the_order_is_seeded() {
        assert_eq!(arrival_due(0), Duration::ZERO);
        assert_eq!(arrival_due(50), Duration::from_secs(1));
        let families = |seed| -> Vec<String> {
            (0..56)
                .map(|i| {
                    job_spec(Workload::ServeMixed, seed, i)
                        .engine
                        .family()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(families(1), families(1));
        assert_ne!(families(1), families(2));
    }
}
