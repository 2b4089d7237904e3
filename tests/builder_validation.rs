//! Every engine-family builder rejects invalid configurations with a typed
//! [`ConfigError`] instead of panicking — the contract that makes the
//! builder façade the canonical configuration path.

use parallel_ga::hierarchical::{BlurredFidelity, LevelView};
use parallel_ga::multiobjective::Schaffer;
use parallel_ga::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn onemax_island(seed: u64) -> Ga<OneMax, SerialEvaluator> {
    Ga::builder(OneMax::new(32))
        .seed(seed)
        .pop_size(16)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(32))
        .build()
        .expect("valid island")
}

fn invalid_parameter_named(err: &ConfigError, expected: &str) -> bool {
    matches!(err, ConfigError::InvalidParameter { name, .. } if *name == expected)
}

/// `unwrap_err` without requiring the (non-Debug) engine type to print.
fn err_of<T>(result: Result<T, ConfigError>) -> ConfigError {
    match result {
        Ok(_) => panic!("expected a ConfigError, got a built value"),
        Err(e) => e,
    }
}

#[test]
fn ga_builder_rejects_degenerate_population() {
    let err = err_of(
        Ga::builder(OneMax::new(8))
            .pop_size(0)
            .selection(Tournament::binary())
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(8))
            .build(),
    );
    assert!(invalid_parameter_named(&err, "pop_size"), "{err}");
}

#[test]
fn ga_builder_reports_missing_operators() {
    let err = err_of(Ga::builder(OneMax::new(8)).pop_size(10).build());
    assert!(matches!(err, ConfigError::MissingComponent(_)), "{err}");
}

/// Every builder that takes a crossover rate reports a missing operator
/// before a bad rate, and rejects a rate outside `[0, 1]` (NaN included)
/// under the one name `crossover_rate`.
#[test]
fn builders_check_operators_then_the_crossover_rate() {
    let schaffer = Schaffer::new();
    let (sbx, gauss) = (Sbx::new(schaffer.bounds().clone()), || GaussianMutation {
        p: 0.1,
        sigma: 0.1,
        bounds: schaffer.bounds().clone(),
    });
    for rate in [1.5, -0.1, f64::NAN] {
        let results = [
            err_of(
                Ga::builder(OneMax::new(8))
                    .crossover_rate(rate)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .build(),
            ),
            err_of(
                CellularGa::builder(OneMax::new(8))
                    .crossover_rate(rate)
                    .crossover(OnePoint)
                    .build(),
            ),
            err_of(
                AsyncSteadyStateGa::builder(OneMax::new(8))
                    .crossover_rate(rate)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .build(),
            ),
            err_of(
                MoEngine::builder(Schaffer::new())
                    .crossover_rate(rate)
                    .crossover(sbx.clone())
                    .build(),
            ),
        ];
        for err in results {
            assert_eq!(
                err,
                ConfigError::MissingComponent("mutation"),
                "rate {rate}"
            );
        }
        let results = [
            err_of(
                Ga::builder(OneMax::new(8))
                    .crossover_rate(rate)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(8))
                    .build(),
            ),
            err_of(
                CellularGa::builder(OneMax::new(8))
                    .crossover_rate(rate)
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(8))
                    .build(),
            ),
            err_of(
                AsyncSteadyStateGa::builder(OneMax::new(8))
                    .crossover_rate(rate)
                    .selection(Tournament::binary())
                    .crossover(OnePoint)
                    .mutation(BitFlip::one_over_len(8))
                    .build(),
            ),
            err_of(
                MoEngine::builder(Schaffer::new())
                    .crossover_rate(rate)
                    .crossover(sbx.clone())
                    .mutation(gauss())
                    .build(),
            ),
        ];
        for err in results {
            assert!(
                invalid_parameter_named(&err, "crossover_rate"),
                "rate {rate}: {err}"
            );
            assert!(err.to_string().contains("must be in [0, 1]"), "{err}");
        }
    }
}

#[test]
fn cellular_builder_rejects_empty_grid() {
    let err = err_of(
        CellularGa::builder(OneMax::new(8))
            .grid(0, 5)
            .crossover(OnePoint)
            .mutation(BitFlip::one_over_len(8))
            .build(),
    );
    assert!(invalid_parameter_named(&err, "grid"), "{err}");
}

#[test]
fn mo_builder_rejects_tiny_population() {
    let err = err_of(MoEngine::builder(Schaffer::new()).pop_size(3).build());
    assert!(invalid_parameter_named(&err, "pop_size"), "{err}");
}

#[test]
fn archipelago_builder_rejects_zero_islands() {
    let err = err_of(Archipelago::<Ga<OneMax, SerialEvaluator>>::builder().build());
    assert!(invalid_parameter_named(&err, "islands"), "{err}");
}

#[test]
fn archipelago_builder_rejects_incompatible_topology() {
    let err = err_of(
        Archipelago::builder()
            .islands((0..5).map(onemax_island))
            .topology(Topology::Hypercube)
            .build(),
    );
    assert!(invalid_parameter_named(&err, "topology"), "{err}");
}

#[test]
fn archipelago_builder_accepts_and_runs_a_valid_config() {
    let mut arch = Archipelago::builder()
        .islands((0..4).map(onemax_island))
        .topology(Topology::RingBi)
        .build()
        .expect("valid archipelago");
    let run = arch
        .run(&Termination::new().max_generations(5))
        .expect("bounded");
    assert!(run.generations.iter().all(|&g| g == 5));
}

fn sphere_fidelity() -> Arc<BlurredFidelity<RealProblem>> {
    Arc::new(BlurredFidelity::new(
        RealProblem::new(RealFunction::Sphere, 4),
        3,
        0.1,
        4.0,
    ))
}

fn sphere_island(
    view: LevelView<BlurredFidelity<RealProblem>>,
    seed: u64,
) -> Ga<LevelView<BlurredFidelity<RealProblem>>, SerialEvaluator> {
    let bounds = Bounds::uniform(-5.12, 5.12, 4);
    Ga::builder(view)
        .seed(seed)
        .pop_size(10)
        .selection(Tournament::binary())
        .crossover(BlxAlpha::new(bounds.clone()))
        .mutation(GaussianMutation {
            p: 0.25,
            sigma: 0.3,
            bounds,
        })
        .build()
        .expect("valid island")
}

#[test]
fn hga_builder_requires_an_island_factory() {
    let err = err_of(Hga::builder(sphere_fidelity()).build());
    assert_eq!(err, ConfigError::MissingComponent("island factory"));
}

#[test]
fn hga_builder_rejects_zero_epoch_generations() {
    let err = err_of(
        Hga::builder(sphere_fidelity())
            .epoch_generations(0)
            .island(sphere_island)
            .build(),
    );
    assert!(invalid_parameter_named(&err, "epoch_generations"), "{err}");
}

#[test]
fn hga_builder_rejects_empty_layers() {
    let err = err_of(
        Hga::builder(sphere_fidelity())
            .layer_widths(vec![])
            .island(sphere_island)
            .build(),
    );
    assert!(matches!(err, ConfigError::InvalidParameter { .. }), "{err}");
}

#[test]
fn resilient_builder_rejects_zero_workers() {
    let err = err_of(ResilientEvaluator::builder(OneMax::new(8), 0).build());
    assert!(invalid_parameter_named(&err, "workers"), "{err}");
}

#[test]
fn resilient_builder_rejects_degenerate_timings() {
    let err = err_of(
        ResilientEvaluator::builder(OneMax::new(8), 2)
            .task_deadline(Duration::ZERO)
            .build(),
    );
    assert!(invalid_parameter_named(&err, "task_deadline"), "{err}");

    let err = err_of(
        ResilientEvaluator::builder(OneMax::new(8), 2)
            .heartbeat_interval(Duration::from_millis(50))
            .heartbeat_timeout(Duration::from_millis(10))
            .build(),
    );
    assert!(invalid_parameter_named(&err, "heartbeat_timeout"), "{err}");
}

#[test]
fn resilient_builder_rejects_mismatched_fault_plan() {
    let err = err_of(
        ResilientEvaluator::builder(OneMax::new(8), 3)
            .fault_plan(FaultPlan::none(2))
            .build(),
    );
    assert!(invalid_parameter_named(&err, "fault_plan"), "{err}");
}

#[test]
fn rayon_evaluator_rejects_zero_workers_and_zero_chunk() {
    let err = err_of(RayonEvaluator::new(0));
    assert!(invalid_parameter_named(&err, "workers"), "{err}");

    let err = err_of(RayonEvaluator::new(2).and_then(|e| e.with_min_chunk(0)));
    assert!(invalid_parameter_named(&err, "min_chunk"), "{err}");
}

#[test]
fn cluster_spec_and_failure_plan_reject_bad_inputs() {
    let err = err_of(ClusterSpec::homogeneous(0, NetworkProfile::Myrinet));
    assert!(invalid_parameter_named(&err, "nodes"), "{err}");

    let err = err_of(ClusterSpec::heterogeneous(
        4,
        0.5,
        1,
        NetworkProfile::Myrinet,
    ));
    assert!(invalid_parameter_named(&err, "max_ratio"), "{err}");

    let err = err_of(FailurePlan::exponential(4, 0.0, 10.0, 1));
    assert!(invalid_parameter_named(&err, "mtbf_s"), "{err}");
}
