//! Acceptance tests of the scenario layer and the pluggable backend:
//!
//! * built-in experiments and their committed `scenarios/*.toml` specs
//!   render byte-identical CSV, at 1 thread and (when the machine reports
//!   more than one CPU) at 2 threads;
//! * declarative scenarios are bit-identical across thread counts;
//! * the unmodified estimators produce bit-identical estimates through the
//!   answer-preserving rate-limiter decorator.

use std::path::Path;
use std::time::Duration;

use lbs::core::{Aggregate, Estimate, LrLbsAgg, LrLbsAggConfig, SessionConfig};
use lbs::data::generators::ScenarioBuilder;
use lbs::service::{LatencyBackend, LbsBackend, RateLimitedBackend, ServiceConfig, SimulatedLbs};
use lbs_bench::{
    load_scenario, load_scenario_dir, run_experiment_threaded, run_scenario, Scale, ScenarioContext,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ctx(threads: usize) -> ScenarioContext {
    ScenarioContext {
        scale: Scale::Micro,
        seed: 2015,
        threads,
        smoke: false,
    }
}

fn scenario_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name)
}

/// On the single-core CI container the 2-thread legs are skipped; they run
/// wherever the OS reports real parallelism.
fn multi_core() -> bool {
    std::thread::available_parallelism()
        .map(|n| n.get() >= 2)
        .unwrap_or(false)
}

#[test]
fn builtin_toml_scenarios_match_the_hardcoded_experiments_bitwise() {
    // fig12 exercises all three estimators, fig20 the LR ablation ladder —
    // together they cover the estimator code paths the other figures reuse.
    for id in ["fig12", "fig20"] {
        let scenario = load_scenario(&scenario_path(&format!("{id}.toml"))).expect("load");
        let direct = run_experiment_threaded(id, Scale::Micro, 2015, 1);
        let via_scenario = run_scenario(&scenario, &ctx(1)).expect("run");
        assert_eq!(
            direct.to_csv(),
            via_scenario.to_csv(),
            "{id}: scenario CSV differs from the hard-coded path at 1 thread"
        );

        if multi_core() {
            let parallel = run_scenario(&scenario, &ctx(2)).expect("run");
            assert_eq!(
                direct.to_csv(),
                parallel.to_csv(),
                "{id}: scenario CSV differs from the hard-coded path at 2 threads"
            );
        }
    }
}

#[test]
fn every_committed_scenario_loads_and_validates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let scenarios = load_scenario_dir(&dir).expect("scenario dir loads");
    assert!(
        scenarios.len() >= 17,
        "expected the 12 built-in plus declarative scenarios, found {}",
        scenarios.len()
    );
    // Every built-in experiment id is covered by a committed spec.
    for id in lbs_bench::all_experiment_ids() {
        assert!(
            scenarios
                .iter()
                .any(|s| s.experiment.as_deref() == Some(id)),
            "no committed scenario covers built-in experiment {id}"
        );
    }
}

#[test]
fn declarative_scenarios_are_bit_identical_across_thread_counts() {
    let scenario = load_scenario(&scenario_path("grid_lattice_count.toml")).expect("load");
    let serial = run_scenario(&scenario, &ctx(1)).expect("serial run");
    assert!(!serial.rows.is_empty());
    if multi_core() {
        let parallel = run_scenario(&scenario, &ctx(2)).expect("parallel run");
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "declarative scenario differs between 1 and 2 threads"
        );
    }
}

/// Everything that must agree bitwise between two runs.
fn fingerprint(e: &Estimate) -> (f64, f64, (f64, f64), u64, u64) {
    (e.value, e.std_error, e.ci95, e.samples, e.query_cost)
}

#[test]
fn estimates_are_bit_identical_through_answer_preserving_decorators() {
    // The acceptance criterion of the backend extraction: the estimator runs
    // unmodified against a rate-limited (and latency-injected) decorator
    // stack and produces the exact estimate of the undecorated service.
    let mut rng = StdRng::seed_from_u64(5);
    let dataset = ScenarioBuilder::usa_pois(250).build(&mut rng);
    let region = dataset.bbox();
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let agg = Aggregate::count_schools();

    let run = |backend: &dyn LbsBackend| -> Estimate {
        let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
        estimator
            .run(backend, &region, &agg, SessionConfig::new(600, 2015))
            .expect("estimation succeeds")
    };

    let plain = run(&service);
    let rate_limited = RateLimitedBackend::new(&service, 150, Duration::from_millis(1));
    let throttled = run(&rate_limited);
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&throttled),
        "rate limiting must not change estimates"
    );
    assert!(rate_limited.throttled_queries() > 0);

    let stacked = LatencyBackend::new(
        RateLimitedBackend::new(&service, 300, Duration::from_millis(1)),
        Duration::from_millis(0),
    );
    let decorated = run(&stacked);
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&decorated),
        "nested decorators must not change estimates"
    );
}
