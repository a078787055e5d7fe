//! Acceptance tests of the parallel sample driver: bit-identical results
//! across thread counts for all three estimators, sane behaviour under hard
//! service limits, and (on multi-core machines) actual wall-clock speedup.

use lbs::core::{
    Aggregate, Estimate, LnrLbsAgg, LnrLbsAggConfig, LrLbsAgg, LrLbsAggConfig, NnoBaseline,
    NnoConfig, SessionConfig,
};
use lbs::data::{generators::ScenarioBuilder, Dataset};
use lbs::geom::Rect;
use lbs::service::{LbsBackend, ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn region() -> Rect {
    Rect::from_bounds(0.0, 0.0, 200.0, 200.0)
}

fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    ScenarioBuilder::usa_pois(n)
        .with_bbox(region())
        .build(&mut rng)
}

/// Everything that must agree bitwise between two runs.
fn fingerprint(e: &Estimate) -> (f64, f64, (f64, f64), u64, u64) {
    (e.value, e.std_error, e.ci95, e.samples, e.query_cost)
}

#[test]
fn lr_estimates_are_bit_identical_from_1_to_8_threads() {
    let d = dataset(150, 21);
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
    let run = |threads: usize| {
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        est.run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(1_500, 2015).with_threads(threads),
        )
        .unwrap()
    };
    let baseline = run(1);
    for threads in [2, 4, 8] {
        let other = run(threads);
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&other),
            "LR estimate diverged at {threads} threads"
        );
        assert_eq!(baseline.trace, other.trace);
    }
    // And the estimate is actually useful, not just consistent.
    assert!(baseline.relative_error(150.0) < 0.5);
    assert!(baseline.query_cost >= 1_500);
}

#[test]
fn lnr_estimates_are_bit_identical_from_1_to_8_threads() {
    let d = dataset(60, 23);
    let truth = d.len() as f64;
    let service = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(10));
    let run = |threads: usize| {
        let est = LnrLbsAgg::new(LnrLbsAggConfig {
            delta: 0.2,
            ..LnrLbsAggConfig::default()
        });
        est.run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(3_000, 7).with_threads(threads),
        )
        .unwrap()
    };
    let baseline = run(1);
    let parallel = run(8);
    assert_eq!(fingerprint(&baseline), fingerprint(&parallel));
    assert!(baseline.relative_error(truth) < 0.8);
}

#[test]
fn nno_estimates_are_bit_identical_from_1_to_8_threads() {
    let d = dataset(100, 25);
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
    let run = |threads: usize| {
        let est = NnoBaseline::new(NnoConfig);
        est.run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(1_200, 11).with_threads(threads),
        )
        .unwrap()
    };
    let baseline = run(1);
    let parallel = run(8);
    assert_eq!(fingerprint(&baseline), fingerprint(&parallel));
}

#[test]
fn repeated_parallel_runs_reuse_history_and_stay_deterministic() {
    // Two `run` calls on the same estimator: the second starts
    // from the history the first absorbed. The pair must replay identically
    // at any thread count.
    let d = dataset(120, 27);
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
    let run_pair = |threads: usize| {
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        let cfg = |seed| SessionConfig::new(600, seed).with_threads(threads);
        let first = est
            .run(&service, &region(), &Aggregate::count_all(), cfg(1))
            .unwrap();
        let learned = est.history().len();
        let second = est
            .run(&service, &region(), &Aggregate::count_all(), cfg(2))
            .unwrap();
        (fingerprint(&first), learned, fingerprint(&second))
    };
    assert_eq!(run_pair(1), run_pair(8));
    let (_, learned, _) = run_pair(4);
    assert!(learned > 0, "the driver must absorb history back");
}

#[test]
fn hard_service_limit_surfaces_as_no_samples_or_truncated_run() {
    // A hard limit far below one sample's cost: the driver must give up
    // cleanly (NoSamples), never hang or panic.
    let d = dataset(50, 29);
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(5).with_query_limit(1));
    let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
    let res = est.run(
        &service,
        &region(),
        &Aggregate::count_all(),
        SessionConfig::new(500, 3).with_threads(4),
    );
    assert!(matches!(res, Err(lbs::core::EstimateError::NoSamples)));

    // A limit that allows some but not all samples: the run ends with a
    // usable estimate whose cost respects the hard limit.
    let d = dataset(80, 31);
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(5).with_query_limit(400));
    let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
    let out = est
        .run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(10_000, 3).with_threads(4),
        )
        .unwrap();
    assert!(out.samples > 0);
    assert!(service.queries_issued() <= 400);
}

/// Wall-clock speedup check. Requires real cores: on machines with fewer
/// than 4 CPUs the assertion is skipped (there is nothing to measure), and
/// `repro --threads N` records the honest measurement in
/// `BENCH_repro.json` instead.
#[test]
fn four_threads_beat_one_on_multicore_machines() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} CPU(s) available");
        return;
    }
    let d = dataset(400, 33);
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
    let timed = |threads: usize| {
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        // lbs-lint: allow(ambient-time, reason = "speedup probe timing; assertions compare estimates, not times")
        let started = std::time::Instant::now();
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_schools(),
                SessionConfig::new(4_000, 2015).with_threads(threads),
            )
            .unwrap();
        (started.elapsed().as_secs_f64(), out)
    };
    // Warm up caches once, then measure.
    let _ = timed(1);
    let (serial_s, serial) = timed(1);
    let (parallel_s, parallel) = timed(4);
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    let speedup = serial_s / parallel_s.max(1e-9);
    assert!(
        speedup >= 2.0,
        "expected >= 2x speedup on 4 threads ({cores} CPUs), measured {speedup:.2}x \
         (serial {serial_s:.2}s, parallel {parallel_s:.2}s)"
    );
}
