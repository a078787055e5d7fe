//! Acceptance tests of the stratified-estimation layer: the single-stratum
//! session collapses bitwise onto the flat path, checkpoint/resume at
//! arbitrary wave cuts is bit-identical at every thread count, the combined
//! estimate does not depend on the thread count, and density strata under
//! Neyman allocation beat the flat estimator's variance on a skewed table.

use lbs::core::{
    Aggregate, AllocationPolicy, Estimate, EstimatorKind, LrLbsAggConfig, LrSession, SessionConfig,
    StratifiedSession,
};
use lbs::data::{generators::ScenarioBuilder, Dataset, DensityGrid, Stratifier};
use lbs::geom::Rect;
use lbs::service::{LbsBackend, ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
fn fingerprint(e: &Estimate) -> (u64, u64, (u64, u64), u64, u64) {
    (
        e.value.to_bits(),
        e.std_error.to_bits(),
        (e.ci95.0.to_bits(), e.ci95.1.to_bits()),
        e.samples,
        e.query_cost,
    )
}

/// Thread counts to exercise: always 1, plus 2 on multi-core machines.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1];
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        >= 2
    {
        counts.push(2);
    }
    counts
}

fn stratified_session(
    service: &SimulatedLbs,
    strata: Vec<lbs::data::Stratum>,
    allocation: AllocationPolicy,
    cfg: SessionConfig,
) -> StratifiedSession<&SimulatedLbs> {
    StratifiedSession::new(
        service,
        &region(),
        &Aggregate::count_all(),
        EstimatorKind::Lr(LrLbsAggConfig::default()),
        strata,
        allocation,
        cfg,
    )
}

#[test]
fn single_stratum_is_bitwise_equal_to_the_flat_session() {
    // `count = 1` must be the flat estimator verbatim: same child config,
    // same seed stream (stratum_seed is the identity), same ledger.
    let d = dataset(100, 21);
    for threads in thread_counts() {
        let cfg = SessionConfig::new(500, 2015).with_threads(threads);
        let flat_service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
        let mut flat = LrSession::new(
            &flat_service,
            &region(),
            &Aggregate::count_all(),
            LrLbsAggConfig::default(),
            cfg.clone(),
        );
        while !flat.is_finished() {
            flat.step();
        }
        let flat_estimate = flat.finalize().expect("flat session completes");

        let strat_service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
        let strata = Stratifier::grid(1).strata(&region());
        assert_eq!(strata.len(), 1);
        let mut stratified =
            stratified_session(&strat_service, strata, AllocationPolicy::Proportional, cfg);
        while !stratified.is_finished() {
            stratified.step();
        }
        let stratified_estimate = stratified.finalize().expect("stratified session completes");

        assert_eq!(
            fingerprint(&flat_estimate),
            fingerprint(&stratified_estimate),
            "threads {threads}"
        );
        assert_eq!(
            flat_service.queries_issued(),
            strat_service.queries_issued(),
            "service ledger diverged at threads {threads}"
        );
    }
}

/// Runs a stratified session to completion, optionally checkpointing and
/// resuming at wave index `interrupt_at` (like a process that snapshots,
/// dies, and is restarted against the same backend).
fn run_with_interruption(
    service: &SimulatedLbs,
    strata: Vec<lbs::data::Stratum>,
    allocation: AllocationPolicy,
    cfg: SessionConfig,
    interrupt_at: Option<u64>,
) -> (Estimate, u64) {
    let mut session = stratified_session(service, strata, allocation, cfg);
    let mut waves = 0u64;
    while !session.is_finished() {
        if interrupt_at == Some(waves) {
            let checkpoint = session.checkpoint();
            drop(session);
            session = StratifiedSession::resume(service, checkpoint);
        }
        session.step();
        waves += 1;
    }
    let estimate = session.finalize().expect("session completes");
    (estimate, waves)
}

#[test]
fn stratified_checkpoint_resume_is_bit_identical_at_random_wave_cuts() {
    // Neyman allocation makes the mid-run re-allocation a wave-boundary
    // event the checkpoint must capture exactly; random cuts land both
    // before and after it.
    let d = dataset(120, 23);
    let strata = Stratifier::grid(4).strata(&region());
    for threads in thread_counts() {
        let cfg = SessionConfig::new(600, 2015)
            .with_threads(threads)
            .with_wave_size(8);
        let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
        let (baseline, total_waves) = run_with_interruption(
            &service,
            strata.clone(),
            AllocationPolicy::Neyman,
            cfg.clone(),
            None,
        );
        let baseline_ledger = service.queries_issued();
        assert!(total_waves >= 2, "need at least two waves to interrupt");

        let mut rng = StdRng::seed_from_u64(77);
        let mut cut_points: Vec<u64> = (0..3).map(|_| rng.gen_range(0..total_waves)).collect();
        cut_points.push(0);
        cut_points.push(total_waves - 1);
        for cut in cut_points {
            let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
            let (resumed, _) = run_with_interruption(
                &service,
                strata.clone(),
                AllocationPolicy::Neyman,
                cfg.clone(),
                Some(cut),
            );
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&resumed),
                "threads {threads}, interrupted at wave {cut}"
            );
            assert_eq!(
                baseline_ledger,
                service.queries_issued(),
                "service ledger diverged after resume at wave {cut}"
            );
        }
    }
}

#[test]
fn stratified_estimate_does_not_depend_on_the_thread_count() {
    // Density partitions exercise the weighted stratum weights; the
    // combined estimate must be bit-identical at every thread count.
    let d = dataset(150, 29);
    let grid = DensityGrid::from_dataset(&d, 32, 1, 0.1);
    let strata = Stratifier::density(grid, 4).strata(&region());
    let mut fingerprints = Vec::new();
    for threads in thread_counts() {
        let cfg = SessionConfig::new(500, 2015)
            .with_threads(threads)
            .with_wave_size(8);
        let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
        let (estimate, _) = run_with_interruption(
            &service,
            strata.clone(),
            AllocationPolicy::Proportional,
            cfg,
            None,
        );
        fingerprints.push(fingerprint(&estimate));
    }
    for pair in fingerprints.windows(2) {
        assert_eq!(pair[0], pair[1], "thread count changed the estimate");
    }
}

#[test]
fn neyman_density_strata_reduce_variance_on_a_hotspot_table() {
    // Eight density strata under Neyman allocation against the flat
    // estimator at the same budget and seed, on a Zipf-hotspot table: the
    // spatial skew stratification exists for.
    let mut rng = StdRng::seed_from_u64(2015);
    let d = ScenarioBuilder::zipf_hotspot_pois(1_500, 8, 1.1).build(&mut rng);
    let region = d.bbox();
    let grid = DensityGrid::from_dataset(&d, 32, 1, 0.1);
    let strata = Stratifier::density(grid, 8).strata(&region);
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
    let agg = Aggregate::count_all();
    let cfg = SessionConfig::new(4_000, 2015);

    let mut flat = LrSession::new(
        &service,
        &region,
        &agg,
        LrLbsAggConfig::default(),
        cfg.clone(),
    );
    while !flat.is_finished() {
        flat.run_wave();
    }
    let flat = flat.finalize().expect("flat session completes");
    let stratified = |threads: usize| {
        let mut session = StratifiedSession::new(
            &service,
            &region,
            &agg,
            EstimatorKind::Lr(LrLbsAggConfig::default()),
            strata.clone(),
            AllocationPolicy::Neyman,
            cfg.clone().with_threads(threads),
        );
        while !session.is_finished() {
            session.run_wave();
        }
        session.finalize().expect("stratified session completes")
    };
    let serial = stratified(1);

    let ratio = (serial.std_error / flat.std_error).powi(2);
    println!("variance ratio, stratified over flat: {ratio:.3}");
    assert!(
        ratio.is_finite() && ratio > 0.0,
        "variance ratio {ratio} is not a positive finite number"
    );
    assert!(
        ratio < 1.0,
        "stratification increased the variance at equal budget: ratio {ratio:.3}"
    );
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&stratified(2)),
        "1 and 2 threads produced different stratified estimates"
    );
}
