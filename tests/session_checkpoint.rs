//! Acceptance tests of the anytime-session layer: checkpoint/resume
//! determinism (bitwise, including the service ledger), anytime snapshots,
//! early stopping, and the one-sample-wave runs of the estimators' `run`.

use lbs::core::{
    Aggregate, Estimate, EstimationSession, LnrLbsAgg, LnrLbsAggConfig, LnrSession, LrLbsAgg,
    LrLbsAggConfig, LrSession, NnoBaseline, NnoConfig, SessionCheckpoint, SessionConfig,
    StopReason,
};
use lbs::data::{generators::ScenarioBuilder, Dataset};
use lbs::geom::Rect;
use lbs::service::{LbsBackend, ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// Thread counts to exercise: always 1, plus 2 on multi-core machines
/// (this container has a single CPU; oversubscribing real estimator work
/// would only slow the test without changing coverage — bit-identity across
/// thread counts is separately locked by `parallel_determinism.rs`).
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

/// Runs an LR session to completion, checkpointing and resuming
/// at wave index `interrupt_at` (on the same service, like a process that
/// snapshots its state, dies, and is restarted against the same backend).
fn lr_run_with_interruption(
    service: &SimulatedLbs,
    budget: u64,
    seed: u64,
    threads: usize,
    wave_size: Option<u64>,
    interrupt_at: Option<u64>,
) -> (Estimate, u64) {
    let mut cfg = SessionConfig::new(budget, seed).with_threads(threads);
    if let Some(wave) = wave_size {
        cfg = cfg.with_wave_size(wave);
    }
    let mut session = LrSession::new(
        service,
        &region(),
        &Aggregate::count_all(),
        LrLbsAggConfig::default(),
        cfg,
    );
    let mut waves = 0u64;
    while !session.is_finished() {
        if interrupt_at == Some(waves) {
            // Snapshot, drop the live session, resume from the snapshot.
            let checkpoint = session.checkpoint();
            drop(session);
            session = LrSession::resume(service, checkpoint);
        }
        session.step();
        waves += 1;
    }
    let estimate = session.finalize().expect("session completes");
    (estimate, waves)
}

#[test]
fn lr_checkpoint_resume_is_bit_identical_at_random_wave_indices() {
    let d = dataset(120, 31);
    for threads in thread_counts() {
        let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
        let (baseline, total_waves) =
            lr_run_with_interruption(&service, 900, 2015, threads, None, None);
        let baseline_ledger = service.queries_issued();
        assert!(total_waves >= 2, "need at least two waves to interrupt");

        // A seeded sweep of random interruption points (plus the first and
        // last wave boundaries as edge cases).
        let mut rng = StdRng::seed_from_u64(77);
        let mut cut_points: Vec<u64> = (0..4).map(|_| rng.gen_range(0..total_waves)).collect();
        cut_points.push(0);
        cut_points.push(total_waves - 1);
        for cut in cut_points {
            let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
            let (resumed, _) =
                lr_run_with_interruption(&service, 900, 2015, threads, None, Some(cut));
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&resumed),
                "threads {threads}, interrupted at wave {cut}"
            );
            assert_eq!(baseline.trace, resumed.trace, "trace at wave {cut}");
            assert_eq!(
                baseline_ledger,
                service.queries_issued(),
                "service ledger diverged after resume at wave {cut}"
            );
            assert_eq!(baseline.engine, resumed.engine, "engine report at {cut}");
        }
    }
}

#[test]
fn lr_checkpoint_resume_with_wave_size_one_hits_every_sample_index() {
    // wave_size = 1 makes every sample index a wave boundary, so this is
    // checkpoint/resume at a random *sample* index.
    let d = dataset(60, 33);
    for threads in thread_counts() {
        let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(6));
        let (baseline, total) = lr_run_with_interruption(&service, 250, 7, threads, Some(1), None);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..3 {
            let cut = rng.gen_range(0..total);
            let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(6));
            let (resumed, _) =
                lr_run_with_interruption(&service, 250, 7, threads, Some(1), Some(cut));
            assert_eq!(
                fingerprint(&baseline),
                fingerprint(&resumed),
                "threads {threads}, sample index {cut}"
            );
        }
    }
}

#[test]
fn lnr_session_checkpoint_resume_is_bit_identical() {
    let d = dataset(40, 35);
    let service = SimulatedLbs::new(d.clone(), ServiceConfig::lnr_lbs(8));
    let config = LnrLbsAggConfig {
        delta: 0.3,
        ..LnrLbsAggConfig::default()
    };
    let run = |interrupt: Option<u64>| {
        let service = SimulatedLbs::new(d.clone(), ServiceConfig::lnr_lbs(8));
        let mut session = LnrSession::new(
            &service,
            &region(),
            &Aggregate::count_all(),
            config.clone(),
            SessionConfig::new(400, 11).with_wave_size(4),
        );
        let mut waves = 0u64;
        while !session.is_finished() {
            if interrupt == Some(waves) {
                let checkpoint = session.checkpoint();
                drop(session);
                session = LnrSession::resume(&service, checkpoint);
            }
            session.step();
            waves += 1;
        }
        (session.finalize().expect("finishes"), waves)
    };
    drop(service);
    let (baseline, waves) = run(None);
    for cut in [0, waves / 2, waves - 1] {
        let (resumed, _) = run(Some(cut));
        assert_eq!(fingerprint(&baseline), fingerprint(&resumed), "wave {cut}");
    }
}

/// Steps `session` to completion by chunk rounds. With `cut = Some(k)`, the
/// session is checkpointed after step `k`, dropped and resumed on `service`
/// (`k` must be a step that ends strictly inside a multi-chunk wave, which
/// is asserted). Returns the estimate and, per step, whether it ended inside
/// a wave (its snapshot's `waves` did not move).
fn run_by_rounds<'a>(
    service: &'a SimulatedLbs,
    mut session: EstimationSession<&'a SimulatedLbs>,
    cut: Option<usize>,
) -> (Estimate, Vec<bool>) {
    let mut mid_wave = Vec::new();
    while !session.is_finished() {
        let before = session.snapshot();
        session.step();
        let after = session.snapshot();
        let inside = !after.finished && after.waves == before.waves;
        mid_wave.push(inside);
        if cut == Some(mid_wave.len() - 1) {
            assert!(inside, "the cut step must end inside a wave");
            assert!(after.samples > before.samples, "the cut step ran a chunk");
            let checkpoint = session.checkpoint();
            drop(session);
            session = EstimationSession::resume(service, checkpoint);
            assert_eq!(session.snapshot().waves, after.waves);
        }
    }
    (session.finalize().expect("session completes"), mid_wave)
}

/// Checkpoint/resume cuts strictly inside multi-chunk waves: the first such
/// step and two seeded random ones. The resumed run must match the
/// uninterrupted one bit for bit — estimate, trace, engine counters and
/// service ledger — and both must match a run stepped by whole waves.
fn check_mid_wave_cuts<'a>(
    d: &Dataset,
    config: ServiceConfig,
    services: &'a mut Vec<SimulatedLbs>,
    fresh: impl Fn(&'a SimulatedLbs) -> EstimationSession<&'a SimulatedLbs>,
) {
    let runs = 5;
    services.extend((0..runs).map(|_| SimulatedLbs::new(d.clone(), config.clone())));
    let services: &'a [SimulatedLbs] = services;

    let mut by_waves = fresh(&services[0]);
    while !by_waves.is_finished() {
        by_waves.run_wave();
    }
    let by_waves = by_waves.finalize().unwrap();

    let (baseline, mid_wave) = run_by_rounds(&services[1], fresh(&services[1]), None);
    assert_eq!(
        fingerprint(&by_waves),
        fingerprint(&baseline),
        "rounds vs waves"
    );
    assert_eq!(by_waves.trace, baseline.trace);
    assert_eq!(services[0].queries_issued(), services[1].queries_issued());

    let inside: Vec<usize> = (0..mid_wave.len()).filter(|&k| mid_wave[k]).collect();
    assert!(inside.len() >= 2, "need steps that end inside a wave");
    let mut rng = StdRng::seed_from_u64(101);
    let cuts = [
        inside[0],
        inside[rng.gen_range(0..inside.len())],
        inside[rng.gen_range(0..inside.len())],
    ];
    for (service, cut) in services[2..].iter().zip(cuts) {
        let (resumed, _) = run_by_rounds(service, fresh(service), Some(cut));
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&resumed),
            "cut after step {cut}"
        );
        assert_eq!(baseline.trace, resumed.trace, "trace, cut after step {cut}");
        assert_eq!(
            baseline.engine, resumed.engine,
            "engine, cut after step {cut}"
        );
        assert_eq!(
            services[1].queries_issued(),
            service.queries_issued(),
            "service ledger, cut after step {cut}"
        );
    }
}

#[test]
fn lr_checkpoint_inside_a_wave_carries_pending_forks() {
    // Adaptive waves: the opening wave has two chunks, later ones many, so
    // a cut after a chunk round leaves forked histories waiting to be
    // absorbed at the wave's end.
    let d = dataset(120, 37);
    for threads in thread_counts() {
        let mut services = Vec::new();
        check_mid_wave_cuts(&d, ServiceConfig::lr_lbs(10), &mut services, |svc| {
            EstimationSession::Lr(Box::new(LrSession::new(
                svc,
                &region(),
                &Aggregate::count_all(),
                LrLbsAggConfig::default(),
                SessionConfig::new(900, 2016).with_threads(threads),
            )))
        });
    }
}

#[test]
fn lnr_checkpoint_inside_a_wave_is_bit_identical() {
    let d = dataset(40, 39);
    let config = LnrLbsAggConfig {
        delta: 0.3,
        ..LnrLbsAggConfig::default()
    };
    let mut services = Vec::new();
    check_mid_wave_cuts(&d, ServiceConfig::lnr_lbs(8), &mut services, |svc| {
        EstimationSession::Lnr(Box::new(LnrSession::new(
            svc,
            &region(),
            &Aggregate::count_all(),
            config.clone(),
            SessionConfig::new(600, 13).with_wave_size(24),
        )))
    });
}

#[test]
fn type_erased_sessions_checkpoint_through_the_enum() {
    // The scheduler-facing wrapper: checkpoint an EstimationSession mid-run,
    // rebuild it from the SessionCheckpoint, and finish — bitwise equal.
    let d = dataset(80, 41);
    let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(8));
    let fresh = |svc| {
        EstimationSession::Lr(Box::new(LrSession::new(
            svc,
            &region(),
            &Aggregate::count_restaurants(),
            LrLbsAggConfig::default(),
            SessionConfig::new(400, 5).with_wave_size(8),
        )))
    };
    let mut baseline_session = fresh(&service);
    while !baseline_session.is_finished() {
        baseline_session.step();
    }
    let baseline = baseline_session.finalize().unwrap();

    let service2 = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(8));
    let mut session = fresh(&service2);
    session.step();
    session.step();
    let checkpoint: SessionCheckpoint = session.checkpoint();
    drop(session);
    let mut resumed = EstimationSession::resume(&service2, checkpoint);
    while !resumed.is_finished() {
        resumed.step();
    }
    let resumed = resumed.finalize().unwrap();
    assert_eq!(fingerprint(&baseline), fingerprint(&resumed));
    assert_eq!(service.queries_issued(), service2.queries_issued());
}

#[test]
fn anytime_snapshots_converge_and_stop_rules_fire() {
    let d = dataset(100, 43);
    let fresh = |service| {
        LrSession::new(
            service,
            &region(),
            &Aggregate::count_all(),
            LrLbsAggConfig::default(),
            SessionConfig::new(100_000, 3)
                .with_wave_size(64)
                .with_target_ci_halfwidth(60.0),
        )
    };
    let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
    let mut session = fresh(&service);
    let mut last_queries = 0;
    while !session.is_finished() {
        session.step();
        let snap = session.snapshot();
        assert!(snap.queries >= last_queries, "queries are monotone");
        last_queries = snap.queries;
        if snap.samples >= 2 {
            assert!(snap.std_error >= 0.0);
            assert!(snap.ci95.0 <= snap.value && snap.value <= snap.ci95.1);
        }
    }
    let snap = session.snapshot();
    // The budget is huge; the session must have stopped on the CI target.
    assert_eq!(snap.stop, Some(StopReason::TargetPrecision));
    assert!(snap.ci_halfwidth() <= 60.0);
    assert!(snap.queries < 100_000);
    // finalize() agrees with the snapshot.
    let estimate = session.finalize().unwrap();
    assert_eq!(estimate.value.to_bits(), snap.value.to_bits());
    assert_eq!(estimate.samples, snap.samples);
    // The rule fires at wave boundaries only — never between the eight
    // chunk rounds of a 64-sample wave — so stepping by whole waves stops
    // at the same sample.
    assert_eq!(snap.samples % 64, 0, "stopped inside a wave");
    let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
    let mut by_waves = fresh(&service);
    while !by_waves.is_finished() {
        by_waves.run_wave();
    }
    let by_waves = by_waves.snapshot();
    assert_eq!(by_waves.stop, snap.stop);
    assert_eq!(by_waves.samples, snap.samples);
    assert_eq!(by_waves.value.to_bits(), snap.value.to_bits());
}

/// A serial run's session configuration: one thread, one-sample waves,
/// seeded by the caller's next `u64`.
fn serial_config(budget: u64, rng: &mut StdRng) -> SessionConfig {
    SessionConfig::new(budget, rng.next_u64()).with_wave_size(1)
}

#[test]
fn serial_estimate_equals_a_one_thread_one_sample_wave_session() {
    // Two `run` calls on one estimator against two hand-built sessions fed
    // from a clone of the same RNG, the second carrying the first's history:
    // bit for bit, service ledger included.
    let d = dataset(90, 47);
    let service = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(8));
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
    let mut rng = StdRng::seed_from_u64(13);
    let mut manual_rng = rng.clone();
    let ran: Vec<Estimate> = (0..2)
        .map(|_| {
            estimator
                .run(
                    &service,
                    &region(),
                    &Aggregate::count_all(),
                    serial_config(300, &mut rng),
                )
                .unwrap()
        })
        .collect();

    let service2 = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(8));
    let mut history = lbs::core::lr::History::new();
    let mut manual = Vec::new();
    for _ in 0..2 {
        let mut session = LrSession::with_state(
            &service2,
            &region(),
            &Aggregate::count_all(),
            LrLbsAggConfig::default(),
            history,
            serial_config(300, &mut manual_rng),
        );
        while !session.is_finished() {
            session.step();
        }
        manual.push(session.finalize().unwrap());
        history = session.into_history();
    }
    for (call, (a, b)) in ran.iter().zip(&manual).enumerate() {
        assert_eq!(fingerprint(a), fingerprint(b), "call {call}");
        assert_eq!(a.trace, b.trace, "call {call}");
        assert_eq!(a.engine, b.engine, "call {call}");
        assert_eq!(a.trace.len() as u64, a.samples, "one trace point a sample");
    }
    assert_eq!(service.queries_issued(), service2.queries_issued());
    assert_eq!(estimator.history().len(), history.len());
    assert_eq!(rng.next_u64(), manual_rng.next_u64(), "one draw per call");

    // The second call really starts from the first call's history: a cold
    // session on the same seed explores differently.
    let service3 = SimulatedLbs::new(d, ServiceConfig::lr_lbs(8));
    let mut seeds = StdRng::seed_from_u64(13);
    seeds.next_u64();
    let mut cold = LrSession::new(
        &service3,
        &region(),
        &Aggregate::count_all(),
        LrLbsAggConfig::default(),
        serial_config(300, &mut seeds),
    );
    while !cold.is_finished() {
        cold.step();
    }
    assert_ne!(cold.finalize().unwrap().engine, ran[1].engine);
}

#[test]
fn serial_estimate_overshoots_its_budget_by_less_than_one_sample() {
    // One-sample waves check the budget after every sample, so only the
    // sample in flight can overshoot it: `budget ≤ query_cost` and
    // `query_cost − budget` stays below the costliest sample of the run.
    let d = dataset(120, 53);
    let lr = SimulatedLbs::new(d.clone(), ServiceConfig::lr_lbs(10));
    let lnr = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(10));
    let agg = Aggregate::count_all();
    let mut rng = StdRng::seed_from_u64(59);
    let lnr_config = LnrLbsAggConfig {
        delta: 0.3,
        ..LnrLbsAggConfig::default()
    };
    let runs = [
        (
            "LR",
            1_500,
            LrLbsAgg::new(LrLbsAggConfig::default())
                .run(&lr, &region(), &agg, serial_config(1_500, &mut rng))
                .unwrap(),
        ),
        (
            "LNR",
            2_000,
            LnrLbsAgg::new(lnr_config)
                .run(&lnr, &region(), &agg, serial_config(2_000, &mut rng))
                .unwrap(),
        ),
        (
            "NNO",
            1_500,
            NnoBaseline::new(NnoConfig)
                .run(&lr, &region(), &agg, serial_config(1_500, &mut rng))
                .unwrap(),
        ),
    ];
    for (name, budget, out) in runs {
        assert_eq!(out.trace.len() as u64, out.samples, "{name}");
        let mut spent = 0;
        let mut largest = 0;
        for point in &out.trace {
            largest = largest.max(point.query_cost - spent);
            spent = point.query_cost;
        }
        assert_eq!(spent, out.query_cost, "{name}");
        assert!(
            out.query_cost >= budget,
            "{name}: {} < {budget}",
            out.query_cost
        );
        assert!(
            out.query_cost - budget < largest,
            "{name}: spent {} on a budget of {budget}; the costliest sample took {largest}",
            out.query_cost
        );
    }
}
