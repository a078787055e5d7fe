//! Acceptance battery of the answer cache's determinism contract: cached,
//! uncached, shared and post-checkpoint runs must be bit-identical in
//! estimates, traces and the service ledger (with metered hits, the default).
//!
//! The scenarios are generated from a seeded parameter sweep — dataset size,
//! k, budget, algorithm — so the battery covers a spread of workload shapes
//! rather than one hand-picked case.

use std::sync::Arc;

use lbs::core::{Aggregate, Estimate, LrLbsAggConfig, LrSession, SessionConfig};
use lbs::geom::Rect;
use lbs::service::{AnswerCache, CachingBackend, LbsBackend, ServiceConfig, SimulatedLbs};
use lbs_bench::{build_workload, load_scenario, Scenario, ScenarioContext, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Parses (and validates) a scenario from an inline TOML string via a
/// uniquely named temp file — `load_scenario` is the only public entry point.
fn parse(name: &str, toml: &str) -> Scenario {
    let path = std::env::temp_dir().join(format!("lbs-cache-equivalence-{name}.toml"));
    std::fs::write(&path, toml).expect("scenario temp file writes");
    let scenario = load_scenario(&path).expect("scenario loads");
    let _ = std::fs::remove_file(&path);
    scenario
}

fn ctx(threads: usize) -> ScenarioContext {
    ScenarioContext {
        scale: lbs_bench::Scale::Micro,
        seed: 2015,
        threads,
        smoke: false,
    }
}

/// A seeded-random declarative scenario (no cache knobs — those are added by
/// the sweep).
fn random_scenario(rng: &mut StdRng, index: usize) -> Scenario {
    let size = 40 + rng.gen_range(0..4) * 20;
    let k = 4 + rng.gen_range(0..3) * 2;
    let budget = 100 + rng.gen_range(0..3) * 60;
    let (kind, algorithm) = if rng.gen::<f64>() < 0.5 {
        ("lr", "lr")
    } else {
        ("lnr", "lnr")
    };
    let seed = 100 + rng.gen_range(0..1000);
    parse(
        &format!("sweep-{index}"),
        &format!(
        "id = \"sweep-{index}\"\nseed = {seed}\n\n[dataset]\nmodel = \"uniform\"\nsize = {size}\n\
         bbox = [0.0, 0.0, 150.0, 150.0]\n\n[interface]\nkind = \"{kind}\"\nk = {k}\n\n\
         [aggregate]\nkind = \"count\"\n\n[estimator]\nalgorithm = \"{algorithm}\"\nbudget = {budget}\n"
        ),
    )
}

/// Runs one workload repetition over `backend` and returns its estimate plus
/// the backend's global ledger reading.
fn run_once(workload: &Workload, backend: Box<dyn LbsBackend>, threads: usize) -> (Estimate, u64) {
    let mut session = workload
        .start_session(&backend, workload.session_config(threads, 0))
        .expect("session starts");
    while !session.is_finished() {
        session.step();
    }
    let estimate = session.finalize().expect("session completes");
    let ledger = backend.queries_issued();
    (estimate, ledger)
}

#[test]
fn cache_modes_are_bit_identical_across_random_scenarios_and_threads() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for index in 0..4 {
        let scenario = random_scenario(&mut rng, index);
        for threads in thread_counts() {
            let workload = build_workload(&scenario, &ctx(threads)).expect("workload");
            // Uncached baseline.
            let uncached = workload.backend_with_budget_and_cache(workload.fresh_budget(), None);
            let (baseline, baseline_ledger) = run_once(&workload, uncached, threads);

            // Private (fresh) cache.
            let private = workload.backend_with_budget_and_cache(
                workload.fresh_budget(),
                Some(AnswerCache::unbounded()),
            );
            let (with_private, private_ledger) = run_once(&workload, private, threads);

            // Shared cache: a cold pass, then a fully warm replay.
            let shared = AnswerCache::unbounded();
            let cold = workload
                .backend_with_budget_and_cache(workload.fresh_budget(), Some(shared.share()));
            let (with_cold, cold_ledger) = run_once(&workload, cold, threads);
            let warm = workload
                .backend_with_budget_and_cache(workload.fresh_budget(), Some(shared.share()));
            let (with_warm, warm_ledger) = run_once(&workload, warm, threads);
            assert!(
                shared.stats().hits > 0,
                "scenario {index}: warm replay produced no hits"
            );

            for (label, estimate, ledger) in [
                ("private", &with_private, private_ledger),
                ("shared cold", &with_cold, cold_ledger),
                ("shared warm", &with_warm, warm_ledger),
            ] {
                assert_eq!(
                    fingerprint(&baseline),
                    fingerprint(estimate),
                    "scenario {index}, threads {threads}, {label}"
                );
                assert_eq!(
                    baseline.trace, estimate.trace,
                    "scenario {index}, threads {threads}, {label}: trace diverged"
                );
                assert_eq!(
                    baseline_ledger, ledger,
                    "scenario {index}, threads {threads}, {label}: metered hits must \
                     charge the ledger exactly like real queries"
                );
            }
        }
    }
}

#[test]
fn unmetered_hits_spare_the_ledger_without_changing_the_estimate() {
    let scenario = parse(
        "unmetered",
        "id = \"unmetered\"\nseed = 21\n\n[dataset]\nmodel = \"uniform\"\nsize = 70\n\n\
         [interface]\nkind = \"lr\"\nk = 5\n\n[backend]\ncache = \"shared\"\n\
         cache_hits_metered = false\n\n[aggregate]\nkind = \"count\"\n\n\
         [estimator]\nalgorithm = \"lr\"\nbudget = 150\n",
    );
    let workload = build_workload(&scenario, &ctx(1)).expect("workload");
    let cache = AnswerCache::unbounded();
    let cold = workload.backend_with_budget_and_cache(workload.fresh_budget(), Some(cache.share()));
    let (first, cold_ledger) = run_once(&workload, cold, 1);
    let warm = workload.backend_with_budget_and_cache(workload.fresh_budget(), Some(cache.share()));
    let (second, warm_ledger) = run_once(&workload, warm, 1);

    // The estimate, its trace and even the *reported* query cost are
    // bit-identical (samples count their queries through the per-run
    // counter, hit or not); only the global service ledger is spared.
    assert_eq!(fingerprint(&first), fingerprint(&second));
    assert_eq!(first.trace, second.trace);
    assert!(cache.stats().hits > 0);
    assert!(
        warm_ledger < cold_ledger,
        "unmetered warm run must charge fewer real queries ({warm_ledger} vs {cold_ledger})"
    );
}

#[test]
fn checkpoint_resume_cuts_through_a_warm_cache_stay_bit_identical() {
    let region = Rect::from_bounds(0.0, 0.0, 150.0, 150.0);
    let mut rng = StdRng::seed_from_u64(71);
    let dataset = lbs::data::generators::ScenarioBuilder::usa_pois(90)
        .with_bbox(region)
        .build(&mut rng);
    let config = ServiceConfig::lr_lbs(8);
    let budget = 300;
    let seed = 2015;

    // Generic full run with an optional checkpoint/resume cut at a wave
    // boundary, over any backend.
    fn run<S: LbsBackend>(
        backend: &S,
        region: &Rect,
        budget: u64,
        seed: u64,
        cut: Option<u64>,
    ) -> (Estimate, u64) {
        let mut session = LrSession::new(
            backend,
            region,
            &Aggregate::count_all(),
            LrLbsAggConfig::default(),
            SessionConfig::new(budget, seed).with_wave_size(8),
        );
        let mut waves = 0u64;
        while !session.is_finished() {
            if cut == Some(waves) {
                let checkpoint = session.checkpoint();
                drop(session);
                session = LrSession::resume(backend, checkpoint);
            }
            session.step();
            waves += 1;
        }
        (session.finalize().expect("completes"), waves)
    }

    // Uncached baseline.
    let plain = SimulatedLbs::new(dataset.clone(), config.clone());
    let (baseline, waves) = run(&plain, &region, budget, seed, None);
    let baseline_ledger = plain.queries_issued();
    assert!(waves >= 3, "need waves to cut at");

    // Warm a shared cache with one full cached run.
    let cache = AnswerCache::unbounded();
    let warmer = CachingBackend::over_service(
        SimulatedLbs::new(dataset.clone(), config.clone()),
        cache.share(),
        true,
    );
    let (warm_run, _) = run(&warmer, &region, budget, seed, None);
    assert_eq!(fingerprint(&baseline), fingerprint(&warm_run));
    let warm_misses = cache.stats().misses;
    assert!(warm_misses > 0);

    // Checkpoint/resume at several wave boundaries, each run entirely
    // against the warm cache.
    for cut in [0, waves / 2, waves - 1] {
        let hits_before = cache.stats().hits;
        let backend = CachingBackend::over_service(
            SimulatedLbs::new(dataset.clone(), config.clone()),
            cache.share(),
            true,
        );
        let (resumed, _) = run(&backend, &region, budget, seed, Some(cut));
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&resumed),
            "cut at wave {cut}"
        );
        assert_eq!(baseline.trace, resumed.trace, "trace at cut {cut}");
        assert_eq!(
            baseline_ledger,
            backend.queries_issued(),
            "metered ledger at cut {cut}"
        );
        assert!(
            cache.stats().hits > hits_before,
            "cut {cut}: the warm cache must actually serve the run"
        );
        assert_eq!(
            cache.stats().misses,
            warm_misses,
            "cut {cut}: a warm replay must add no distinct keys"
        );
    }
}

#[test]
fn shared_caches_are_share_handles_not_copies() {
    // `share()` clones the handle, not the cache: hits observed through one
    // handle are visible through the other.
    let cache: Arc<AnswerCache> = AnswerCache::unbounded();
    let other = cache.share();
    assert_eq!(cache.stats(), other.stats());
    assert!(Arc::ptr_eq(&cache, &other));
}
