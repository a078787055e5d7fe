//! One function per paper artefact (Figures 11–21, Table 1).
//!
//! Conventions shared by the cost/accuracy experiments:
//!
//! * The paper plots *query cost needed to reach a relative error*; running
//!   that directly requires a search over budgets, so the harness reports the
//!   transposed curve — *relative error achieved at each budget of a ladder*
//!   — which carries the same information (who is cheaper at equal accuracy,
//!   and by roughly what factor). `EXPERIMENTS.md` documents the mapping.
//! * Every configuration is repeated [`Scale::repetitions`] times with
//!   different seeds and the mean relative error is reported.
//! * All experiments are deterministic given `(scale, seed)` — including
//!   across thread counts: every estimator run goes through the parallel
//!   sample driver ([`lbs_core::driver`]), whose results are bit-identical
//!   whether it fans out to 1 worker or 64 (`repro --threads N` only changes
//!   wall-clock time).

use rand::rngs::StdRng;
use rand::SeedableRng;

use lbs_core::lnr::cell::LnrExploreConfig;
use lbs_core::lnr::locate::LocateConfig;
use lbs_core::lnr::{explore_cell as lnr_explore_cell, infer_position, RankOracle};
use lbs_core::{
    Aggregate, EngineReport, Estimate, LnrLbsAgg, LnrLbsAggConfig, LrLbsAgg, LrLbsAggConfig,
    NnoBaseline, NnoConfig, Selection, SessionConfig,
};
use lbs_data::{attrs, Dataset, DensityGrid, ScenarioBuilder};
use lbs_geom::{voronoi_diagram, Point, Rect};
use lbs_service::{PassThroughFilter, ServiceConfig, SimulatedLbs};

use crate::result::{ExperimentResult, Row};
use crate::scale::Scale;

/// Labelled estimator runs compared within one experiment: each closure maps
/// a repetition seed to a finished [`Estimate`].
type NamedRuns<'a> = Vec<(&'a str, Box<dyn Fn(u64) -> Estimate + 'a>)>;

/// Identifiers of every experiment the harness can run, in paper order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
        "fig21", "table1",
    ]
}

/// Runs one experiment by id, fanning estimator samples across `threads`
/// worker threads (`repro --threads N`).
///
/// The result is bit-identical for every `threads` value — only the wall
/// clock changes. `threads == 0` means "use all available cores".
///
/// # Panics
/// Panics when the id is unknown; use [`all_experiment_ids`] to enumerate
/// valid ones.
pub fn run_experiment_threaded(
    id: &str,
    scale: Scale,
    seed: u64,
    threads: usize,
) -> ExperimentResult {
    match id {
        "fig11" => fig11_voronoi_decomposition(scale, seed),
        "fig12" => fig12_convergence(scale, seed, threads),
        "fig13" => fig13_sampling_strategy(scale, seed, threads),
        "fig14" => fig14_count_schools(scale, seed, threads),
        "fig15" => fig15_count_restaurants(scale, seed, threads),
        "fig16" => fig16_sum_enrollment(scale, seed, threads),
        "fig17" => fig17_avg_rating_region(scale, seed, threads),
        "fig18" => fig18_database_size(scale, seed, threads),
        "fig19" => fig19_varying_k(scale, seed, threads),
        "fig20" => fig20_error_reduction_ablation(scale, seed, threads),
        "fig21" => fig21_localization_accuracy(scale, seed),
        "table1" => table1_online_experiments(scale, seed, threads),
        other => panic!("unknown experiment id: {other}"),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn usa_dataset(scale: Scale, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    ScenarioBuilder::usa_pois(scale.poi_count())
        .with_starbucks(scale.poi_count() / 40)
        .build(&mut rng)
}

fn lr_service(dataset: &Dataset, k: usize) -> SimulatedLbs {
    SimulatedLbs::new(dataset.clone(), ServiceConfig::lr_lbs(k))
}

fn lnr_service(dataset: &Dataset, k: usize) -> SimulatedLbs {
    SimulatedLbs::new(dataset.clone(), ServiceConfig::lnr_lbs(k))
}

/// Coarse bracket width for LNR experiments: scaled to the region so that the
/// per-edge cost stays around `3·log2(b/δ)` queries regardless of scale.
pub(crate) fn lnr_delta(region: &Rect) -> f64 {
    (region.diagonal() * 2e-4).max(0.01)
}

fn run_lr(
    service: &SimulatedLbs,
    region: &Rect,
    agg: &Aggregate,
    budget: u64,
    seed: u64,
    config: LrLbsAggConfig,
    threads: usize,
) -> Estimate {
    let cfg = SessionConfig::new(budget, seed).with_threads(threads);
    LrLbsAgg::new(config)
        .run(service, region, agg, cfg)
        .expect("LR estimation should produce at least one sample")
}

fn run_lnr(
    service: &SimulatedLbs,
    region: &Rect,
    agg: &Aggregate,
    budget: u64,
    seed: u64,
    mut config: LnrLbsAggConfig,
    threads: usize,
) -> Estimate {
    config.delta = lnr_delta(region);
    config.delta_prime = config.delta * 10.0;
    let cfg = SessionConfig::new(budget, seed).with_threads(threads);
    LnrLbsAgg::new(config)
        .run(service, region, agg, cfg)
        .expect("LNR estimation should produce at least one sample")
}

fn run_nno(
    service: &SimulatedLbs,
    region: &Rect,
    agg: &Aggregate,
    budget: u64,
    seed: u64,
    threads: usize,
) -> Estimate {
    let cfg = SessionConfig::new(budget, seed).with_threads(threads);
    NnoBaseline::new(NnoConfig)
        .run(service, region, agg, cfg)
        .expect("baseline estimation should produce at least one sample")
}

/// Mean relative error of an algorithm over the scale's repetitions,
/// summing each run's cell-engine counters into `engine`.
fn mean_rel_error<F: Fn(u64) -> Estimate>(
    scale: Scale,
    truth: f64,
    engine: &mut EngineReport,
    run: F,
) -> (f64, u64) {
    let mut err_sum = 0.0;
    let mut cost_sum = 0u64;
    let reps = scale.repetitions();
    for rep in 0..reps {
        let est = run(1_000 + rep as u64);
        err_sum += est.relative_error(truth);
        cost_sum += est.query_cost;
        engine.add(&est.engine);
    }
    (err_sum / reps as f64, cost_sum / reps as u64)
}

/// The cost-versus-error comparison shared by Figures 14–17.
fn cost_error_comparison(
    id: &str,
    title: &str,
    scale: Scale,
    seed: u64,
    agg: Aggregate,
    region_override: Option<Rect>,
    threads: usize,
) -> ExperimentResult {
    let dataset = usa_dataset(scale, seed);
    let region = region_override.unwrap_or_else(|| dataset.bbox());
    let truth = agg.ground_truth(&dataset, &region);
    let lr = lr_service(&dataset, 10);
    let lnr = lnr_service(&dataset, 10);

    let mut result = ExperimentResult::new(id, title);
    result.note(format!(
        "dataset: {} POIs, ground truth {truth:.1}, budgets reported as error-at-budget",
        dataset.len()
    ));

    let mut engine = EngineReport::default();
    for budget in scale.budget_ladder() {
        let (nno_err, nno_cost) = mean_rel_error(scale, truth, &mut engine, |s| {
            run_nno(&lr, &region, &agg, budget, seed ^ s, threads)
        });
        let (lr_err, lr_cost) = mean_rel_error(scale, truth, &mut engine, |s| {
            run_lr(
                &lr,
                &region,
                &agg,
                budget,
                seed ^ s,
                LrLbsAggConfig::default(),
                threads,
            )
        });
        let lnr_budget = budget * (scale.lnr_budget() / scale.lr_budget()).max(1);
        let (lnr_err, lnr_cost) = mean_rel_error(scale, truth, &mut engine, |s| {
            run_lnr(
                &lnr,
                &region,
                &agg,
                lnr_budget,
                seed ^ s,
                LnrLbsAggConfig::default(),
                threads,
            )
        });
        result.push(
            Row::new()
                .with("budget", budget)
                .with("LR-LBS-NNO rel err", format!("{nno_err:.3}"))
                .with("LR-LBS-AGG rel err", format!("{lr_err:.3}"))
                .with("LNR-LBS-AGG rel err", format!("{lnr_err:.3}"))
                .with("NNO cost", nno_cost)
                .with("LR cost", lr_cost)
                .with("LNR cost", lnr_cost),
        );
    }
    result.add_engine(&engine);
    result
}

// ---------------------------------------------------------------------------
// Figure 11 — Voronoi decomposition of Starbucks in the US
// ---------------------------------------------------------------------------

/// Figure 11: the Voronoi diagram over the planted "Starbucks" POIs; the
/// paper shows the picture, the harness reports the cell-area distribution
/// (its point being the enormous spread between urban and rural cells).
pub fn fig11_voronoi_decomposition(scale: Scale, seed: u64) -> ExperimentResult {
    let dataset = usa_dataset(scale, seed);
    let starbucks: Vec<Point> = dataset
        .tuples()
        .iter()
        .filter(|t| t.text_eq(attrs::BRAND, "Starbucks"))
        .map(|t| t.location)
        .collect();
    let diagram = voronoi_diagram(&starbucks, &dataset.bbox());
    let mut areas = diagram.cell_areas();
    areas.sort_by(|a, b| a.total_cmp(b));

    let mut result = ExperimentResult::new("fig11", "Voronoi decomposition of Starbucks in US");
    result.note(format!(
        "{} Starbucks cells over {:.0} km²",
        areas.len(),
        dataset.bbox().area()
    ));
    let percentile = |p: f64| -> f64 {
        if areas.is_empty() {
            return 0.0;
        }
        let idx = ((areas.len() - 1) as f64 * p).round() as usize;
        areas[idx]
    };
    let stats = [
        ("min", percentile(0.0)),
        ("p10", percentile(0.10)),
        ("median", percentile(0.50)),
        ("p90", percentile(0.90)),
        ("max", percentile(1.0)),
        (
            "mean",
            areas.iter().sum::<f64>() / areas.len().max(1) as f64,
        ),
    ];
    for (name, value) in stats {
        result.push(
            Row::new()
                .with("statistic", name)
                .with_f64("cell area km^2", value),
        );
    }
    let spread = percentile(1.0) / percentile(0.10).max(1e-9);
    result.push(
        Row::new()
            .with("statistic", "max/p10 spread")
            .with_f64("cell area km^2", spread),
    );
    result
}

// ---------------------------------------------------------------------------
// Figure 12 — unbiasedness / convergence trace
// ---------------------------------------------------------------------------

/// Figure 12: running COUNT(restaurants) estimate versus query cost for the
/// three algorithms against the ground truth.
pub fn fig12_convergence(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    let dataset = usa_dataset(scale, seed);
    let region = dataset.bbox();
    let agg = Aggregate::count_restaurants();
    let truth = agg.ground_truth(&dataset, &region);
    let lr = lr_service(&dataset, 10);
    let lnr = lnr_service(&dataset, 10);

    let lr_est = run_lr(
        &lr,
        &region,
        &agg,
        scale.lr_budget(),
        seed,
        LrLbsAggConfig::default(),
        threads,
    );
    let nno_est = run_nno(&lr, &region, &agg, scale.lr_budget(), seed + 1, threads);
    let lnr_est = run_lnr(
        &lnr,
        &region,
        &agg,
        scale.lnr_budget(),
        seed + 2,
        LnrLbsAggConfig::default(),
        threads,
    );

    let mut result =
        ExperimentResult::new("fig12", "Unbiasedness of estimators (COUNT restaurants)");
    result.note(format!("ground truth {truth:.0}"));
    for est in [&nno_est, &lr_est, &lnr_est] {
        result.add_engine(&est.engine);
    }
    for (name, est) in [
        ("LR-LBS-NNO", &nno_est),
        ("LR-LBS-AGG", &lr_est),
        ("LNR-LBS-AGG", &lnr_est),
    ] {
        // Downsample the trace to at most 12 points per algorithm.
        let step = (est.trace.len() / 12).max(1);
        for point in est.trace.iter().step_by(step) {
            result.push(
                Row::new()
                    .with("algorithm", name)
                    .with("query cost", point.query_cost)
                    .with_f64("running estimate", point.estimate)
                    .with_f64("ground truth", truth),
            );
        }
    }
    result
}

// ---------------------------------------------------------------------------
// Figure 13 — impact of the sampling strategy (uniform vs census-weighted)
// ---------------------------------------------------------------------------

/// Figure 13: COUNT(schools) with uniform versus density-weighted query
/// sampling, for both LR-LBS-AGG and LNR-LBS-AGG.
pub fn fig13_sampling_strategy(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    let dataset = usa_dataset(scale, seed);
    let region = dataset.bbox();
    let agg = Aggregate::count_schools();
    let truth = agg.ground_truth(&dataset, &region);
    let grid = DensityGrid::from_dataset(&dataset, 64, 44, 0.1);
    let lr = lr_service(&dataset, 10);
    let lnr = lnr_service(&dataset, 10);
    let budget = scale.lr_budget();

    let mut result = ExperimentResult::new(
        "fig13",
        "Impact of sampling strategy (COUNT schools, US-census weighting)",
    );
    result.note(format!("ground truth {truth:.0}, budget {budget}"));

    let configs: NamedRuns<'_> = vec![
        (
            "LR-LBS-AGG (uniform)",
            Box::new(|s| {
                run_lr(
                    &lr,
                    &region,
                    &agg,
                    budget,
                    s,
                    LrLbsAggConfig::default(),
                    threads,
                )
            }),
        ),
        (
            "LR-LBS-AGG-US (weighted)",
            Box::new(|s| {
                run_lr(
                    &lr,
                    &region,
                    &agg,
                    budget,
                    s,
                    LrLbsAggConfig {
                        weighted_sampler: Some(grid.clone()),
                        ..LrLbsAggConfig::default()
                    },
                    threads,
                )
            }),
        ),
        (
            "LNR-LBS-AGG (uniform)",
            Box::new(|s| {
                run_lnr(
                    &lnr,
                    &region,
                    &agg,
                    scale.lnr_budget(),
                    s,
                    LnrLbsAggConfig::default(),
                    threads,
                )
            }),
        ),
        (
            "LNR-LBS-AGG-US (weighted)",
            Box::new(|s| {
                run_lnr(
                    &lnr,
                    &region,
                    &agg,
                    scale.lnr_budget(),
                    s,
                    LnrLbsAggConfig {
                        weighted_sampler: Some(grid.clone()),
                        ..LnrLbsAggConfig::default()
                    },
                    threads,
                )
            }),
        ),
    ];
    let mut engine = EngineReport::default();
    for (name, run) in configs {
        let (err, cost) = mean_rel_error(scale, truth, &mut engine, |s| run(seed ^ s));
        result.push(
            Row::new()
                .with("strategy", name)
                .with("budget", cost)
                .with("rel error", format!("{err:.3}")),
        );
    }
    result.add_engine(&engine);
    result
}

// ---------------------------------------------------------------------------
// Figures 14–17 — query cost versus relative error for four aggregates
// ---------------------------------------------------------------------------

/// Figure 14: COUNT(schools) in the US.
pub fn fig14_count_schools(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    cost_error_comparison(
        "fig14",
        "COUNT(schools): relative error at each query budget",
        scale,
        seed,
        Aggregate::count_schools(),
        None,
        threads,
    )
}

/// Figure 15: COUNT(restaurants) in the US.
pub fn fig15_count_restaurants(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    cost_error_comparison(
        "fig15",
        "COUNT(restaurants): relative error at each query budget",
        scale,
        seed,
        Aggregate::count_restaurants(),
        None,
        threads,
    )
}

/// Figure 16: SUM(enrollment) over schools in the US.
pub fn fig16_sum_enrollment(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    cost_error_comparison(
        "fig16",
        "SUM(school enrollment): relative error at each query budget",
        scale,
        seed,
        Aggregate::sum_school_enrollment(),
        None,
        threads,
    )
}

/// Figure 17: AVG(restaurant rating) inside a metropolitan sub-region
/// ("Austin, TX" in the paper).
pub fn fig17_avg_rating_region(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    let dataset = usa_dataset(scale, seed);
    let bbox = dataset.bbox();
    // At reduced scales the literal Austin box holds too few POIs to define a
    // meaningful AVG, so the sub-region grows as the dataset shrinks (noted
    // in the output).
    let region = match scale {
        Scale::Paper => lbs_data::region::austin_tx(),
        _ => Rect::from_bounds(
            bbox.min_x + bbox.width() * 0.40,
            bbox.min_y + bbox.height() * 0.15,
            bbox.min_x + bbox.width() * 0.60,
            bbox.min_y + bbox.height() * 0.35,
        ),
    };
    let selection = Selection::And(vec![
        Selection::TextEquals {
            attr: attrs::CATEGORY.to_string(),
            value: "restaurant".to_string(),
        },
        Selection::InRegion(region),
    ]);
    let agg = Aggregate::avg_where(attrs::RATING, selection);
    let mut result = cost_error_comparison(
        "fig17",
        "AVG(restaurant rating) in a metro sub-region (Austin, TX analogue)",
        scale,
        seed,
        agg,
        None,
        threads,
    );
    result.note(format!(
        "sub-region {:.0} km x {:.0} km",
        region.width(),
        region.height()
    ));
    result
}

// ---------------------------------------------------------------------------
// Figure 18 — query cost versus database size
// ---------------------------------------------------------------------------

/// Figure 18: accuracy of COUNT(schools) at a fixed budget when the database
/// is subsampled to 25/50/75/100 % (the paper fixes the error and reports the
/// cost; the cost ladder of fig14 plus this transposed view carries the same
/// conclusion — database size barely matters for a sampling approach).
pub fn fig18_database_size(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    let full = usa_dataset(scale, seed);
    let region = full.bbox();
    let budget = scale.lr_budget();
    let agg = Aggregate::count_schools();

    let mut result = ExperimentResult::new(
        "fig18",
        "Varying database size (COUNT schools, fixed budget)",
    );
    result.note(format!("budget {budget} per run"));
    let mut rng = StdRng::seed_from_u64(seed + 99);
    let mut engine = EngineReport::default();
    for fraction in [0.25, 0.5, 0.75, 1.0] {
        let subset = if fraction < 1.0 {
            full.sample_fraction(fraction, &mut rng)
        } else {
            full.clone()
        };
        let truth = agg.ground_truth(&subset, &region);
        let lr = lr_service(&subset, 10);
        let lnr = lnr_service(&subset, 10);
        let (nno_err, _) = mean_rel_error(scale, truth, &mut engine, |s| {
            run_nno(&lr, &region, &agg, budget, seed ^ s, threads)
        });
        let (lr_err, _) = mean_rel_error(scale, truth, &mut engine, |s| {
            run_lr(
                &lr,
                &region,
                &agg,
                budget,
                seed ^ s,
                LrLbsAggConfig::default(),
                threads,
            )
        });
        let (lnr_err, _) = mean_rel_error(scale, truth, &mut engine, |s| {
            run_lnr(
                &lnr,
                &region,
                &agg,
                scale.lnr_budget(),
                seed ^ s,
                LnrLbsAggConfig::default(),
                threads,
            )
        });
        result.push(
            Row::new()
                .with("fraction of POIs", format!("{:.0}%", fraction * 100.0))
                .with("tuples", subset.len())
                .with("LR-LBS-NNO rel err", format!("{nno_err:.3}"))
                .with("LR-LBS-AGG rel err", format!("{lr_err:.3}"))
                .with("LNR-LBS-AGG rel err", format!("{lnr_err:.3}")),
        );
    }
    result.add_engine(&engine);
    result
}

// ---------------------------------------------------------------------------
// Figure 19 — varying k (fixed top-h levels versus the adaptive rule)
// ---------------------------------------------------------------------------

/// Figure 19: COUNT(schools) accuracy and per-sample cost when LR-LBS-AGG
/// uses a fixed top-h level of 1..5 versus the adaptive selection rule.
pub fn fig19_varying_k(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    let dataset = usa_dataset(scale, seed);
    let region = dataset.bbox();
    let agg = Aggregate::count_schools();
    let truth = agg.ground_truth(&dataset, &region);
    let service = lr_service(&dataset, 10);
    let budget = scale.lr_budget();

    let mut result =
        ExperimentResult::new("fig19", "Varying k: fixed top-h versus adaptive selection");
    result.note(format!("ground truth {truth:.0}, budget {budget}"));
    let mut configs: Vec<(String, LrLbsAggConfig)> = (1..=5usize)
        .map(|h| (format!("fixed h={h}"), LrLbsAggConfig::fixed_h(h)))
        .collect();
    configs.push(("adaptive".to_string(), LrLbsAggConfig::default()));
    let mut engine = EngineReport::default();
    for (name, cfg) in configs {
        let mut err_sum = 0.0;
        let mut samples_sum = 0u64;
        let mut cost_sum = 0u64;
        for rep in 0..scale.repetitions() {
            let est = run_lr(
                &service,
                &region,
                &agg,
                budget,
                seed ^ (500 + rep as u64),
                cfg.clone(),
                threads,
            );
            err_sum += est.relative_error(truth);
            samples_sum += est.samples;
            cost_sum += est.query_cost;
            engine.add(&est.engine);
        }
        let reps = scale.repetitions() as f64;
        result.push(
            Row::new()
                .with("configuration", name)
                .with("rel error", format!("{:.3}", err_sum / reps))
                .with_f64("samples", samples_sum as f64 / reps)
                .with_f64(
                    "queries per sample",
                    cost_sum as f64 / samples_sum.max(1) as f64,
                ),
        );
    }
    result.add_engine(&engine);
    result
}

// ---------------------------------------------------------------------------
// Figure 20 — ablation of the error-reduction strategies
// ---------------------------------------------------------------------------

/// Figure 20: LR-LBS-AGG with the error-reduction techniques enabled one by
/// one (level 0 = none, level 4 = all).
pub fn fig20_error_reduction_ablation(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    let dataset = usa_dataset(scale, seed);
    let region = dataset.bbox();
    let agg = Aggregate::count_schools();
    let truth = agg.ground_truth(&dataset, &region);
    let service = lr_service(&dataset, 10);
    let budget = scale.lr_budget();

    let mut result =
        ExperimentResult::new("fig20", "Query savings of the error-reduction strategies");
    result.note("level 0: none; +fast init; +history; +adaptive h; +MC bounds".to_string());
    let mut engine = EngineReport::default();
    for level in 0..=4usize {
        let mut err_sum = 0.0;
        let mut samples_sum = 0u64;
        for rep in 0..scale.repetitions() {
            let est = run_lr(
                &service,
                &region,
                &agg,
                budget,
                seed ^ (900 + rep as u64),
                LrLbsAggConfig::ablation_level(level),
                threads,
            );
            err_sum += est.relative_error(truth);
            samples_sum += est.samples;
            engine.add(&est.engine);
        }
        let reps = scale.repetitions() as f64;
        result.push(
            Row::new()
                .with("variant", format!("LR-LBS-AGG-{level}"))
                .with("rel error", format!("{:.3}", err_sum / reps))
                .with_f64("samples within budget", samples_sum as f64 / reps),
        );
    }
    result.add_engine(&engine);
    result
}

// ---------------------------------------------------------------------------
// Figure 21 — localization accuracy
// ---------------------------------------------------------------------------

/// Figure 21: distribution of the position-inference error over a
/// Google-Places-like interface (treated as rank-only, no obfuscation) and a
/// WeChat-like interface (with location obfuscation).
pub fn fig21_localization_accuracy(scale: Scale, seed: u64) -> ExperimentResult {
    let mut result =
        ExperimentResult::new("fig21", "Localization accuracy of tuple-position inference");
    let buckets = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0];

    let mut run_service = |name: &str, dataset: &Dataset, config: ServiceConfig| {
        let service = SimulatedLbs::new(dataset.clone(), config);
        let region = dataset.bbox();
        let delta = lnr_delta(&region);
        let mut errors: Vec<f64> = Vec::new();
        let mut failures = 0usize;
        for t in dataset.tuples().iter().take(scale.localization_targets()) {
            let mut oracle = RankOracle::new(&service, 1);
            let explore_cfg = LnrExploreConfig {
                delta,
                delta_prime: delta * 10.0,
                ..LnrExploreConfig::default()
            };
            let cell = match lnr_explore_cell(&mut oracle, t.id, t.location, &region, &explore_cfg)
            {
                Ok(c) => c,
                Err(_) => {
                    failures += 1;
                    continue;
                }
            };
            let locate_cfg = LocateConfig {
                delta,
                probe_step: (delta * 20.0).max(0.5),
                ..LocateConfig::default()
            };
            match infer_position(&mut oracle, t.id, &cell, &region, &locate_cfg) {
                Ok(Some(p)) => errors.push(p.distance(&t.location)),
                _ => failures += 1,
            }
        }
        let total = (errors.len() + failures).max(1);
        let mut previous = 0.0;
        for bucket in buckets {
            let within = errors.iter().filter(|e| **e <= bucket).count();
            let share = within as f64 / total as f64;
            result.push(
                Row::new()
                    .with("service", name)
                    .with("error <= km", bucket)
                    .with("cumulative %", format!("{:.1}", share * 100.0)),
            );
            previous = share;
        }
        result.push(
            Row::new()
                .with("service", name)
                .with("error <= km", "not located")
                .with("cumulative %", format!("{:.1}", 100.0 * (1.0 - previous))),
        );
        let _ = previous;
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let pois = ScenarioBuilder::usa_pois(scale.poi_count()).build(&mut rng);
    run_service(
        "Google-Places-like (no obfuscation)",
        &pois,
        ServiceConfig::lnr_lbs(10),
    );
    let users = ScenarioBuilder::wechat_users(scale.user_count()).build(&mut rng);
    run_service(
        "WeChat-like (50 m obfuscation)",
        &users,
        ServiceConfig::lnr_lbs(10).with_obfuscation(0.05),
    );
    result
}

// ---------------------------------------------------------------------------
// Table 1 — online experiments summary
// ---------------------------------------------------------------------------

/// Table 1: the paper's online demonstrations, reproduced against the
/// simulated Google Places / WeChat / Sina Weibo services, with the planted
/// ground truth that the real experiments could only approximate externally.
pub fn table1_online_experiments(scale: Scale, seed: u64, threads: usize) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "table1",
        "Summary of online experiments (simulated services)",
    );
    let mut rng = StdRng::seed_from_u64(seed);

    // --- Google Places: COUNT of Starbucks (pass-through selection). -------
    let pois = usa_dataset(scale, seed);
    let region = pois.bbox();
    let budget = scale.lr_budget();
    let google = SimulatedLbs::new(
        pois.clone(),
        ServiceConfig::lr_lbs(10).with_max_radius(region.diagonal()),
    );
    let starbucks_truth = pois.count_where(|t| t.text_eq(attrs::BRAND, "Starbucks")) as f64;
    let filtered = google.filtered(&PassThroughFilter::equals(attrs::BRAND, "Starbucks"));
    let est = run_lr(
        &filtered,
        &region,
        &Aggregate::count_all(),
        budget,
        seed + 11,
        LrLbsAggConfig::default(),
        threads,
    );
    result.add_engine(&est.engine);
    result.push(
        Row::new()
            .with("LBS", "Google-Places-like")
            .with("aggregate", "COUNT(Starbucks in US)")
            .with_f64("estimate", est.value)
            .with_f64("ground truth", starbucks_truth)
            .with(
                "rel error",
                format!("{:.3}", est.relative_error(starbucks_truth)),
            )
            .with("budget", est.query_cost),
    );

    // --- Google Places: COUNT of restaurants open on Sundays in a metro. ---
    let metro = match scale {
        Scale::Paper => lbs_data::region::austin_tx(),
        _ => Rect::from_bounds(
            region.min_x + region.width() * 0.40,
            region.min_y + region.height() * 0.15,
            region.min_x + region.width() * 0.60,
            region.min_y + region.height() * 0.35,
        ),
    };
    let open_sunday = Aggregate::count_where(Selection::And(vec![
        Selection::TextEquals {
            attr: attrs::CATEGORY.to_string(),
            value: "restaurant".to_string(),
        },
        Selection::Flag {
            attr: attrs::OPEN_SUNDAY.to_string(),
            expected: true,
        },
    ]));
    let sunday_truth = open_sunday.ground_truth(&pois, &metro);
    let est = run_lr(
        &google,
        &metro,
        &open_sunday,
        budget,
        seed + 13,
        LrLbsAggConfig::default(),
        threads,
    );
    result.add_engine(&est.engine);
    result.push(
        Row::new()
            .with("LBS", "Google-Places-like")
            .with("aggregate", "COUNT(restaurants open Sundays, metro region)")
            .with_f64("estimate", est.value)
            .with_f64("ground truth", sunday_truth)
            .with(
                "rel error",
                format!("{:.3}", est.relative_error(sunday_truth.max(1.0))),
            )
            .with("budget", est.query_cost),
    );

    // --- WeChat and Weibo: user COUNT and gender ratio. ---------------------
    let mut user_rows = |name: &str, dataset: Dataset, k: usize| {
        let region = dataset.bbox();
        let service = SimulatedLbs::new(dataset.clone(), ServiceConfig::lnr_lbs(k));
        let count_truth = dataset.len() as f64;
        let male_truth = dataset.count_where(|t| t.text_eq(attrs::GENDER, "male")) as f64;
        let count_est = run_lnr(
            &service,
            &region,
            &Aggregate::count_all(),
            scale.lnr_budget(),
            seed + 17,
            LnrLbsAggConfig::default(),
            threads,
        );
        let male_agg = Aggregate::count_where(Selection::TextEquals {
            attr: attrs::GENDER.to_string(),
            value: "male".to_string(),
        });
        let male_est = run_lnr(
            &service,
            &region,
            &male_agg,
            scale.lnr_budget(),
            seed + 19,
            LnrLbsAggConfig::default(),
            threads,
        );
        result.add_engine(&count_est.engine);
        result.add_engine(&male_est.engine);
        let ratio_est = if count_est.value > 0.0 {
            100.0 * male_est.value / count_est.value
        } else {
            0.0
        };
        let ratio_truth = 100.0 * male_truth / count_truth;
        result.push(
            Row::new()
                .with("LBS", name)
                .with("aggregate", "COUNT(users)")
                .with_f64("estimate", count_est.value)
                .with_f64("ground truth", count_truth)
                .with(
                    "rel error",
                    format!("{:.3}", count_est.relative_error(count_truth)),
                )
                .with("budget", count_est.query_cost),
        );
        result.push(
            Row::new()
                .with("LBS", name)
                .with("aggregate", "male users (%)")
                .with_f64("estimate", ratio_est)
                .with_f64("ground truth", ratio_truth)
                .with(
                    "rel error",
                    format!(
                        "{:.3}",
                        (ratio_est - ratio_truth).abs() / ratio_truth.max(1e-9)
                    ),
                )
                .with("budget", male_est.query_cost),
        );
    };
    let wechat = ScenarioBuilder::wechat_users(scale.user_count()).build(&mut rng);
    user_rows("WeChat-like", wechat, 10);
    let weibo = ScenarioBuilder::weibo_users(scale.user_count()).build(&mut rng);
    user_rows("Weibo-like", weibo, 10);

    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-test every experiment at tiny scale: it must run, produce rows
    /// and render.
    #[test]
    fn every_experiment_runs_at_tiny_scale() {
        for id in all_experiment_ids() {
            let result = run_experiment_threaded(id, Scale::Tiny, 42, 1);
            assert_eq!(result.id, id);
            assert!(!result.rows.is_empty(), "{id} produced no rows");
            assert!(!result.to_table().is_empty());
            assert!(result.to_csv().contains('\n'));
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_experiment_panics() {
        let _ = run_experiment_threaded("fig99", Scale::Tiny, 1, 1);
    }

    #[test]
    fn fig11_reports_heavy_tailed_cells() {
        let res = fig11_voronoi_decomposition(Scale::Tiny, 7);
        let spread_row = res
            .rows
            .iter()
            .find(|r| r.get("statistic") == Some("max/p10 spread"))
            .expect("spread row present");
        let spread: f64 = spread_row.get("cell area km^2").unwrap().parse().unwrap();
        assert!(
            spread > 3.0,
            "urban/rural spread should be pronounced, got {spread}"
        );
    }

    #[test]
    fn experiments_are_bit_identical_across_thread_counts() {
        // The acceptance gate of the parallel driver at the harness level:
        // the same experiment, seed and scale must render byte-identical CSV
        // whether the samples ran on 1 thread or on 8.
        for id in ["fig12", "fig20"] {
            let serial = run_experiment_threaded(id, Scale::Micro, 2015, 1);
            let parallel = run_experiment_threaded(id, Scale::Micro, 2015, 8);
            assert_eq!(
                serial.to_csv(),
                parallel.to_csv(),
                "{id} differs between 1 and 8 threads"
            );
        }
    }

    #[test]
    fn fig20_full_config_beats_plain_baseline() {
        let res = fig20_error_reduction_ablation(Scale::Tiny, 3, 1);
        let err_of = |variant: &str| -> f64 {
            res.rows
                .iter()
                .find(|r| r.get("variant") == Some(variant))
                .and_then(|r| r.get("rel error"))
                .unwrap()
                .parse()
                .unwrap()
        };
        let samples_of = |variant: &str| -> f64 {
            res.rows
                .iter()
                .find(|r| r.get("variant") == Some(variant))
                .and_then(|r| r.get("samples within budget"))
                .unwrap()
                .parse()
                .unwrap()
        };
        // The full configuration must fit at least as many samples into the
        // budget as the plain baseline (that is what the techniques buy).
        assert!(samples_of("LR-LBS-AGG-4") >= samples_of("LR-LBS-AGG-0"));
        // And its error should not be dramatically worse.
        assert!(err_of("LR-LBS-AGG-4") <= err_of("LR-LBS-AGG-0") + 0.25);
    }
}
