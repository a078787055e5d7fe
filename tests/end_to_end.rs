//! Cross-crate integration tests: generator → spatial index → LBS simulator →
//! estimators, exercised through the public facade crate exactly the way the
//! examples use it.

use lbs::core::{
    Aggregate, LnrLbsAgg, LnrLbsAggConfig, LrLbsAgg, LrLbsAggConfig, Selection, SessionConfig,
};
use lbs::data::{attrs, DensityGrid, ScenarioBuilder};
use lbs::geom::Rect;
use lbs::service::{LbsBackend, PassThroughFilter, ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn small_world(seed: u64, n: usize) -> (lbs::data::Dataset, Rect) {
    let mut rng = StdRng::seed_from_u64(seed);
    let region = Rect::from_bounds(0.0, 0.0, 300.0, 300.0);
    let dataset = ScenarioBuilder::usa_pois(n)
        .with_bbox(region)
        .build(&mut rng);
    (dataset, region)
}

#[test]
fn lr_pipeline_estimates_count_within_tolerance() {
    let (dataset, region) = small_world(1, 250);
    let truth = dataset.len() as f64;
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
    let mut rng = StdRng::seed_from_u64(2);
    let estimate = estimator
        .run(
            &service,
            &region,
            &Aggregate::count_all(),
            SessionConfig::new(3_000, rng.next_u64()).with_wave_size(1),
        )
        .unwrap();
    assert!(
        estimate.relative_error(truth) < 0.35,
        "estimate {} vs truth {truth}",
        estimate.value
    );
    assert!(estimate.samples > 10);
    assert!(service.queries_issued() >= 3_000);
}

#[test]
fn lnr_pipeline_estimates_count_without_locations() {
    let (dataset, region) = small_world(3, 120);
    let truth = dataset.len() as f64;
    let service = SimulatedLbs::new(dataset, ServiceConfig::lnr_lbs(10));
    let estimator = LnrLbsAgg::new(LnrLbsAggConfig {
        delta: 0.3,
        ..LnrLbsAggConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(4);
    let estimate = estimator
        .run(
            &service,
            &region,
            &Aggregate::count_all(),
            SessionConfig::new(8_000, rng.next_u64()).with_wave_size(1),
        )
        .unwrap();
    assert!(
        estimate.relative_error(truth) < 0.5,
        "estimate {} vs truth {truth}",
        estimate.value
    );
}

#[test]
fn pass_through_filter_estimates_a_brand_count() {
    let (dataset, region) = small_world(5, 300);
    let truth = dataset.count_where(|t| t.text_eq(attrs::BRAND, "Starbucks")) as f64;
    assert!(truth > 0.0, "the generator plants Starbucks cafés");
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let filtered = service.filtered(&PassThroughFilter::equals(attrs::BRAND, "Starbucks"));
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
    let mut rng = StdRng::seed_from_u64(6);
    let estimate = estimator
        .run(
            &filtered,
            &region,
            &Aggregate::count_all(),
            SessionConfig::new(1_500, rng.next_u64()).with_wave_size(1),
        )
        .unwrap();
    // Few matching tuples → coarse estimate, but it must be the right order
    // of magnitude and the budget must have been charged to the shared
    // accountant.
    assert!(estimate.value > 0.0);
    assert!(estimate.relative_error(truth) < 1.0);
    assert_eq!(service.queries_issued(), filtered.queries_issued());
}

#[test]
fn post_processed_selection_and_avg_ratio() {
    let (dataset, region) = small_world(7, 250);
    let agg = Aggregate::avg_where(
        attrs::RATING,
        Selection::TextEquals {
            attr: attrs::CATEGORY.into(),
            value: "restaurant".into(),
        },
    );
    let truth = agg.ground_truth(&dataset, &region);
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
    let mut rng = StdRng::seed_from_u64(8);
    let estimate = estimator
        .run(
            &service,
            &region,
            &agg,
            SessionConfig::new(2_000, rng.next_u64()).with_wave_size(1),
        )
        .unwrap();
    assert!(
        estimate.relative_error(truth) < 0.2,
        "AVG estimate {} vs truth {truth}",
        estimate.value
    );
}

#[test]
fn weighted_sampling_workflow_runs_end_to_end() {
    let mut rng = StdRng::seed_from_u64(9);
    let dataset = ScenarioBuilder::usa_pois(400).build(&mut rng);
    let region = dataset.bbox();
    let truth = dataset.len() as f64;
    let grid = DensityGrid::from_dataset(&dataset, 48, 32, 0.1);
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig {
        weighted_sampler: Some(grid),
        ..LrLbsAggConfig::default()
    });
    let estimate = estimator
        .run(
            &service,
            &region,
            &Aggregate::count_all(),
            SessionConfig::new(3_000, rng.next_u64()).with_wave_size(1),
        )
        .unwrap();
    assert!(
        estimate.relative_error(truth) < 0.35,
        "weighted estimate {} vs truth {truth}",
        estimate.value
    );
}

#[test]
fn max_radius_and_query_limit_restrictions_are_survivable() {
    let (dataset, region) = small_world(11, 150);
    let config = ServiceConfig::lr_lbs(10)
        .with_max_radius(60.0)
        .with_query_limit(1_200);
    let service = SimulatedLbs::new(dataset.clone(), config);
    let truth = dataset.len() as f64;
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
    let mut rng = StdRng::seed_from_u64(12);
    let estimate = estimator
        .run(
            &service,
            &region,
            &Aggregate::count_all(),
            SessionConfig::new(5_000, rng.next_u64()).with_wave_size(1),
        )
        .unwrap();
    // The hard service limit kicks in before our own budget.
    assert!(service.queries_issued() <= 1_200);
    // Empty answers count as zero contributions; the estimate stays finite
    // and in a plausible range.
    assert!(estimate.value.is_finite());
    assert!(estimate.value < truth * 4.0);
}

#[test]
fn experiment_harness_is_reachable_from_integration_tests() {
    use lbs_bench::{run_experiment_threaded, Scale};
    let result = run_experiment_threaded("fig11", Scale::Tiny, 1, 1);
    assert_eq!(result.id, "fig11");
    assert!(!result.rows.is_empty());
}
