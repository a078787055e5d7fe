//! Quickstart: estimate how many tuples a hidden LBS database holds by only
//! talking to its kNN interface.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![forbid(unsafe_code)]

use lbs::core::{Aggregate, LnrLbsAgg, LnrLbsAggConfig, LrLbsAgg, LrLbsAggConfig, SessionConfig};
use lbs::data::ScenarioBuilder;
use lbs::service::{LbsBackend, ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // A synthetic "hidden database": 1 200 points of interest spread over a
    // USA-sized plane with urban clustering.
    let dataset = ScenarioBuilder::usa_pois(1_200).build(&mut rng);
    let region = dataset.bbox();
    let truth = dataset.len() as f64;
    println!(
        "hidden database: {truth} POIs over {:.0} km²",
        region.area()
    );

    // 1) A Google-Maps-like interface: top-10 nearest tuples, locations
    //    returned. LR-LBS-AGG computes exact Voronoi cells and is unbiased.
    let lr_service = SimulatedLbs::new(dataset.clone(), ServiceConfig::lr_lbs(10));
    //    One worker thread; the budget is checked after every sample.
    let mut lr = LrLbsAgg::new(LrLbsAggConfig::default());
    let cfg = SessionConfig::new(2_000, rng.next_u64()).with_wave_size(1);
    let estimate = lr
        .run(&lr_service, &region, &Aggregate::count_all(), cfg)
        .expect("estimation succeeds");
    println!(
        "LR-LBS-AGG : COUNT(*) ≈ {:.0}  (95% CI {:.0}..{:.0}, {} queries, rel err {:.1}%)",
        estimate.value,
        estimate.ci95.0,
        estimate.ci95.1,
        estimate.query_cost,
        100.0 * estimate.relative_error(truth)
    );

    // 2) A WeChat-like interface: same database, but only ranked ids are
    //    returned. LNR-LBS-AGG infers Voronoi cells from ranks alone.
    let lnr_service = SimulatedLbs::new(dataset, ServiceConfig::lnr_lbs(10));
    let lnr = LnrLbsAgg::new(LnrLbsAggConfig {
        delta: 1.0, // km; coarser edges keep the demo fast
        ..LnrLbsAggConfig::default()
    });
    let cfg = SessionConfig::new(4_000, rng.next_u64()).with_wave_size(1);
    let estimate = lnr
        .run(&lnr_service, &region, &Aggregate::count_all(), cfg)
        .expect("estimation succeeds");
    println!(
        "LNR-LBS-AGG: COUNT(*) ≈ {:.0}  ({} queries, rel err {:.1}%)",
        estimate.value,
        estimate.query_cost,
        100.0 * estimate.relative_error(truth)
    );
    println!(
        "(the service answered {} kNN queries in total)",
        lnr_service.queries_issued()
    );
}
