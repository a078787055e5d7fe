//! The paper's flagship online demonstration (Table 1): estimate the number
//! of Starbucks cafés in the US by querying a Google-Places-like interface
//! with a pass-through keyword filter, and compare against the planted
//! ground truth.
//!
//! ```text
//! cargo run --release --example starbucks_count
//! ```

#![forbid(unsafe_code)]

use lbs::core::{Aggregate, LrLbsAgg, LrLbsAggConfig, Selection, SessionConfig};
use lbs::data::{attrs, ScenarioBuilder};
use lbs::service::{PassThroughFilter, ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(11);

    // 2 000 POIs, 60 of which are planted "Starbucks" cafés.
    let dataset = ScenarioBuilder::usa_pois(2_000)
        .with_starbucks(60)
        .build(&mut rng);
    let region = dataset.bbox();
    let truth = dataset.count_where(|t| t.text_eq(attrs::BRAND, "Starbucks")) as f64;

    // Google Places supports keyword filters, so the selection condition can
    // be passed through: the filtered view answers "k nearest Starbucks".
    let google = SimulatedLbs::new(dataset.clone(), ServiceConfig::lr_lbs(10));
    let starbucks_view = google.filtered(&PassThroughFilter::equals(attrs::BRAND, "Starbucks"));

    // One worker thread; the budget is checked after every sample.
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
    let cfg = SessionConfig::new(2_500, rng.next_u64()).with_wave_size(1);
    let estimate = estimator
        .run(&starbucks_view, &region, &Aggregate::count_all(), cfg)
        .expect("estimation succeeds");

    println!("COUNT(Starbucks in US)");
    println!("  estimate     : {:.0}", estimate.value);
    println!("  ground truth : {truth:.0}");
    println!(
        "  rel. error   : {:.1}%",
        100.0 * estimate.relative_error(truth)
    );
    println!("  query cost   : {}", estimate.query_cost);

    // The same machinery also answers selection conditions the service does
    // NOT support (post-processed): restaurants with a rating of at least 4
    // that are open on Sundays.
    let fancy_open_sunday = Aggregate::count_where(Selection::And(vec![
        Selection::TextEquals {
            attr: attrs::CATEGORY.into(),
            value: "restaurant".into(),
        },
        Selection::AtLeast {
            attr: attrs::RATING.into(),
            min: 4.0,
        },
        Selection::Flag {
            attr: attrs::OPEN_SUNDAY.into(),
            expected: true,
        },
    ]));
    let truth2 = fancy_open_sunday.ground_truth(&dataset, &region);
    let cfg = SessionConfig::new(2_500, rng.next_u64()).with_wave_size(1);
    let estimate2 = estimator
        .run(&google, &region, &fancy_open_sunday, cfg)
        .expect("estimation succeeds");
    println!("\nCOUNT(restaurants rated ≥ 4.0 and open on Sundays)");
    println!("  estimate     : {:.0}", estimate2.value);
    println!("  ground truth : {truth2:.0}");
    println!(
        "  rel. error   : {:.1}%",
        100.0 * estimate2.relative_error(truth2)
    );
    println!("  query cost   : {}", estimate2.query_cost);
}
