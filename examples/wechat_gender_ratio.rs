//! The paper's LNR-LBS demonstration (Table 1): estimate the number of users
//! and the male/female ratio of a WeChat-like social network whose "people
//! nearby" interface returns only ranked user ids — no coordinates.
//!
//! ```text
//! cargo run --release --example wechat_gender_ratio
//! ```

#![forbid(unsafe_code)]

use lbs::core::{Aggregate, LnrLbsAgg, LnrLbsAggConfig, Selection, SessionConfig};
use lbs::data::{attrs, ScenarioBuilder};
use lbs::service::{ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(21);

    // A WeChat-like user base over a China-sized plane (~67% male, matching
    // the ratio the paper estimated).
    let users = ScenarioBuilder::wechat_users(1_500).build(&mut rng);
    let region = users.bbox();
    let count_truth = users.len() as f64;
    let male_truth = users.count_where(|t| t.text_eq(attrs::GENDER, "male")) as f64;

    // Rank-only interface: top-10 nearby users, 50 m location obfuscation.
    let wechat = SimulatedLbs::new(users, ServiceConfig::lnr_lbs(10).with_obfuscation(0.05));

    let config = LnrLbsAggConfig {
        delta: 1.0, // km; the aggregate does not need fine cell edges
        ..LnrLbsAggConfig::default()
    };

    // One worker thread; the budget is checked after every sample.
    let estimator = LnrLbsAgg::new(config);
    let cfg = SessionConfig::new(5_000, rng.next_u64()).with_wave_size(1);
    let count = estimator
        .run(&wechat, &region, &Aggregate::count_all(), cfg)
        .expect("estimation succeeds");

    let male_agg = Aggregate::count_where(Selection::TextEquals {
        attr: attrs::GENDER.into(),
        value: "male".into(),
    });
    let cfg = SessionConfig::new(5_000, rng.next_u64()).with_wave_size(1);
    let male = estimator
        .run(&wechat, &region, &male_agg, cfg)
        .expect("estimation succeeds");

    let ratio = 100.0 * male.value / count.value.max(1.0);
    let ratio_truth = 100.0 * male_truth / count_truth;

    println!("WeChat-like LNR interface (rank-only answers)");
    println!(
        "  COUNT(users)     : estimate {:.0}   truth {count_truth:.0}   rel err {:.1}%",
        count.value,
        100.0 * count.relative_error(count_truth)
    );
    println!(
        "  male users       : estimate {:.0}   truth {male_truth:.0}",
        male.value
    );
    println!(
        "  gender ratio     : estimate {ratio:.1} : {:.1}   truth {ratio_truth:.1} : {:.1}",
        100.0 - ratio,
        100.0 - ratio_truth
    );
    println!(
        "  total query cost : {}",
        count.query_cost + male.query_cost
    );
}
