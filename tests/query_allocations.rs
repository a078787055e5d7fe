//! Allocation regression test of the simulated service's query path.
//!
//! An answer shares each returned tuple's attributes with the service
//! instead of copying them, so a warm k = 10 query allocates a constant
//! number of times however many attributes the tuples carry: the POI table
//! has up to seven per tuple, the user table three. The binary installs a
//! counting global allocator and holds this one test, so no other test's
//! allocations land in the count.

use counting_alloc::CountingAlloc;
use lbs::data::{Dataset, ScenarioBuilder};
use lbs::geom::Point;
use lbs::service::{LbsBackend, ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const TUPLES: usize = 20_000;
const QUERIES: usize = 2_000;
const K: usize = 10;

/// Mean allocations of one query over `QUERIES` uniform query points, after
/// a warm-up pass over the same points.
fn allocations_per_query(dataset: Dataset, config: ServiceConfig, seed: u64) -> f64 {
    let bbox = dataset.bbox();
    let service = SimulatedLbs::new(dataset, config);
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Point> = (0..QUERIES)
        .map(|_| bbox.at_fraction(rng.gen(), rng.gen()))
        .collect();
    for p in &points {
        service.query(p).expect("unlimited budget");
    }
    let before = ALLOC.allocation_count();
    for p in &points {
        let answer = service.query(p).expect("unlimited budget");
        assert_eq!(answer.results.len(), K);
    }
    (ALLOC.allocation_count() - before) as f64 / QUERIES as f64
}

#[test]
fn a_query_allocates_a_constant_number_of_times() {
    let mut rng = StdRng::seed_from_u64(7);
    let pois = ScenarioBuilder::usa_pois(TUPLES).build(&mut rng);
    let users = ScenarioBuilder::wechat_users(TUPLES).build(&mut rng);
    let lr = allocations_per_query(pois, ServiceConfig::lr_lbs(K), 11);
    let lnr = allocations_per_query(users, ServiceConfig::lnr_lbs(K), 13);
    println!("allocations per query: LR usa_pois {lr:.2}, LNR wechat_users {lnr:.2}");
    assert_eq!(
        lr, lnr,
        "allocations must not depend on the attribute count"
    );
    assert!(lr <= 2.0, "{lr:.2} allocations per query");
}
