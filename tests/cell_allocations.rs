//! Allocation regression test of the pruned cell construction.
//!
//! Builds the same batch of pruned top-2 cells through
//! `top_k_cell_pruned_with` twice: once with a fresh `ClipScratch` arena per
//! cell (cold), once with one arena reused across the batch (warm, counted
//! after an uncounted warm-up pass). A warm build should allocate only the
//! returned cell's own storage, 1.0 per top-2 cell; a cold one also pays for
//! the arena's growth. The binary installs a counting global allocator and
//! holds this one test, so no other test's allocations land in the count.

use counting_alloc::CountingAlloc;
use lbs::data::ScenarioBuilder;
use lbs::geom::{sort_by_distance, top_k_cell_pruned_with, ClipScratch, Point};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const POIS: usize = 1_500;
const CELLS: usize = 200;
const CANDIDATES: usize = 64;
/// Ceiling on allocations per warm cell build. The headroom above the 1.0
/// floor covers richer results (a deeper k carries a larger vertex vector
/// and a convex hull). A buffer allocated per candidate or per clip trips
/// it at once; a single stray allocation per build (2.0) does not.
const WARM_ALLOCS_PER_CELL: f64 = 4.0;

#[test]
fn warm_cell_builds_allocate_only_the_returned_cell() {
    let mut rng = StdRng::seed_from_u64(2015);
    let dataset = ScenarioBuilder::usa_pois(POIS).build(&mut rng);
    let region = dataset.bbox();
    let points: Vec<Point> = dataset.tuples().iter().map(|t| t.location).collect();
    // Each site's nearest candidates in ascending order, prepared before
    // counting so that only the construction is counted.
    let sites: Vec<(Point, Vec<Point>)> = points[..CELLS]
        .iter()
        .map(|site| {
            let mut others: Vec<Point> = points
                .iter()
                .copied()
                .filter(|p| !p.approx_eq(site))
                .collect();
            sort_by_distance(site, &mut others);
            others.truncate(CANDIDATES);
            (*site, others)
        })
        .collect();

    let build_all = |fresh_per_cell: bool, shared: &mut ClipScratch| {
        let mut area = 0.0;
        for (site, others) in &sites {
            let mut fresh = ClipScratch::new();
            let scratch = if fresh_per_cell {
                &mut fresh
            } else {
                &mut *shared
            };
            let (cell, _) = top_k_cell_pruned_with(scratch, site, others, 2, &region, true);
            area += cell.area;
        }
        std::hint::black_box(area)
    };
    let allocations_per_cell = |fresh_per_cell: bool, shared: &mut ClipScratch| {
        let before = ALLOC.allocation_count();
        build_all(fresh_per_cell, shared);
        (ALLOC.allocation_count() - before) as f64 / CELLS as f64
    };

    let mut shared = ClipScratch::new();
    let cold = allocations_per_cell(true, &mut shared);
    // Grow the shared arena to its steady-state capacity, uncounted.
    build_all(false, &mut shared);
    let warm = allocations_per_cell(false, &mut shared);
    println!("allocations per cell: cold {cold:.2}, warm {warm:.2}");
    assert!(cold > 0.0, "the counting allocator saw no allocation");
    assert!(
        warm <= WARM_ALLOCS_PER_CELL,
        "{warm:.2} allocations per warm cell build"
    );
    assert!(
        warm <= cold,
        "warm builds allocate more than cold ones: {warm:.2} > {cold:.2}"
    );
}
