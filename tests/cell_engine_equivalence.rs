//! Pruned-versus-full cell-engine equivalence, from geometry to estimates.
//!
//! The security-radius certificate of `lbs_geom::cell_engine` claims the
//! pruned construction is *exactly* the full one — not approximately. These
//! tests hold it to that claim at every layer:
//!
//! * a seeded property loop over random sites, known-sets and `h` asserting
//!   the pruned construction returns byte-identical vertices and area to
//!   the unpruned O(n) construction, including collinear and
//!   duplicate-distance tie configurations;
//! * byte-identity of the `k = 1` path against the original
//!   `lbs_geom::top_k_cell` oracle (same clip sequence, certified clips
//!   provably the identity);
//! * nesting of the top-1/2/3 areas within the adaptive rule's rounding
//!   margin, the premise of its λ_1 shortcut;
//! * byte-identity of whole LR-LBS-AGG estimates with pruning and the cell
//!   cache enabled versus disabled, serial and parallel — the acceptance
//!   gate of the engine: speed must not move a single bit of any estimate.

use lbs::core::{Aggregate, HSelection, LrLbsAgg, LrLbsAggConfig, SessionConfig};
use lbs::data::ScenarioBuilder;
use lbs::geom::{
    level_region, level_region_pruned, level_region_pruned_with, top_k_cell, top_k_cell_pruned,
    top_k_cell_pruned_with, ClipScratch,
};
use lbs::geom::{sort_by_distance, HalfPlane, Point, Rect};
use lbs::service::{ServiceConfig, SimulatedLbs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bbox() -> Rect {
    Rect::from_bounds(0.0, 0.0, 100.0, 100.0)
}

fn assert_points_bitwise(a: &[Point], b: &[Point], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: vertex counts differ");
    for (pa, pb) in a.iter().zip(b.iter()) {
        assert_eq!(pa.x.to_bits(), pb.x.to_bits(), "{context}: x bits differ");
        assert_eq!(pa.y.to_bits(), pb.y.to_bits(), "{context}: y bits differ");
    }
}

/// Random known-set generator mixing uniform spread, a dense cluster near
/// the site (so pruning has something to certify), and deliberate
/// degeneracies: duplicate-distance ties, exact duplicates and collinear
/// runs.
fn random_candidates(rng: &mut StdRng, site: &Point) -> Vec<Point> {
    let n_uniform = rng.gen_range(4..20);
    let n_cluster = rng.gen_range(3..10);
    let mut pts: Vec<Point> = Vec::new();
    for _ in 0..n_uniform {
        pts.push(Point::new(
            rng.gen_range(0.0..100.0),
            rng.gen_range(0.0..100.0),
        ));
    }
    for _ in 0..n_cluster {
        pts.push(Point::new(
            (site.x + rng.gen_range(-8.0..8.0)).clamp(0.0, 100.0),
            (site.y + rng.gen_range(-8.0..8.0)).clamp(0.0, 100.0),
        ));
    }
    // Duplicate-distance tie: two candidates at the same distance from the
    // site in different directions.
    let d = rng.gen_range(3.0..20.0);
    pts.push(Point::new(site.x + d, site.y));
    pts.push(Point::new(site.x, site.y + d));
    // Exact duplicate of an existing candidate (coincident bisectors).
    let dup = pts[rng.gen_range(0..pts.len())];
    pts.push(dup);
    // Collinear run through the site.
    let step = rng.gen_range(2.0..6.0);
    for i in 1..=3 {
        pts.push(Point::new(site.x + step * i as f64, site.y));
    }
    pts.retain(|p| bbox().contains(p));
    sort_by_distance(site, &mut pts);
    pts
}

#[test]
fn property_pruned_equals_full_bitwise_over_random_configs() {
    let mut rng = StdRng::seed_from_u64(0x5eed_ce11);
    for case in 0..60 {
        let site = Point::new(rng.gen_range(5.0..95.0), rng.gen_range(5.0..95.0));
        let candidates = random_candidates(&mut rng, &site);
        for k in 1..=3usize {
            let (pruned, pruned_stats) = top_k_cell_pruned(&site, &candidates, k, &bbox(), true);
            let (full, full_stats) = top_k_cell_pruned(&site, &candidates, k, &bbox(), false);
            let context = format!("case {case}, k={k}");
            assert_eq!(
                pruned.area.to_bits(),
                full.area.to_bits(),
                "{context}: area bits differ (pruned {} vs full {})",
                pruned.area,
                full.area
            );
            assert_points_bitwise(&pruned.vertices, &full.vertices, &context);
            assert_eq!(full_stats.pruned, 0, "{context}: full mode must not prune");
            assert_eq!(
                pruned_stats.incorporated + pruned_stats.pruned,
                pruned_stats.candidates,
                "{context}: stats must account for every candidate"
            );
        }
    }
}

#[test]
fn property_k1_pruned_equals_legacy_oracle_bitwise() {
    // For k = 1 the legacy construction is a plain clip sequence; on the
    // same ascending candidate order the pruned path must reproduce it
    // bit for bit (certified clips are the identity on the vertex list).
    let mut rng = StdRng::seed_from_u64(0x000a_c1e5);
    for case in 0..80 {
        let site = Point::new(rng.gen_range(5.0..95.0), rng.gen_range(5.0..95.0));
        let candidates = random_candidates(&mut rng, &site);
        let oracle = top_k_cell(&site, &candidates, 1, &bbox());
        let (pruned, _) = top_k_cell_pruned(&site, &candidates, 1, &bbox(), true);
        let context = format!("case {case}");
        assert_eq!(
            pruned.area.to_bits(),
            oracle.area.to_bits(),
            "{context}: area bits differ from legacy oracle"
        );
        assert_points_bitwise(&pruned.vertices, &oracle.vertices, &context);
    }
}

#[test]
fn property_concave_area_matches_legacy_slab_oracle() {
    // For k > 1 the engine computes the area by the boundary-structure
    // method while the legacy oracle uses slab decomposition; both are
    // exact, so they must agree to floating-point accuracy — and the
    // vertex enumeration is shared code, so vertices stay byte-identical.
    let mut rng = StdRng::seed_from_u64(0xa5ea_51ab);
    for case in 0..40 {
        let site = Point::new(rng.gen_range(5.0..95.0), rng.gen_range(5.0..95.0));
        let candidates = random_candidates(&mut rng, &site);
        for k in 2..=3usize {
            let oracle = top_k_cell(&site, &candidates, k, &bbox());
            let (engine, _) = top_k_cell_pruned(&site, &candidates, k, &bbox(), true);
            let context = format!("case {case}, k={k}");
            assert_points_bitwise(&engine.vertices, &oracle.vertices, &context);
            let scale = oracle.area.max(1.0);
            assert!(
                (engine.area - oracle.area).abs() / scale < 1e-7,
                "{context}: boundary area {} vs slab {}",
                engine.area,
                oracle.area
            );
        }
    }
}

#[test]
fn property_lambda_bounds_nest_across_levels() {
    // The premise of the adaptive rule's λ_1 shortcut: top-h cells over one
    // neighbour list nest (V_1 ⊆ V_2 ⊆ V_3), so the computed bounds may only
    // break λ_1 ≤ λ_2 ≤ λ_3 by rounding, which the shortcut's margin covers.
    // Checked on the same corpus, collinear and duplicate-distance ties
    // included, near the origin and far from it.
    let mut rng = StdRng::seed_from_u64(0x00a5_7ed1);
    let far = Point::new(1e6, -2e6);
    for case in 0..80 {
        let site = Point::new(rng.gen_range(5.0..95.0), rng.gen_range(5.0..95.0));
        let candidates = random_candidates(&mut rng, &site);
        // Shifting rounds, so the far copy is re-sorted from its own site.
        let mut shifted: Vec<Point> = candidates.iter().map(|p| *p + far).collect();
        sort_by_distance(&(site + far), &mut shifted);
        let far_box = Rect::from_bounds(far.x, far.y, far.x + 100.0, far.y + 100.0);
        for (site, candidates, region) in
            [(site, candidates, bbox()), (site + far, shifted, far_box)]
        {
            let margin = HSelection::lambda_margin(&region);
            let lambdas: Vec<f64> = (1..=3)
                .map(|k| {
                    top_k_cell_pruned(&site, &candidates, k, &region, true)
                        .0
                        .area
                })
                .collect();
            assert!(
                lambdas[0] <= lambdas[1] + margin && lambdas[1] <= lambdas[2] + margin,
                "case {case}: λ = {lambdas:?} do not nest within {margin}"
            );
        }
    }
}

#[test]
fn property_level_region_pruned_equals_full_and_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0001_e7e1);
    for case in 0..40 {
        let anchor = Point::new(rng.gen_range(20.0..80.0), rng.gen_range(20.0..80.0));
        let candidates = random_candidates(&mut rng, &anchor);
        let planes: Vec<HalfPlane> = candidates
            .iter()
            .filter_map(|o| HalfPlane::closer_to(&anchor, o))
            .collect();
        for k in 1..=3usize {
            let (pruned, _) = level_region_pruned(&planes, &anchor, k, &bbox(), true);
            let (full, _) = level_region_pruned(&planes, &anchor, k, &bbox(), false);
            let context = format!("case {case}, k={k}");
            assert_eq!(
                pruned.area.to_bits(),
                full.area.to_bits(),
                "{context}: level-region area bits differ"
            );
            assert_points_bitwise(&pruned.vertices, &full.vertices, &context);
            let oracle = level_region(&planes, k, &bbox());
            let scale = oracle.area.max(1.0);
            assert!(
                (pruned.area - oracle.area).abs() / scale < 1e-7,
                "{context}: {} vs oracle {}",
                pruned.area,
                oracle.area
            );
        }
    }
}

#[test]
fn property_warm_scratch_equals_fresh_arena_bitwise() {
    // The arena contract: a ClipScratch that has been through any number of
    // prior builds (warm — buffers sized by whatever came before) must
    // produce byte-identical cells, areas, vertex orders and build stats to
    // a fresh arena, for both the top-k and the level-region constructions.
    // One arena is deliberately reused across every case and k below, so
    // each build runs on buffers warmed by a *different* configuration.
    let mut rng = StdRng::seed_from_u64(0x5c4a_7c11);
    let mut warm = ClipScratch::new();
    for case in 0..60 {
        let site = Point::new(rng.gen_range(5.0..95.0), rng.gen_range(5.0..95.0));
        let candidates = random_candidates(&mut rng, &site);
        let planes: Vec<HalfPlane> = candidates
            .iter()
            .filter_map(|o| HalfPlane::closer_to(&site, o))
            .collect();
        for k in 1..=3usize {
            for prune in [true, false] {
                let context = format!("case {case}, k={k}, prune={prune}");
                let (warm_cell, warm_stats) =
                    top_k_cell_pruned_with(&mut warm, &site, &candidates, k, &bbox(), prune);
                let (fresh_cell, fresh_stats) =
                    top_k_cell_pruned(&site, &candidates, k, &bbox(), prune);
                assert_eq!(
                    warm_cell.area.to_bits(),
                    fresh_cell.area.to_bits(),
                    "{context}: cell area bits differ"
                );
                assert_points_bitwise(&warm_cell.vertices, &fresh_cell.vertices, &context);
                assert_eq!(warm_stats, fresh_stats, "{context}: build stats differ");

                let (warm_region, warm_region_stats) =
                    level_region_pruned_with(&mut warm, &planes, &site, k, &bbox(), prune);
                let (fresh_region, fresh_region_stats) =
                    level_region_pruned(&planes, &site, k, &bbox(), prune);
                assert_eq!(
                    warm_region.area.to_bits(),
                    fresh_region.area.to_bits(),
                    "{context}: level-region area bits differ"
                );
                assert_points_bitwise(&warm_region.vertices, &fresh_region.vertices, &context);
                assert_eq!(
                    warm_region_stats, fresh_region_stats,
                    "{context}: region build stats differ"
                );
            }
        }
    }
}

fn run_lr(prune: bool, cache: bool, threads: usize) -> lbs::core::Estimate {
    let mut rng = StdRng::seed_from_u64(41);
    let dataset = ScenarioBuilder::usa_pois(140).build(&mut rng);
    let region = dataset.bbox();
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let mut estimator = LrLbsAgg::new(LrLbsAggConfig {
        prune_cells: prune,
        cache_cells: cache,
        ..LrLbsAggConfig::default()
    });
    let cfg = SessionConfig::new(900, 2015).with_threads(threads);
    estimator
        .run(&service, &region, &Aggregate::count_all(), cfg)
        .expect("estimation must produce samples")
}

#[test]
fn lr_estimates_are_byte_identical_with_and_without_engine() {
    // The engine acceptance gate: pruning and caching must not move a bit
    // of any estimate, at any thread count.
    let baseline = run_lr(false, false, 1);
    for (prune, cache) in [(true, false), (false, true), (true, true)] {
        for threads in [1, 2] {
            let engine = run_lr(prune, cache, threads);
            let label = format!("prune={prune} cache={cache} threads={threads}");
            assert_eq!(
                baseline.value.to_bits(),
                engine.value.to_bits(),
                "{label}: value differs"
            );
            assert_eq!(
                baseline.ci95.0.to_bits(),
                engine.ci95.0.to_bits(),
                "{label}"
            );
            assert_eq!(
                baseline.ci95.1.to_bits(),
                engine.ci95.1.to_bits(),
                "{label}"
            );
            assert_eq!(baseline.samples, engine.samples, "{label}: samples differ");
            assert_eq!(
                baseline.query_cost, engine.query_cost,
                "{label}: query cost differs"
            );
        }
    }
    // And the engine must actually be doing something on this workload.
    let engine = run_lr(true, true, 1);
    assert!(engine.engine.pruned > 0, "certificate never pruned");
    assert!(engine.engine.cache_hits > 0, "cell cache never hit");
}
