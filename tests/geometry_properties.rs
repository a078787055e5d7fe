//! Property-based tests on the geometric core, run through the facade crate.
//!
//! These complement the unit tests inside `lbs-geom` with randomized
//! invariants that tie several modules together:
//!
//! * top-k Voronoi cells of all sites tile the bounding box k times over,
//! * the exact cell area always agrees with a Monte-Carlo estimate,
//! * kNN results from the grid index agree with brute force (which is what
//!   makes the simulated service an exact kNN oracle),
//! * the density grid integrates to one over any partition of the box.
//!
//! The offline build environment has no `proptest`, so each property is
//! exercised over a deterministic batch of seeded-RNG cases; failures
//! report the seed so a case can be replayed in isolation.

use lbs::data::DensityGrid;
use lbs::geom::{top_k_cell, ConvexPolygon, Point, Rect};
use lbs::index::{BruteForceIndex, GridIndex, SpatialIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// Random sites in the 100x100 box, rejection-sampled so that every pair is
/// at least `min_sep` apart (the tiling property assumes general position).
fn separated_points(rng: &mut StdRng, min: usize, max: usize, min_sep: f64) -> Vec<Point> {
    let n = rng.gen_range(min..max);
    let mut sites: Vec<Point> = Vec::with_capacity(n);
    while sites.len() < n {
        let cand = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        if sites.iter().all(|s| s.distance(&cand) > min_sep) {
            sites.push(cand);
        }
    }
    sites
}

#[test]
fn topk_cells_tile_the_box_k_times() {
    let bbox = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA11CE + case);
        let sites = separated_points(&mut rng, 3, 12, 0.5);
        let k = rng.gen_range(1..3usize).min(sites.len());
        let mut total = 0.0;
        for (i, s) in sites.iter().enumerate() {
            let others: Vec<Point> = sites
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, p)| *p)
                .collect();
            total += top_k_cell(s, &others, k, &bbox).area;
        }
        let expected = k as f64 * bbox.area();
        assert!(
            (total - expected).abs() / expected < 1e-6,
            "case {case}: cells tile {total} instead of {expected}"
        );
    }
}

#[test]
fn exact_cell_area_matches_monte_carlo() {
    let bbox = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB0B + case);
        let sites = separated_points(&mut rng, 3, 10, 0.5);
        let site = sites[0];
        let others = &sites[1..];
        let cell = top_k_cell(&site, others, 1, &bbox);
        // Deterministic grid-sample Monte Carlo oracle.
        let n = 120usize;
        let mut inside = 0usize;
        for i in 0..n {
            for j in 0..n {
                let q = bbox.at_fraction((i as f64 + 0.5) / n as f64, (j as f64 + 0.5) / n as f64);
                let d_site = site.distance(&q);
                if others.iter().all(|o| o.distance(&q) > d_site - 1e-12) {
                    inside += 1;
                }
            }
        }
        let mc = bbox.area() * inside as f64 / (n * n) as f64;
        let tolerance =
            0.05 * bbox.area().max(1.0) * 0.1 + 0.02 * bbox.area() / sites.len() as f64 + 3.0;
        assert!(
            (cell.area - mc).abs() <= tolerance,
            "case {case}: exact {} vs MC {mc}",
            cell.area
        );
    }
}

#[test]
fn all_index_backends_agree() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE + case);
        let n = rng.gen_range(3..40usize);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        let q = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
        let k = rng.gen_range(1..8usize);
        let oracle = BruteForceIndex::build(&pts);
        let grid = GridIndex::build(&pts);
        let want: Vec<usize> = oracle.k_nearest(&q, k).iter().map(|n| n.id).collect();
        let got_grid: Vec<usize> = grid.k_nearest(&q, k).iter().map(|n| n.id).collect();
        assert_eq!(
            want, got_grid,
            "case {case}: grid disagrees with brute force"
        );
    }
}

#[test]
fn density_grid_mass_is_conserved() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD15C + case);
        let weights: Vec<f64> = (0..16).map(|_| rng.gen_range(0.0..10.0)).collect();
        let bbox = Rect::from_bounds(0.0, 0.0, 80.0, 40.0);
        let grid = DensityGrid::from_weights(bbox, 4, 4, weights);
        // Integrating over the two halves of the box sums to (almost) 1.
        let left = ConvexPolygon::from_rect(&Rect::from_bounds(0.0, 0.0, 40.0, 40.0));
        let right = ConvexPolygon::from_rect(&Rect::from_bounds(40.0, 0.0, 80.0, 40.0));
        let total = grid.integrate_convex(&left) + grid.integrate_convex(&right);
        assert!(
            (total - 1.0).abs() < 1e-9,
            "case {case}: total mass {total}"
        );
    }
}
