//! # lbs-index
//!
//! Exact k-nearest-neighbour spatial indexes over 2-D points.
//!
//! The location based services modelled by the paper answer kNN queries over
//! their hidden tuple databases. This crate is the "database side" of the
//! simulator in `lbs-service`: it stores the tuple locations and answers
//! exact kNN and radius queries. Two implementations of the
//! [`SpatialIndex`] trait are provided:
//!
//! * [`GridIndex`] — a uniform bucket grid with ring-expansion search, the
//!   index every simulated service is built on (it builds in ~10 ms over a
//!   paper-size table);
//! * [`BruteForceIndex`] — the obviously-correct `O(n)` scan, the oracle the
//!   grid is tested against.
//!
//! Both return *exact* results ordered by increasing Euclidean distance with
//! ties broken by point id, and the grid's distances equal the oracle's to
//! the last bit.
//!
//! An index is immutable after `build` and `Send + Sync` (enforced by the
//! [`SpatialIndex`] supertraits and a compile-time test), so one index can
//! serve concurrent readers — which is what the parallel sample driver in
//! `lbs-core` does when it fans estimator samples across threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bruteforce;
mod grid;

pub use bruteforce::BruteForceIndex;
pub use grid::GridIndex;

use lbs_geom::Point;

/// A neighbour returned by a kNN or radius query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Neighbor {
    /// Index of the point in the slice the index was built over.
    pub id: usize,
    /// Euclidean distance from the query location to the point.
    pub distance: f64,
}

/// Exact spatial queries over a fixed set of 2-D points.
///
/// Implementations are built once from a slice of points and are immutable
/// afterwards, mirroring the "static hidden database" assumption the paper
/// makes for LBS such as Google Maps (§3.2.2).
pub trait SpatialIndex: Send + Sync {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// `true` when the index contains no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` nearest points to `query`, ordered by increasing distance and
    /// then by id. Returns fewer than `k` neighbours when the index holds
    /// fewer points.
    fn k_nearest(&self, query: &Point, k: usize) -> Vec<Neighbor>;

    /// All points within `radius` of `query`, ordered by increasing distance
    /// and then by id.
    fn within_radius(&self, query: &Point, radius: f64) -> Vec<Neighbor>;

    /// The nearest point to `query`, if the index is non-empty.
    fn nearest(&self, query: &Point) -> Option<Neighbor> {
        self.k_nearest(query, 1).into_iter().next()
    }
}

/// Sorts neighbours by `(distance, id)` — the canonical order every index
/// must produce so that results are deterministic and index-independent.
///
/// `total_cmp` orders exactly like `partial_cmp` on the finite distances real
/// queries produce, but stays a total order even if a NaN distance ever
/// sneaks in (a NaN-poisoned comparator would make the sort
/// implementation-defined instead of deterministic).
pub(crate) fn sort_neighbors(neighbors: &mut [Neighbor]) {
    neighbors.sort_by(cmp_neighbors);
}

/// The canonical order [`sort_neighbors`] sorts by.
pub(crate) fn cmp_neighbors(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect()
    }

    /// Points clustered like a POI table: dense towns, a sparse
    /// countryside, exact duplicates, and a few outliers far from the rest.
    pub(crate) fn clustered(seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::new();
        for _ in 0..6 {
            let c = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
            for _ in 0..300 {
                points.push(Point::new(
                    c.x + rng.gen_range(-8.0..8.0),
                    c.y + rng.gen_range(-8.0..8.0),
                ));
            }
        }
        for _ in 0..40 {
            points.push(Point::new(
                rng.gen_range(0.0..1000.0),
                rng.gen_range(0.0..1000.0),
            ));
        }
        for i in 0..20 {
            points.push(points[i * 37]);
        }
        points.push(Point::new(-400.0, 1200.0));
        points.push(Point::new(1500.0, -90.0));
        points
    }

    fn backends(points: &[Point]) -> Vec<(&'static str, Box<dyn SpatialIndex>)> {
        vec![
            (
                "brute",
                Box::new(BruteForceIndex::build(points)) as Box<dyn SpatialIndex>,
            ),
            ("grid", Box::new(GridIndex::build(points))),
        ]
    }

    #[test]
    fn all_backends_agree_on_knn() {
        let points = random_points(400, 11);
        let oracle = BruteForceIndex::build(&points);
        let mut rng = StdRng::seed_from_u64(99);
        for (name, idx) in backends(&points) {
            for _ in 0..50 {
                let q = Point::new(rng.gen_range(-100.0..1100.0), rng.gen_range(-100.0..1100.0));
                let k = rng.gen_range(1..20);
                let got = idx.k_nearest(&q, k);
                let expected = oracle.k_nearest(&q, k);
                assert_eq!(got.len(), expected.len(), "{name}: result length");
                for (g, e) in got.iter().zip(expected.iter()) {
                    assert_eq!(g.id, e.id, "{name}: neighbour id mismatch");
                    assert!((g.distance - e.distance).abs() < 1e-9, "{name}: distance");
                }
            }
        }
    }

    #[test]
    fn radius_queries_are_bit_identical_across_backends() {
        // The hot loops of both `within_radius` implementations compare
        // *squared* distances and take a single sqrt per emitted neighbour,
        // over the same `(dx² + dy²)` expression — so the returned distances
        // must agree to the last bit, not merely within a tolerance: the
        // grid answers exactly what the oracle would.
        let points = random_points(350, 91);
        let oracle = BruteForceIndex::build(&points);
        let mut rng = StdRng::seed_from_u64(17);
        for (name, idx) in backends(&points) {
            for _ in 0..40 {
                let q = Point::new(rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0));
                let r = rng.gen_range(0.0..400.0);
                let got: Vec<(usize, u64)> = idx
                    .within_radius(&q, r)
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect();
                let want: Vec<(usize, u64)> = oracle
                    .within_radius(&q, r)
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect();
                assert_eq!(got, want, "{name}: radius {r} at {q:?}");
            }
        }
    }

    #[test]
    fn knn_distances_are_bit_identical_across_backends() {
        // Same bit-level contract for the kNN path: both indexes derive
        // the emitted distance as sqrt(distance_sq) of the identical
        // squared-distance expression.
        let points = random_points(280, 57);
        let oracle = BruteForceIndex::build(&points);
        let mut rng = StdRng::seed_from_u64(23);
        for (name, idx) in backends(&points) {
            for _ in 0..40 {
                let q = Point::new(rng.gen_range(-50.0..1050.0), rng.gen_range(-50.0..1050.0));
                let k = rng.gen_range(1..25);
                let got: Vec<(usize, u64)> = idx
                    .k_nearest(&q, k)
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect();
                let want: Vec<(usize, u64)> = oracle
                    .k_nearest(&q, k)
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect();
                assert_eq!(got, want, "{name}: k {k} at {q:?}");
            }
        }
    }

    #[test]
    fn all_backends_agree_on_radius() {
        let points = random_points(300, 5);
        let oracle = BruteForceIndex::build(&points);
        let mut rng = StdRng::seed_from_u64(123);
        for (name, idx) in backends(&points) {
            for _ in 0..30 {
                let q = Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0));
                let r = rng.gen_range(1.0..200.0);
                let got = idx.within_radius(&q, r);
                let expected = oracle.within_radius(&q, r);
                assert_eq!(
                    got.iter().map(|n| n.id).collect::<Vec<_>>(),
                    expected.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "{name}: radius query mismatch"
                );
            }
        }
    }

    #[test]
    fn empty_index_behaviour() {
        for (name, idx) in backends(&[]) {
            assert!(idx.is_empty(), "{name}");
            assert!(idx.k_nearest(&Point::ORIGIN, 3).is_empty(), "{name}");
            assert!(idx.within_radius(&Point::ORIGIN, 10.0).is_empty(), "{name}");
            assert!(idx.nearest(&Point::ORIGIN).is_none(), "{name}");
        }
    }

    #[test]
    fn k_larger_than_size_returns_everything() {
        let points = random_points(7, 3);
        for (name, idx) in backends(&points) {
            let all = idx.k_nearest(&Point::new(500.0, 500.0), 50);
            assert_eq!(all.len(), 7, "{name}");
        }
    }

    #[test]
    fn results_are_sorted_by_distance() {
        let points = random_points(200, 17);
        for (name, idx) in backends(&points) {
            let res = idx.k_nearest(&Point::new(321.0, 654.0), 25);
            for w in res.windows(2) {
                assert!(w[0].distance <= w[1].distance + 1e-12, "{name}: unsorted");
            }
        }
    }

    #[test]
    fn clustered_points_exercise_grid_rings() {
        // Points concentrated in two tight clusters far apart, plus a query
        // in the empty middle — this stresses ring expansion and pruning.
        let mut points = Vec::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..150 {
            points.push(Point::new(
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
            ));
        }
        for _ in 0..150 {
            points.push(Point::new(
                rng.gen_range(990.0..1000.0),
                rng.gen_range(990.0..1000.0),
            ));
        }
        let oracle = BruteForceIndex::build(&points);
        for (name, idx) in backends(&points) {
            let q = Point::new(500.0, 500.0);
            let got = idx.k_nearest(&q, 10);
            let expected = oracle.k_nearest(&q, 10);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                expected.iter().map(|n| n.id).collect::<Vec<_>>(),
                "{name}"
            );
        }

        // A POI-like layout: queries in the sparse countryside reach many
        // grid rings out, towns put hundreds of points in one bucket, and
        // duplicates tie on distance.
        let points = clustered(5);
        let oracle = BruteForceIndex::build(&points);
        let mut rng = StdRng::seed_from_u64(6);
        let queries: Vec<Point> = (0..400)
            .map(|i| {
                if i % 4 == 0 {
                    points[rng.gen_range(0..points.len())]
                } else {
                    Point::new(rng.gen_range(-600.0..1700.0), rng.gen_range(-600.0..1700.0))
                }
            })
            .collect();
        let bits = |found: Vec<Neighbor>| -> Vec<(usize, u64)> {
            found.iter().map(|n| (n.id, n.distance.to_bits())).collect()
        };
        for (name, idx) in backends(&points) {
            for q in &queries {
                for k in [1, 2, 10, 40, points.len() + 5] {
                    assert_eq!(
                        bits(idx.k_nearest(q, k)),
                        bits(oracle.k_nearest(q, k)),
                        "{name}: k {k} at {q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_backends_are_send_and_sync() {
        // Compile-time guarantee the parallel sample driver in `lbs-core`
        // relies on: a built index can be shared by reference across worker
        // threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BruteForceIndex>();
        assert_send_sync::<GridIndex>();
    }

    #[test]
    fn concurrent_readers_see_identical_answers() {
        // Smoke test for shared read access: several threads hammer the same
        // index and every answer must match the single-threaded oracle.
        let points = random_points(500, 77);
        let grid = GridIndex::build(&points);
        let oracle = BruteForceIndex::build(&points);

        let queries: Vec<(Point, usize)> = {
            let mut rng = StdRng::seed_from_u64(123);
            (0..200)
                .map(|_| {
                    (
                        Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                        rng.gen_range(1..15),
                    )
                })
                .collect()
        };
        let expected: Vec<Vec<usize>> = queries
            .iter()
            .map(|(q, k)| oracle.k_nearest(q, *k).iter().map(|n| n.id).collect())
            .collect();

        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let (grid, queries, expected) = (&grid, &queries, &expected);
                scope.spawn(move || {
                    // Each worker walks the query list from a different
                    // offset so the threads interleave distinct probes.
                    for i in 0..queries.len() {
                        let slot = (i + worker * 53) % queries.len();
                        let (q, k) = &queries[slot];
                        let got: Vec<usize> = grid.k_nearest(q, *k).iter().map(|n| n.id).collect();
                        assert_eq!(got, expected[slot], "grid, query {slot}");
                    }
                });
            }
        });
    }
}
