//! Uniform-grid spatial index with ring-expansion kNN search.
//!
//! The grid partitions the bounding box of the points into roughly
//! `sqrt(n) × sqrt(n)` buckets. A kNN query inspects buckets in growing
//! Chebyshev rings around the query's bucket; the search stops once the
//! closest possible distance of the next unvisited ring exceeds the current
//! k-th best distance, which makes the result exact.
//!
//! A ring costs its perimeter, not the square it encloses, and the search
//! keeps only the `k` best candidates in a bounded heap: in the sparse parts
//! of a clustered database the k-th neighbour can lie dozens of rings out.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lbs_geom::{Point, Rect};

use crate::{cmp_neighbors, sort_neighbors, Neighbor, SpatialIndex};

/// Uniform bucket-grid index.
#[derive(Clone, Debug)]
pub struct GridIndex {
    points: Vec<Point>,
    bbox: Rect,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    buckets: Vec<Vec<usize>>,
}

impl GridIndex {
    /// Builds the index over a slice of points (the slice is copied).
    pub fn build(points: &[Point]) -> Self {
        Self::build_with_resolution(points, 0)
    }

    /// Builds the index with an explicit grid resolution (`cols == rows ==
    /// resolution`). A resolution of `0` picks `ceil(sqrt(n))` clamped to
    /// `[1, 1024]`.
    pub fn build_with_resolution(points: &[Point], resolution: usize) -> Self {
        let bbox = Rect::bounding(points.iter().copied())
            .unwrap_or_else(|| Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        // Guard against a degenerate (zero-extent) bounding box.
        let bbox = if bbox.width() <= 0.0 || bbox.height() <= 0.0 {
            bbox.expanded(1.0)
        } else {
            bbox
        };
        let n = points.len().max(1);
        let res = if resolution == 0 {
            ((n as f64).sqrt().ceil() as usize).clamp(1, 1024)
        } else {
            resolution.clamp(1, 4096)
        };
        let cols = res;
        let rows = res;
        let cell_w = bbox.width() / cols as f64;
        let cell_h = bbox.height() / rows as f64;
        let mut buckets = vec![Vec::new(); cols * rows];
        let mut idx = GridIndex {
            points: points.to_vec(),
            bbox,
            cols,
            rows,
            cell_w,
            cell_h,
            buckets: Vec::new(),
        };
        for (i, p) in points.iter().enumerate() {
            let (cx, cy) = idx.bucket_of(p);
            buckets[cy * cols + cx].push(i);
        }
        idx.buckets = buckets;
        idx
    }

    fn bucket_of(&self, p: &Point) -> (usize, usize) {
        let cx = (((p.x - self.bbox.min_x) / self.cell_w) as isize).clamp(0, self.cols as isize - 1)
            as usize;
        let cy = (((p.y - self.bbox.min_y) / self.cell_h) as isize).clamp(0, self.rows as isize - 1)
            as usize;
        (cx, cy)
    }

    /// Visits the bucket indices on the Chebyshev ring at distance `ring`
    /// from `(cx, cy)`, calling `f` once for each existing bucket: the top
    /// and bottom rows in full, then the left and right columns between
    /// them, each clipped to the grid.
    fn for_ring_buckets<F: FnMut(&[usize])>(&self, cx: usize, cy: usize, ring: usize, mut f: F) {
        let bucket = |x: usize, y: usize| self.buckets[y * self.cols + x].as_slice();
        if ring == 0 {
            f(bucket(cx, cy));
            return;
        }
        let x_lo = cx.saturating_sub(ring);
        let x_hi = (cx + ring).min(self.cols - 1);
        let y_lo = cy.saturating_sub(ring - 1);
        let y_hi = (cy + ring - 1).min(self.rows - 1);
        for y in [cy.checked_sub(ring), Some(cy + ring)] {
            if let Some(y) = y.filter(|&y| y < self.rows) {
                (x_lo..=x_hi).for_each(|x| f(bucket(x, y)));
            }
        }
        for x in [cx.checked_sub(ring), Some(cx + ring)] {
            if let Some(x) = x.filter(|&x| x < self.cols) {
                (y_lo..=y_hi).for_each(|y| f(bucket(x, y)));
            }
        }
    }

    fn max_ring(&self) -> usize {
        self.cols.max(self.rows)
    }
}

/// A kNN candidate ordered canonically (distance, then id), so a max-heap
/// of them keeps the worst of the best `k` on top.
struct Ranked(Neighbor);

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_neighbors(&self.0, &other.0)
    }
}

impl SpatialIndex for GridIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn k_nearest(&self, query: &Point, k: usize) -> Vec<Neighbor> {
        if k == 0 || self.points.is_empty() {
            return Vec::new();
        }
        let clamped = self.bbox.clamp(query);
        let (cx, cy) = self.bucket_of(&clamped);
        let min_cell = self.cell_w.min(self.cell_h);

        // The best `k` candidates so far, the worst of them on top. The
        // answer is the first `k` of every visited point in canonical order,
        // whatever order the buckets are visited in.
        let mut best: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k.min(self.points.len()) + 1);
        let mut ring = 0usize;
        loop {
            self.for_ring_buckets(cx, cy, ring, |bucket| {
                for &id in bucket {
                    let candidate = Ranked(Neighbor {
                        id,
                        distance: query.distance(&self.points[id]),
                    });
                    if best.len() < k {
                        best.push(candidate);
                    } else if let Some(mut worst) = best.peek_mut() {
                        if candidate < *worst {
                            *worst = candidate;
                        }
                    }
                }
            });
            // Can we stop? Only when we already have k candidates and the
            // next ring cannot contain anything closer than the current k-th
            // best. A point in ring `r+1` is at least `r * min_cell` away
            // from the query's bucket (conservative bound that also covers a
            // query outside the bounding box via the clamp above).
            if best.len() >= k {
                let kth = best.peek().map_or(f64::INFINITY, |worst| worst.0.distance);
                let next_ring_min_dist =
                    (ring as f64) * min_cell - query.distance(&clamped) - min_cell;
                if next_ring_min_dist > kth {
                    break;
                }
            }
            ring += 1;
            if ring > self.max_ring() {
                break;
            }
        }
        best.into_sorted_vec().into_iter().map(|r| r.0).collect()
    }

    fn within_radius(&self, query: &Point, radius: f64) -> Vec<Neighbor> {
        if self.points.is_empty() || radius < 0.0 {
            return Vec::new();
        }
        let clamped = self.bbox.clamp(query);
        let (cx, cy) = self.bucket_of(&clamped);
        let min_cell = self.cell_w.min(self.cell_h);
        // Enough rings to cover `radius` around the query plus the clamp gap.
        let reach = radius + query.distance(&clamped);
        let rings_needed = ((reach / min_cell).ceil() as usize + 2).min(self.max_ring());

        let mut out = Vec::new();
        let r_sq = radius * radius;
        for ring in 0..=rings_needed {
            self.for_ring_buckets(cx, cy, ring, |bucket| {
                for &id in bucket {
                    let d = query.distance_sq(&self.points[id]);
                    if d <= r_sq {
                        out.push(Neighbor {
                            id,
                            distance: d.sqrt(),
                        });
                    }
                }
            });
        }
        sort_neighbors(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BruteForceIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_bruteforce_on_grid_layout() {
        // Points on a lattice: many exact ties, stressing tie-breaking.
        let mut points = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                points.push(Point::new(i as f64, j as f64));
            }
        }
        let grid = GridIndex::build(&points);
        let oracle = BruteForceIndex::build(&points);
        for q in [
            Point::new(10.5, 10.5),
            Point::new(0.0, 0.0),
            Point::new(19.0, 19.0),
            Point::new(-5.0, 8.0),
            Point::new(25.0, 25.0),
        ] {
            let got: Vec<usize> = grid.k_nearest(&q, 8).iter().map(|n| n.id).collect();
            let want: Vec<usize> = oracle.k_nearest(&q, 8).iter().map(|n| n.id).collect();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn explicit_resolution_is_respected_and_correct() {
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 13 % 97) as f64, (i * 29 % 89) as f64))
            .collect();
        let coarse = GridIndex::build_with_resolution(&points, 2);
        let fine = GridIndex::build_with_resolution(&points, 64);
        let oracle = BruteForceIndex::build(&points);
        let q = Point::new(40.0, 40.0);
        let want: Vec<usize> = oracle.k_nearest(&q, 5).iter().map(|n| n.id).collect();
        assert_eq!(
            coarse
                .k_nearest(&q, 5)
                .iter()
                .map(|n| n.id)
                .collect::<Vec<_>>(),
            want
        );
        assert_eq!(
            fine.k_nearest(&q, 5)
                .iter()
                .map(|n| n.id)
                .collect::<Vec<_>>(),
            want
        );
    }

    #[test]
    fn identical_points_handled() {
        let points = vec![Point::new(5.0, 5.0); 10];
        let grid = GridIndex::build(&points);
        let res = grid.k_nearest(&Point::new(5.0, 5.0), 4);
        assert_eq!(
            res.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn rings_visit_each_bucket_at_their_distance_once() {
        let points = crate::tests::clustered(3);
        let grid = GridIndex::build_with_resolution(&points, 9);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let (cx, cy) = (rng.gen_range(0..grid.cols), rng.gen_range(0..grid.rows));
            for ring in 0..=grid.max_ring() + 1 {
                let mut got = Vec::new();
                grid.for_ring_buckets(cx, cy, ring, |bucket| got.extend_from_slice(bucket));
                got.sort_unstable();
                let want: Vec<usize> = (0..points.len())
                    .filter(|&id| {
                        let (x, y) = grid.bucket_of(&points[id]);
                        x.abs_diff(cx).max(y.abs_diff(cy)) == ring
                    })
                    .collect();
                assert_eq!(got, want, "ring {ring} around ({cx}, {cy})");
            }
        }
    }

    #[test]
    fn radius_far_outside_bbox() {
        let points = vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let grid = GridIndex::build(&points);
        let res = grid.within_radius(&Point::new(100.0, 100.0), 150.0);
        assert_eq!(res.len(), 2);
        let none = grid.within_radius(&Point::new(100.0, 100.0), 10.0);
        assert!(none.is_empty());
    }
}
