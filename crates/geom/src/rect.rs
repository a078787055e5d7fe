//! Axis-aligned rectangles.
//!
//! A [`Rect`] plays two roles in the reproduction:
//!
//! * the **bounding box `B`** of the paper's Definition 1, which makes every
//!   Voronoi cell a finite region and doubles as the region an aggregate
//!   query ranges over, and
//! * the query **regions** used by selection conditions (e.g. "Austin, TX").

use serde::{Deserialize, Serialize};

use crate::point::Point;
use crate::EPS;

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (in any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// Creates a rectangle from explicit bounds.
    ///
    /// # Panics
    /// Panics if `min_x > max_x` or `min_y > max_y`.
    pub fn from_bounds(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x <= max_x && min_y <= max_y,
            "invalid rectangle bounds: ({min_x},{min_y})-({max_x},{max_y})"
        );
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// A square of side `2 * half` centred on `c`.
    pub fn centered(c: Point, half: f64) -> Self {
        Rect::from_bounds(c.x - half, c.y - half, c.x + half, c.y + half)
    }

    /// The smallest rectangle containing every point of the iterator.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut r = Rect::new(first, first);
        for p in iter {
            r.min_x = r.min_x.min(p.x);
            r.min_y = r.min_y.min(p.y);
            r.max_x = r.max_x.max(p.x);
            r.max_y = r.max_y.max(p.y);
        }
        Some(r)
    }

    /// Width (x extent) of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height (y extent) of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter of the rectangle (the `b` constant of the paper's binary
    /// search cost bound `O(log(b/δ))`).
    #[inline]
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Length of the diagonal.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        (self.width() * self.width() + self.height() * self.height()).sqrt()
    }

    /// Centre of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) * 0.5,
            (self.min_y + self.max_y) * 0.5,
        )
    }

    /// `true` when the point lies inside or on the boundary (within [`EPS`]).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x - EPS
            && p.x <= self.max_x + EPS
            && p.y >= self.min_y - EPS
            && p.y <= self.max_y + EPS
    }

    /// `true` when the point lies strictly inside (more than [`EPS`] away from
    /// every edge).
    #[inline]
    pub fn contains_strict(&self, p: &Point) -> bool {
        p.x > self.min_x + EPS
            && p.x < self.max_x - EPS
            && p.y > self.min_y + EPS
            && p.y < self.max_y - EPS
    }

    /// `true` when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x - EPS
            && other.max_x <= self.max_x + EPS
            && other.min_y >= self.min_y - EPS
            && other.max_y <= self.max_y + EPS
    }

    /// `true` when the two rectangles overlap (closed intersection).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x + EPS
            && other.min_x <= self.max_x + EPS
            && self.min_y <= other.max_y + EPS
            && other.min_y <= self.max_y + EPS
    }

    /// Intersection of the two rectangles, if non-empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let min_x = self.min_x.max(other.min_x);
        let min_y = self.min_y.max(other.min_y);
        let max_x = self.max_x.min(other.max_x);
        let max_y = self.max_y.min(other.max_y);
        if min_x <= max_x && min_y <= max_y {
            Some(Rect::from_bounds(min_x, min_y, max_x, max_y))
        } else {
            None
        }
    }

    /// The rectangle grown by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect::from_bounds(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
    }

    /// The four corners in counter-clockwise order starting at
    /// `(min_x, min_y)`.
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.max_x, self.max_y),
            Point::new(self.min_x, self.max_y),
        ]
    }

    /// Clamps a point into the rectangle.
    pub fn clamp(&self, p: &Point) -> Point {
        Point::new(
            p.x.clamp(self.min_x, self.max_x),
            p.y.clamp(self.min_y, self.max_y),
        )
    }

    /// Maps a pair of unit-interval coordinates to a point of the rectangle.
    ///
    /// `(0, 0)` maps to the min corner and `(1, 1)` to the max corner. This is
    /// the hook used by the samplers in `lbs-core` so that they can stay
    /// agnostic of the rectangle layout.
    pub fn at_fraction(&self, fx: f64, fy: f64) -> Point {
        Point::new(
            self.min_x + fx * self.width(),
            self.min_y + fy * self.height(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::from_bounds(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn construction_orders_corners() {
        let r = Rect::new(Point::new(2.0, -1.0), Point::new(-3.0, 4.0));
        assert_eq!(r, Rect::from_bounds(-3.0, -1.0, 2.0, 4.0));
    }

    #[test]
    #[should_panic]
    fn invalid_bounds_panic() {
        let _ = Rect::from_bounds(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn measures() {
        let r = Rect::from_bounds(0.0, 0.0, 3.0, 4.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.perimeter(), 14.0);
        assert!((r.diagonal() - 5.0).abs() < 1e-12);
        assert!(r.center().approx_eq(&Point::new(1.5, 2.0)));
    }

    #[test]
    fn containment() {
        let r = unit();
        assert!(r.contains(&Point::new(0.5, 0.5)));
        assert!(r.contains(&Point::new(0.0, 1.0)));
        assert!(!r.contains(&Point::new(1.5, 0.5)));
        assert!(r.contains_strict(&Point::new(0.5, 0.5)));
        assert!(!r.contains_strict(&Point::new(0.0, 0.5)));
    }

    #[test]
    fn rect_rect_relations() {
        let r = unit();
        let inner = Rect::from_bounds(0.25, 0.25, 0.75, 0.75);
        let overlapping = Rect::from_bounds(0.5, 0.5, 2.0, 2.0);
        let outside = Rect::from_bounds(2.0, 2.0, 3.0, 3.0);
        assert!(r.contains_rect(&inner));
        assert!(!r.contains_rect(&overlapping));
        assert!(r.intersects(&overlapping));
        assert!(!r.intersects(&outside));
        let i = r.intersection(&overlapping).unwrap();
        assert_eq!(i, Rect::from_bounds(0.5, 0.5, 1.0, 1.0));
        assert!(r.intersection(&outside).is_none());
    }

    #[test]
    fn bounding_of_points() {
        let pts = vec![
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(0.0, -1.0),
        ];
        let r = Rect::bounding(pts).unwrap();
        assert_eq!(r, Rect::from_bounds(-2.0, -1.0, 1.0, 5.0));
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    #[test]
    fn corners_ccw() {
        let r = unit();
        let c = r.corners();
        // Shoelace over the corners must be positive (counter-clockwise).
        let mut area2 = 0.0;
        for i in 0..4 {
            let a = c[i];
            let b = c[(i + 1) % 4];
            area2 += a.cross(&b);
        }
        assert!(area2 > 0.0);
    }

    #[test]
    fn clamp_and_fraction() {
        let r = unit();
        assert!(r
            .clamp(&Point::new(2.0, -1.0))
            .approx_eq(&Point::new(1.0, 0.0)));
        assert!(r.at_fraction(0.5, 0.25).approx_eq(&Point::new(0.5, 0.25)));
    }

    #[test]
    fn expanded_grows_every_side() {
        let r = unit().expanded(1.0);
        assert_eq!(r, Rect::from_bounds(-1.0, -1.0, 2.0, 2.0));
    }
}
