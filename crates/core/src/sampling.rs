//! Query-location samplers.
//!
//! The estimators draw random query locations, look at which tuple(s) come
//! back, and divide each tuple's contribution by its *selection probability*
//! — the probability that the random location lands inside the tuple's
//! (top-h) Voronoi cell. Two sampling designs are supported:
//!
//! * **Uniform** over the bounding region (the paper's default): the
//!   selection probability is simply `|V_h(t)| / |V_0|`.
//! * **Density-weighted** using external knowledge such as census population
//!   density (paper §5.2): locations are drawn from a piecewise-constant
//!   [`DensityGrid`]; the selection probability becomes the integral of that
//!   density over the cell, which [`QuerySampler::cell_probability`] computes
//!   exactly for convex cells.
//!
//! Both designs keep the paper's equation (1) unbiased — only the variance
//! changes — because the probability used in the denominator is exactly the
//! probability the sampler realises.

use rand::Rng;

use lbs_data::DensityGrid;
use lbs_geom::{ConvexPolygon, Point, Rect, TopKCell};

/// A randomised design for choosing query locations.
#[derive(Clone, Debug)]
pub enum QuerySampler {
    /// Uniform over the bounding region.
    Uniform {
        /// The region queries are drawn from (also the aggregate's region).
        bbox: Rect,
    },
    /// Weighted by a piecewise-constant density (e.g. population density).
    Weighted {
        /// The proposal density; its bounding box is the query region.
        grid: DensityGrid,
    },
    /// A base design restricted to one stratum of the region.
    ///
    /// Locations are drawn from the *base* design conditioned on landing
    /// inside `rect`, but every probability accessor still reports the
    /// base design's full-region probability. That split is what keeps the
    /// stratified Horvitz–Thompson combiner unbiased: a child session for
    /// stratum `S_h` contributes `g(t) / π(t)` weighted by the base-design
    /// mass of `S_h`, and summing over strata telescopes back to the
    /// unstratified estimator — including for Voronoi cells straddling a
    /// stratum boundary.
    Stratified {
        /// The stratum locations are drawn from.
        rect: Rect,
        /// The full-region base design (never itself `Stratified`).
        base: Box<QuerySampler>,
        /// Weighted base only: base-grid cells clipped to the stratum, with
        /// positive mass (empty for a uniform base).
        cells: Vec<Rect>,
        /// Cumulative renormalised masses over `cells` for inverse-CDF
        /// draws (parallel to `cells`; last entry forced to 1).
        cumulative: Vec<f64>,
    },
}

impl QuerySampler {
    /// Uniform sampler over a region.
    pub fn uniform(bbox: Rect) -> Self {
        QuerySampler::Uniform { bbox }
    }

    /// Density-weighted sampler.
    pub fn weighted(grid: DensityGrid) -> Self {
        QuerySampler::Weighted { grid }
    }

    /// Restricts a base design to one stratum.
    ///
    /// Collapses to the plain base design when the stratum is the whole
    /// region (bitwise — a one-stratum partition samples exactly like the
    /// unstratified run). For a weighted base the restricted draw is
    /// prepared as an inverse-CDF over the base grid's cells clipped to the
    /// stratum; a stratum carrying zero base mass falls back to a uniform
    /// draw inside the stratum (its stratified weight is zero, so it never
    /// contributes anyway).
    pub fn stratified(rect: Rect, base: QuerySampler) -> Self {
        let base = match base {
            // Never nest: re-stratifying restricts the original base.
            QuerySampler::Stratified { base, .. } => *base,
            other => other,
        };
        if rect == base.bbox() {
            return base;
        }
        let (cells, cumulative) = match &base {
            QuerySampler::Weighted { grid } => {
                let (cols, rows) = grid.resolution();
                let mut cells = Vec::new();
                let mut masses = Vec::new();
                for row in 0..rows {
                    for col in 0..cols {
                        let cell = grid.cell_rect(col, row);
                        let Some(clip) = cell.intersection(&rect) else {
                            continue;
                        };
                        let area = clip.area();
                        if area <= 0.0 {
                            continue;
                        }
                        // Piecewise-constant density: pdf at the clipped
                        // cell's centre times its area is the exact mass.
                        let mass = grid.pdf(&clip.center()) * area;
                        if mass > 0.0 {
                            cells.push(clip);
                            masses.push(mass);
                        }
                    }
                }
                let total: f64 = masses.iter().sum();
                if total > 0.0 {
                    let mut cumulative = Vec::with_capacity(masses.len());
                    let mut acc = 0.0;
                    for mass in &masses {
                        acc += mass / total;
                        cumulative.push(acc);
                    }
                    // Guard against floating point drift, exactly like the
                    // grid's own CDF.
                    if let Some(last) = cumulative.last_mut() {
                        *last = 1.0;
                    }
                    (cells, cumulative)
                } else {
                    (Vec::new(), Vec::new())
                }
            }
            _ => (Vec::new(), Vec::new()),
        };
        QuerySampler::Stratified {
            rect,
            base: Box::new(base),
            cells,
            cumulative,
        }
    }

    /// The full-region base design (`self` unless stratified).
    pub fn base(&self) -> &QuerySampler {
        match self {
            QuerySampler::Stratified { base, .. } => base,
            other => other,
        }
    }

    /// The full region of the design (the base's bounding box for a
    /// stratified sampler — probabilities stay full-region).
    pub fn bbox(&self) -> Rect {
        match self {
            QuerySampler::Uniform { bbox } => *bbox,
            QuerySampler::Weighted { grid } => grid.bbox(),
            QuerySampler::Stratified { base, .. } => base.bbox(),
        }
    }

    /// Draws one query location.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Point {
        match self {
            QuerySampler::Uniform { bbox } => bbox.at_fraction(rng.gen(), rng.gen()),
            QuerySampler::Weighted { grid } => grid.sample(rng),
            QuerySampler::Stratified {
                rect,
                cells,
                cumulative,
                ..
            } => {
                if cells.is_empty() {
                    // Uniform base (or a zero-mass stratum, which never
                    // receives budget): uniform inside the stratum.
                    return rect.at_fraction(rng.gen(), rng.gen());
                }
                // Inverse-CDF over the clipped cells, mirroring
                // `DensityGrid::sample` (half-open ownership so zero-mass
                // boundaries can never be selected).
                let u: f64 = rng.gen();
                let idx = cumulative
                    .partition_point(|&c| c <= u)
                    .min(cumulative.len() - 1);
                cells[idx].at_fraction(rng.gen(), rng.gen())
            }
        }
    }

    /// Probability that a sampled location lands inside the given exactly
    /// computed cell.
    ///
    /// For the uniform design this is `area / |V_0|` and works for any cell
    /// (convex or not). The weighted design needs the cell's convex polygon
    /// to integrate the density exactly; for concave top-h cells it falls
    /// back to `None` and the caller must either use `h = 1` or switch to the
    /// uniform design (that combination is how the experiments run it).
    pub fn cell_probability(&self, cell: &TopKCell) -> Option<f64> {
        match self.base() {
            QuerySampler::Uniform { bbox } => Some(cell.area / bbox.area()),
            QuerySampler::Weighted { grid } => {
                cell.convex.as_ref().map(|poly| grid.integrate_convex(poly))
            }
            QuerySampler::Stratified { .. } => unreachable!("base() is never stratified"),
        }
    }

    /// Probability of landing inside an arbitrary convex polygon.
    pub fn convex_probability(&self, polygon: &ConvexPolygon) -> f64 {
        match self.base() {
            QuerySampler::Uniform { bbox } => polygon.area() / bbox.area(),
            QuerySampler::Weighted { grid } => grid.integrate_convex(polygon),
            QuerySampler::Stratified { .. } => unreachable!("base() is never stratified"),
        }
    }

    /// Probability corresponding to a raw area, available only for the
    /// uniform design (the weighted design needs the shape, not just the
    /// area).
    pub fn area_probability(&self, area: f64) -> Option<f64> {
        match self.base() {
            QuerySampler::Uniform { bbox } => Some(area / bbox.area()),
            QuerySampler::Weighted { .. } => None,
            QuerySampler::Stratified { .. } => unreachable!("base() is never stratified"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_geom::top_k_cell;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bbox() -> Rect {
        Rect::from_bounds(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn uniform_sampler_covers_the_box() {
        let s = QuerySampler::uniform(bbox());
        let mut rng = StdRng::seed_from_u64(1);
        let mut mean = Point::ORIGIN;
        let n = 2_000;
        for _ in 0..n {
            let p = s.sample(&mut rng);
            assert!(bbox().contains(&p));
            mean = mean + p;
        }
        mean = mean / n as f64;
        assert!((mean.x - 50.0).abs() < 2.5 && (mean.y - 50.0).abs() < 2.5);
    }

    #[test]
    fn uniform_cell_probability_is_area_fraction() {
        let s = QuerySampler::uniform(bbox());
        let site = Point::new(25.0, 50.0);
        let others = vec![Point::new(75.0, 50.0)];
        let cell = top_k_cell(&site, &others, 1, &bbox());
        assert!((s.cell_probability(&cell).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(s.area_probability(2_500.0), Some(0.25));
    }

    #[test]
    fn weighted_sampler_prefers_heavy_cells() {
        let grid = DensityGrid::from_weights(bbox(), 2, 1, vec![9.0, 1.0]);
        let s = QuerySampler::weighted(grid);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 5_000;
        let left = (0..n).filter(|_| s.sample(&mut rng).x < 50.0).count();
        assert!(left as f64 / n as f64 > 0.85);
    }

    #[test]
    fn weighted_cell_probability_uses_density() {
        let grid = DensityGrid::from_weights(bbox(), 2, 1, vec![9.0, 1.0]);
        let s = QuerySampler::weighted(grid);
        // Cell of the left site is the left half of the box, which carries
        // 0.9 of the probability mass.
        let site = Point::new(25.0, 50.0);
        let others = vec![Point::new(75.0, 50.0)];
        let cell = top_k_cell(&site, &others, 1, &bbox());
        let p = s.cell_probability(&cell).unwrap();
        assert!((p - 0.9).abs() < 1e-9);
        // Raw areas cannot be converted under the weighted design.
        assert!(s.area_probability(5_000.0).is_none());
    }

    #[test]
    fn weighted_probability_unavailable_for_concave_cells() {
        let grid = DensityGrid::uniform(bbox());
        let s = QuerySampler::weighted(grid);
        let site = Point::new(50.0, 50.0);
        let others = vec![
            Point::new(10.0, 50.0),
            Point::new(90.0, 50.0),
            Point::new(50.0, 10.0),
            Point::new(50.0, 90.0),
        ];
        let cell = top_k_cell(&site, &others, 2, &bbox());
        assert!(cell.convex.is_none());
        assert!(s.cell_probability(&cell).is_none());
    }

    #[test]
    fn bbox_accessor_matches_design() {
        let s = QuerySampler::uniform(bbox());
        assert_eq!(s.bbox(), bbox());
        let w = QuerySampler::weighted(DensityGrid::uniform(bbox()));
        assert_eq!(w.bbox(), bbox());
    }

    #[test]
    fn stratified_collapses_on_the_full_region() {
        let s = QuerySampler::stratified(bbox(), QuerySampler::uniform(bbox()));
        assert!(matches!(s, QuerySampler::Uniform { .. }));
        let w =
            QuerySampler::stratified(bbox(), QuerySampler::weighted(DensityGrid::uniform(bbox())));
        assert!(matches!(w, QuerySampler::Weighted { .. }));
    }

    #[test]
    fn stratified_uniform_draws_inside_the_stratum_with_full_region_probabilities() {
        let stratum = Rect::from_bounds(0.0, 0.0, 50.0, 100.0);
        let s = QuerySampler::stratified(stratum, QuerySampler::uniform(bbox()));
        assert_eq!(s.bbox(), bbox(), "probabilities stay full-region");
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..500 {
            assert!(stratum.contains(&s.sample(&mut rng)));
        }
        // The probability accessors report the *base* design's values.
        assert_eq!(s.area_probability(2_500.0), Some(0.25));
        let site = Point::new(25.0, 50.0);
        let others = vec![Point::new(75.0, 50.0)];
        let cell = top_k_cell(&site, &others, 1, &bbox());
        assert!((s.cell_probability(&cell).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stratified_weighted_draws_follow_the_restricted_density() {
        // Left half carries 0.9 of the mass split 9:0 over its two columns.
        let grid = DensityGrid::from_weights(bbox(), 4, 1, vec![9.0, 0.0, 0.5, 0.5]);
        let stratum = Rect::from_bounds(0.0, 0.0, 50.0, 100.0);
        let s = QuerySampler::stratified(stratum, QuerySampler::weighted(grid));
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..500 {
            let p = s.sample(&mut rng);
            assert!(stratum.contains(&p), "draw {p:?} escaped the stratum");
            assert!(p.x < 25.0, "zero-weight column was sampled at {p:?}");
        }
    }

    #[test]
    fn stratified_zero_mass_stratum_falls_back_to_uniform() {
        let grid = DensityGrid::from_weights(bbox(), 2, 1, vec![1.0, 0.0]);
        let stratum = Rect::from_bounds(50.0, 0.0, 100.0, 100.0);
        let s = QuerySampler::stratified(stratum, QuerySampler::weighted(grid));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..100 {
            assert!(stratum.contains(&s.sample(&mut rng)));
        }
    }
}
