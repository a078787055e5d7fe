//! Adaptive choice of how many returned tuples to use per query (§3.2.3).
//!
//! A query with k > 1 returns k tuples; using the top-h Voronoi cell of each
//! (rather than only the top-1) gives k contributions per query and usually a
//! lower per-sample variance — but larger h means more complex cells and more
//! queries to pin them down. The paper's rule: for each returned tuple,
//! compute `λ_h`, a history-derived **upper bound** on the volume of its
//! top-h cell, and pick the largest `h ∈ [2, k]` with `λ_h ≤ λ_0`; fall back
//! to `h = 1` when none qualifies. Tuples whose top-1 cell is already large
//! contribute little variance, so spending queries to enlarge their h would
//! be wasted.
//!
//! Top-h cells nest (`V_1 ⊆ V_2 ⊆ V_3`), so the bounds from one neighbour
//! list satisfy `λ_1 ≤ λ_2 ≤ λ_3`. Most returned tuples sit in cells above
//! the threshold, so the rule first computes `λ_1`, one cheap convex clip,
//! and answers `h = 1` outright when it exceeds `λ_0` by more than the
//! rounding of the area sums ([`HSelection::lambda_margin`]): no larger `h`
//! could then pass. Otherwise it runs the `h = 3 → 2` scan, so the chosen
//! `h` is exactly the scan's.

use lbs_data::TupleId;
use lbs_geom::{Point, Rect};

use super::history::History;

/// Policy for choosing the `h` of the top-h Voronoi cell per returned tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum HSelection {
    /// Always use the top-1 cell (ignore the other k − 1 returned tuples).
    Top1,
    /// Use a fixed `h` for every tuple (capped at the interface's k).
    Fixed(usize),
    /// The adaptive rule of §3.2.3 with threshold `λ_0`; `None` derives the
    /// threshold from the running mean of cell volumes seen so far (half the
    /// mean), falling back to 0.5 % of the region area before any history
    /// exists.
    Adaptive {
        /// Explicit volume threshold `λ_0`, if any.
        lambda0: Option<f64>,
    },
}

impl Default for HSelection {
    fn default() -> Self {
        HSelection::Adaptive { lambda0: None }
    }
}

impl HSelection {
    /// Chooses the `h` to use for the tuple `site_id` located at `site`,
    /// given the interface's top-k limit and the current history.
    ///
    /// The adaptive rule computes its λ_h volume bounds through the pruned
    /// cell engine and memoises the `h ≥ 2` bounds in the history's λ cache
    /// keyed by `(site_id, h)` — the bound only depends on the neighbour list
    /// it was computed from, so a cache hit returns the exact same value a
    /// recomputation would. `λ_1` is cheap enough to build every time.
    #[allow(clippy::too_many_arguments)] // the paper's rule inputs plus the cache switch
    pub fn choose(
        &self,
        site_id: TupleId,
        site: &Point,
        k: usize,
        region: &Rect,
        history: &mut History,
        neighbor_limit: usize,
        use_lambda_cache: bool,
    ) -> usize {
        match self {
            HSelection::Top1 => 1,
            HSelection::Fixed(h) => (*h).clamp(1, k.max(1)),
            HSelection::Adaptive { lambda0 } => {
                let Some((k, threshold, neighbors)) =
                    adaptive_inputs(*lambda0, site, k, region, history, neighbor_limit)
                else {
                    return 1;
                };
                // λ_1 ≤ λ_h for every h, up to rounding: a λ_1 clear of the
                // threshold rules every larger h out.
                let lambda_1 = history
                    .build_topk_cell(site, &neighbors, 1, region, true)
                    .area;
                if lambda_1 > threshold + Self::lambda_margin(region) {
                    return 1;
                }
                scan_levels(
                    site_id,
                    site,
                    k,
                    region,
                    history,
                    &neighbors,
                    threshold,
                    use_lambda_cache,
                )
            }
        }
    }

    /// How far `λ_1` must exceed `λ_0` in `region` before the adaptive rule
    /// answers `h = 1` without computing `λ_2` and `λ_3`.
    ///
    /// The margin must dominate the rounding of both area sums. The `h = 1`
    /// area is a shoelace sum of cross products of absolute coordinates, the
    /// `h ≥ 2` area one of coordinates relative to the region centre; each
    /// term rounds by a few ulps of its squared coordinate magnitude. So the
    /// margin is `10⁻⁹ · reach²`, where `reach` is the larger of the region
    /// diagonal and the distance of its farthest corner from the origin:
    /// orders of magnitude above that rounding, and in the kilometre-scaled
    /// regions of the simulators far below any cell volume the threshold is
    /// compared with (0.03 km² over the USA box).
    pub fn lambda_margin(region: &Rect) -> f64 {
        let reach = region
            .corners()
            .iter()
            .map(Point::norm)
            .fold(region.diagonal(), f64::max);
        1e-9 * reach * reach
    }
}

/// The adaptive rule's inputs: the capped level, the threshold `λ_0` and the
/// history neighbour list of `site`. `None` when the rule answers `h = 1`
/// without looking at any bound (`k ≤ 1`, or nothing known yet).
fn adaptive_inputs(
    lambda0: Option<f64>,
    site: &Point,
    k: usize,
    region: &Rect,
    history: &History,
    neighbor_limit: usize,
) -> Option<(usize, f64, Vec<Point>)> {
    if k <= 1 {
        return None;
    }
    // Larger h is only worthwhile where the database is locally dense
    // (small cells); beyond a handful of levels the extra cell complexity
    // costs more queries than the variance it saves, so the adaptive policy
    // caps itself.
    let k = k.min(3);
    let threshold = lambda0.unwrap_or_else(|| {
        history
            .mean_cell_volume()
            .map(|v| 0.5 * v)
            .unwrap_or(region.area() * 0.005)
    });
    // Already in ascending distance order — exactly the candidate view the
    // pruned construction wants.
    let neighbors = history.neighbors_of(site, neighbor_limit);
    // No knowledge at all: be conservative, use the top-1 cell.
    (!neighbors.is_empty()).then_some((k, threshold, neighbors))
}

/// The largest `h ∈ [2, k]` whose bound `λ_h` is at most `threshold`, or 1.
///
/// λ_h computed from history is an upper bound on the true top-h cell volume
/// because the history set is a subset of the database. Volumes grow with h,
/// so the scan goes from the largest h downwards and stops at the first that
/// fits.
#[allow(clippy::too_many_arguments)] // the rule's inputs plus the cache switch
fn scan_levels(
    site_id: TupleId,
    site: &Point,
    k: usize,
    region: &Rect,
    history: &mut History,
    neighbors: &[Point],
    threshold: f64,
    use_lambda_cache: bool,
) -> usize {
    for h in (2..=k).rev() {
        let cached = if use_lambda_cache {
            history.lambda_cache_get(site_id, h, region, neighbors)
        } else {
            None
        };
        let lambda_h = match cached {
            Some(area) => area,
            None => {
                let cell = history.build_topk_cell(site, neighbors, h, region, true);
                if use_lambda_cache {
                    history.lambda_cache_put(site_id, h, *region, neighbors.to_vec(), cell.area);
                }
                cell.area
            }
        };
        if lambda_h <= threshold {
            return h;
        }
    }
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The adaptive rule without the λ_1 shortcut: the `h = 3 → 2` scan
    /// alone, the oracle `choose` must agree with.
    fn choose_by_full_scan(
        lambda0: Option<f64>,
        site: &Point,
        k: usize,
        region: &Rect,
        history: &mut History,
        use_lambda_cache: bool,
    ) -> usize {
        let Some((k, threshold, neighbors)) =
            adaptive_inputs(lambda0, site, k, region, history, 32)
        else {
            return 1;
        };
        scan_levels(
            7,
            site,
            k,
            region,
            history,
            &neighbors,
            threshold,
            use_lambda_cache,
        )
    }

    fn region() -> Rect {
        Rect::from_bounds(0.0, 0.0, 100.0, 100.0)
    }

    fn dense_history_around(site: Point, spacing: f64) -> History {
        let mut h = History::new();
        let mut id = 1000u64;
        for i in -3i32..=3 {
            for j in -3i32..=3 {
                if i == 0 && j == 0 {
                    continue;
                }
                h.insert(
                    id,
                    Point::new(site.x + i as f64 * spacing, site.y + j as f64 * spacing),
                );
                id += 1;
            }
        }
        h
    }

    #[test]
    fn top1_and_fixed_policies() {
        let mut h = History::new();
        let site = Point::new(50.0, 50.0);
        assert_eq!(
            HSelection::Top1.choose(0, &site, 10, &region(), &mut h, 32, true),
            1
        );
        assert_eq!(
            HSelection::Fixed(3).choose(0, &site, 10, &region(), &mut h, 32, true),
            3
        );
        // Fixed h is capped at k.
        assert_eq!(
            HSelection::Fixed(8).choose(0, &site, 5, &region(), &mut h, 32, true),
            5
        );
        assert_eq!(
            HSelection::Fixed(0).choose(0, &site, 5, &region(), &mut h, 32, true),
            1
        );
    }

    #[test]
    fn adaptive_with_no_history_is_conservative() {
        let mut h = History::new();
        let policy = HSelection::default();
        assert_eq!(
            policy.choose(0, &Point::new(50.0, 50.0), 10, &region(), &mut h, 32, true),
            1
        );
    }

    #[test]
    fn adaptive_uses_larger_h_in_dense_areas() {
        let site = Point::new(50.0, 50.0);
        // Dense neighbourhood: even the top-3 cell stays small.
        let mut dense = dense_history_around(site, 2.0);
        let policy = HSelection::Adaptive {
            lambda0: Some(200.0),
        };
        let h_dense = policy.choose(0, &site, 3, &region(), &mut dense, 64, true);
        assert!(
            h_dense >= 2,
            "dense area should allow h >= 2, got {h_dense}"
        );
        // Sparse neighbourhood: even the top-2 cell exceeds the threshold.
        let mut sparse = dense_history_around(site, 40.0);
        let h_sparse = policy.choose(0, &site, 3, &region(), &mut sparse, 64, true);
        assert_eq!(h_sparse, 1);
    }

    #[test]
    fn adaptive_threshold_from_history_mean() {
        let site = Point::new(50.0, 50.0);
        let mut hist = dense_history_around(site, 2.0);
        // Record small cell volumes so the derived threshold (half the mean)
        // is small.
        for _ in 0..5 {
            hist.record_cell_volume(1.0);
        }
        let policy = HSelection::Adaptive { lambda0: None };
        // Threshold = 0.5; the top-2 cell around a 2 km lattice is larger
        // than 0.5 km², so the policy falls back to 1.
        assert_eq!(
            policy.choose(0, &site, 3, &region(), &mut hist, 64, true),
            1
        );
        // With a generous recorded mean the same neighbourhood allows h >= 2.
        let mut hist2 = dense_history_around(site, 2.0);
        for _ in 0..5 {
            hist2.record_cell_volume(100.0);
        }
        assert!(policy.choose(0, &site, 3, &region(), &mut hist2, 64, true) >= 2);
    }

    #[test]
    fn adaptive_with_k1_is_always_one() {
        let mut hist = dense_history_around(Point::new(50.0, 50.0), 2.0);
        let policy = HSelection::default();
        assert_eq!(
            policy.choose(
                0,
                &Point::new(50.0, 50.0),
                1,
                &region(),
                &mut hist,
                64,
                true
            ),
            1
        );
    }

    /// `n` known tuples scattered around `site` at `spread`, plus two at
    /// equal distance (a tie the neighbour order breaks by `(x, y)`). With
    /// `twice`, every location is known under two ids: then the top-2 cell
    /// *is* the top-1 cell, so λ_1 and λ_2 differ only by rounding.
    fn random_history(
        rng: &mut StdRng,
        site: &Point,
        n: usize,
        spread: f64,
        twice: bool,
    ) -> History {
        let d = rng.gen_range(0.2..1.0) * spread;
        let mut pts = vec![
            Point::new(site.x + d, site.y),
            Point::new(site.x, site.y - d),
        ];
        for _ in 0..n {
            pts.push(Point::new(
                site.x + rng.gen_range(-spread..spread),
                site.y + rng.gen_range(-spread..spread),
            ));
        }
        let mut h = History::new();
        for (id, p) in (0..).zip(&pts) {
            h.insert(100 + id, *p);
            if twice {
                h.insert(10_000 + id, *p);
            }
        }
        h
    }

    #[test]
    fn lambda1_shortcut_chooses_what_the_full_scan_chooses() {
        let mut rng = StdRng::seed_from_u64(0x1a3b_da01);
        let near = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        let far = Rect::from_bounds(1e6, 1e6, 1e6 + 100.0, 1e6 + 100.0);
        let mut skipped = [0usize; 2];
        let mut chosen = [false; 4];
        for case in 0..24 {
            for (r, region) in [near, far].iter().enumerate() {
                let site = Point::new(
                    region.min_x + rng.gen_range(20.0..80.0),
                    region.min_y + rng.gen_range(20.0..80.0),
                );
                // Dense and sparse neighbourhoods, each also with every
                // location known twice.
                let spread = if case % 2 == 0 { 4.0 } else { 40.0 };
                let n = rng.gen_range(3..40);
                let history = random_history(&mut rng, &site, n, spread, case % 4 >= 2);
                let neighbors = history.neighbors_of(&site, 32);
                let margin = HSelection::lambda_margin(region);
                let lambdas: Vec<f64> = (1..=3)
                    .map(|h| {
                        lbs_geom::top_k_cell_pruned(&site, &neighbors, h, region, true)
                            .0
                            .area
                    })
                    .collect();
                let mut thresholds = Vec::new();
                for &lambda in &lambdas {
                    for offset in [0.0, 0.5 * margin, 2.0 * margin, 0.05 * lambda] {
                        thresholds.push(lambda - offset);
                        thresholds.push(lambda + offset);
                    }
                    thresholds.push(lambda.next_down());
                    thresholds.push(lambda.next_up());
                }
                for lambda0 in thresholds {
                    for k in [2, 3, 10] {
                        for use_cache in [true, false] {
                            let policy = HSelection::Adaptive {
                                lambda0: Some(lambda0),
                            };
                            let context = format!(
                                "case {case}, region {r}, λ = ({}, {}, {}), λ_0 = {lambda0}, \
                                 k = {k}, cache = {use_cache}",
                                lambdas[0], lambdas[1], lambdas[2]
                            );
                            let mut fast = history.clone();
                            let mut oracle = history.clone();
                            // Twice each, so the second call meets a warm λ
                            // cache when it is on.
                            for round in 0..2 {
                                let got =
                                    policy.choose(5, &site, k, region, &mut fast, 32, use_cache);
                                let want = choose_by_full_scan(
                                    Some(lambda0),
                                    &site,
                                    k,
                                    region,
                                    &mut oracle,
                                    use_cache,
                                );
                                assert_eq!(got, want, "{context}, round {round}");
                                chosen[got] = true;
                            }
                            if fast.engine_report().cells_built < oracle.engine_report().cells_built
                            {
                                skipped[r] += 1;
                            }
                        }
                    }
                }
            }
        }
        // The shortcut must actually fire where the margin is small next to
        // the cells.
        assert!(skipped[0] > 0, "the λ_1 shortcut never skipped a build");
        assert_eq!(chosen, [false, true, true, true], "every h must be chosen");
    }

    #[test]
    fn lambda_margin_scales_with_the_region_and_its_offset() {
        let near = Rect::from_bounds(0.0, 0.0, 100.0, 100.0);
        let far = Rect::from_bounds(1e6, 1e6, 1e6 + 100.0, 1e6 + 100.0);
        let centred = Rect::from_bounds(-50.0, -50.0, 50.0, 50.0);
        // Near the origin the farthest corner is the diagonal.
        assert!((HSelection::lambda_margin(&near) - 2e-5).abs() < 1e-12);
        assert!((HSelection::lambda_margin(&centred) - 2e-5).abs() < 1e-12);
        // Far from it the absolute-coordinate shoelace sum rounds on the
        // scale of the corner's distance.
        assert!(HSelection::lambda_margin(&far) > 1e3);
    }
}
