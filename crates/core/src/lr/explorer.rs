//! Exact (top-h) Voronoi-cell computation through the LR-LBS interface.
//!
//! This module implements the Theorem-1 loop of paper §3.1 together with the
//! error-reduction machinery of §3.2:
//!
//! * start from the tuples already known (history, §3.2.2) plus optional fake
//!   corner tuples (faster initialization, §3.2.1),
//! * repeatedly compute the tentative top-h cell of the target tuple from the
//!   known locations and issue one kNN query per untested vertex,
//! * every query either confirms a vertex (no unseen tuple returned) or
//!   reveals new tuples that shrink the tentative cell,
//! * stop when every vertex is confirmed — the tentative cell then *is* the
//!   true cell (Theorem 1) — or escape early with the unbiased Monte-Carlo
//!   device of §3.2.4 when the remaining edges would be too expensive to pin
//!   down, optionally skipping trial queries that a disk-union lower bound
//!   already answers.

use std::collections::{BTreeMap, HashSet};

use rand::Rng;

use lbs_data::TupleId;
use lbs_geom::{disk_covered_by_union, sort_by_distance, Circle, Point, Rect, TopKCell};
use lbs_service::{LbsBackend, QueryError};

use super::history::{CellCacheEntry, History};

/// Configuration of one cell exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Use fake corner tuples for the first round (§3.2.1).
    pub use_fast_init: bool,
    /// Seed the known set from history (§3.2.2).
    pub use_history: bool,
    /// Allow the Monte-Carlo escape (§3.2.4).
    pub use_mc_bounds: bool,
    /// Half-width of the fake-tuple box around the target; `None` derives it
    /// from history (three times the nearest known distance) or falls back to
    /// 2 % of the bounding-box diagonal.
    pub fast_init_half_width: Option<f64>,
    /// How many known tuples (nearest first) seed the computation.
    pub history_neighbor_limit: usize,
    /// Hard cap on Theorem-1 rounds before forcing the Monte-Carlo escape.
    pub max_rounds: usize,
    /// Trigger the Monte-Carlo escape when more than this many untested
    /// vertices remain after the second round.
    pub mc_vertex_threshold: usize,
    /// Trigger the escape when a full round shrinks the cell volume by less
    /// than this factor (e.g. 0.02 = less than 2 %).
    pub mc_min_shrink: f64,
    /// Safety cap on Monte-Carlo trials.
    pub max_mc_trials: u64,
    /// Stop each cell construction at the security-radius certificate
    /// instead of clipping against every known tuple. Pruned and unpruned
    /// constructions are byte-identical (see [`lbs_geom::cell_engine`]);
    /// the flag exists so the equivalence is testable end to end.
    pub use_pruned_cells: bool,
    /// Replay finished exact explorations from the [`History`] cell cache.
    /// A replay issues the same queries and leaves the same state as a
    /// fresh exploration, so estimates are byte-identical either way.
    pub use_cell_cache: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            use_fast_init: true,
            use_history: true,
            use_mc_bounds: true,
            fast_init_half_width: None,
            history_neighbor_limit: 32,
            max_rounds: 64,
            mc_vertex_threshold: 14,
            mc_min_shrink: 0.02,
            max_mc_trials: 4_000,
            use_pruned_cells: true,
            use_cell_cache: true,
        }
    }
}

impl ExploreConfig {
    /// A configuration with every error-reduction technique disabled — the
    /// plain Algorithm-1 baseline used by the Figure 20 ablation.
    pub fn plain() -> Self {
        ExploreConfig {
            use_fast_init: false,
            use_history: false,
            use_mc_bounds: false,
            ..ExploreConfig::default()
        }
    }
}

/// How the cell volume was established.
#[derive(Clone, Debug)]
pub enum CellEstimate {
    /// The cell was computed exactly: every vertex passed the Theorem-1 test.
    Exact {
        /// The exact top-h cell.
        cell: TopKCell,
    },
    /// The exploration escaped early: `bounding_cell` is a superset of the
    /// true cell and `trials` is the number of uniform trials inside it that
    /// were needed to hit the true cell (an unbiased estimator of the volume
    /// ratio, §3.2.4).
    MonteCarlo {
        /// The bounding (superset) cell at the time of the escape.
        bounding_cell: TopKCell,
        /// Number of Monte-Carlo trials until a hit.
        trials: u64,
    },
}

impl CellEstimate {
    /// For the uniform sampling design, the unbiased estimate of the inverse
    /// selection probability `|V_0| / |V_h(t)|`.
    pub fn inverse_probability_uniform(&self, region: &Rect) -> f64 {
        match self {
            CellEstimate::Exact { cell } => {
                if cell.area <= f64::EPSILON {
                    0.0
                } else {
                    region.area() / cell.area
                }
            }
            CellEstimate::MonteCarlo {
                bounding_cell,
                trials,
            } => {
                if bounding_cell.area <= f64::EPSILON {
                    0.0
                } else {
                    *trials as f64 * region.area() / bounding_cell.area
                }
            }
        }
    }

    /// The exact cell when available.
    pub fn exact_cell(&self) -> Option<&TopKCell> {
        match self {
            CellEstimate::Exact { cell } => Some(cell),
            CellEstimate::MonteCarlo { .. } => None,
        }
    }
}

/// Result of one cell exploration.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// The volume estimate (exact or Monte-Carlo).
    pub estimate: CellEstimate,
    /// kNN queries spent on this exploration.
    pub queries_used: u64,
    /// Theorem-1 rounds executed.
    pub rounds: usize,
    /// Number of Monte-Carlo trial points answered by the lower bound
    /// without issuing a query.
    pub lower_bound_hits: u64,
}

/// Key for deduplicating query locations (vertices are often shared between
/// rounds up to floating point noise).
fn quantize(p: &Point) -> (i64, i64) {
    ((p.x * 1e6).round() as i64, (p.y * 1e6).round() as i64)
}

/// Explores the top-`h` Voronoi cell of tuple `site_id` located at `site`
/// through the LR interface `service`, clipped to `region`.
///
/// Every tuple returned by any query issued here is recorded into `history`.
/// The function returns the volume estimate plus the query cost; it never
/// returns a biased volume — when it cannot afford exactness it switches to
/// the unbiased Monte-Carlo escape instead.
#[allow(clippy::too_many_arguments)] // the paper's Algorithm 2 signature: site, level, region, state
pub fn explore_cell<S: LbsBackend + ?Sized, R: Rng>(
    service: &S,
    site_id: TupleId,
    site: Point,
    h: usize,
    region: &Rect,
    history: &mut History,
    config: &ExploreConfig,
    rng: &mut R,
) -> Result<ExploreOutcome, QueryError> {
    let mut queries_used: u64 = 0;

    // Seed fingerprint: everything the exploration reads from the history.
    // An exact exploration is a deterministic function of (site, h, region,
    // seeds, nearest), which is what makes the cell cache replay sound.
    let seeds: Vec<Point> = if config.use_history {
        history.neighbors_of(&site, config.history_neighbor_limit)
    } else {
        Vec::new()
    };
    // A non-empty seed search starts with `neighbors_of(site, 1)`, so its
    // first seed already is the nearest known tuple.
    let nearest = if !config.use_fast_init {
        None
    } else if config.use_history && config.history_neighbor_limit > 0 {
        seeds.first().map(|p| p.distance(&site))
    } else {
        history.nearest_distance(&site)
    };

    if config.use_cell_cache {
        if let Some(entry) = history.cell_cache_get(site_id, h, region, &seeds, nearest) {
            // Replay: issue the recorded queries so the service ledger, the
            // budget accounting and the history side-effects stay
            // bit-identical to a fresh exploration, then hand back the
            // stored cell without redoing any geometry.
            history.insert(site_id, site);
            for q in entry.queries.iter() {
                let resp = service.query(q)?;
                queries_used += 1;
                for r in resp.results.iter() {
                    if let Some(loc) = r.location {
                        history.insert(r.id, loc);
                    }
                }
            }
            history.engine_mut().replayed_queries += queries_used;
            history.record_cell_volume(entry.cell.area);
            return Ok(ExploreOutcome {
                estimate: CellEstimate::Exact {
                    cell: entry.cell.clone(),
                },
                queries_used,
                rounds: entry.rounds,
                lower_bound_hits: 0,
            });
        }
    }

    // BTreeMap, not HashMap: `others` below is built by iterating this map
    // and feeds the geometry, so the iteration order must be deterministic
    // for estimates to be bit-identical across runs and thread counts.
    let mut known: BTreeMap<TupleId, Point> = BTreeMap::new();
    known.insert(site_id, site);
    history.insert(site_id, site);

    if config.use_history {
        for p in seeds.iter() {
            // Ids are irrelevant for geometry; use a synthetic negative key
            // space to avoid colliding with real ids (real ids are re-added
            // when the tuples are returned by queries).
            let key = u64::MAX - known.len() as u64;
            known.insert(key, *p);
        }
    }

    // lbs-lint: allow(hashmap-iter, reason = "dedup membership set (contains/insert); never iterated")
    let mut queried: HashSet<(i64, i64)> = HashSet::new();
    let mut query_log: Vec<Point> = Vec::new();
    let mut confirmed_vertices: Vec<Point> = Vec::new();
    let mut prev_volume = f64::INFINITY;
    let mut rounds = 0usize;
    let mut fakes: Vec<Point> = Vec::new();
    // Per-round workspaces, hoisted so the round loop reuses their capacity.
    let mut others: Vec<Point> = Vec::new();
    let mut pending: Vec<Point> = Vec::new();

    if config.use_fast_init && known.len() <= 1 {
        let half = config
            .fast_init_half_width
            .unwrap_or_else(|| nearest.map(|d| 3.0 * d).unwrap_or(region.diagonal() * 0.02));
        fakes = Rect::centered(site, half.max(1e-6)).corners().to_vec();
    }

    loop {
        rounds += 1;
        let use_fakes = !fakes.is_empty() && rounds == 1;
        // Deduplicate by location: history seeds use synthetic ids, so a
        // tuple re-discovered through a vertex query would otherwise appear
        // twice. Duplicates are harmless for h = 1 but double-count the
        // depth of top-h cells for h > 1, silently shrinking them.
        others.clear();
        for (id, p) in known.iter() {
            if *id == site_id {
                continue;
            }
            if !others.iter().any(|o: &Point| o.approx_eq_eps(p, 1e-7)) {
                others.push(*p);
            }
        }
        if use_fakes {
            others.extend_from_slice(&fakes);
        }
        // Ascending distance order: what the pruned construction needs, and
        // deterministic regardless of the map iteration above.
        sort_by_distance(&site, &mut others);
        let cell = history.build_topk_cell(&site, &others, h, region, config.use_pruned_cells);

        // Which vertices still need testing?
        pending.clear();
        pending.extend(
            cell.vertices
                .iter()
                .copied()
                .filter(|v| !queried.contains(&quantize(v))),
        );

        if pending.is_empty() && !use_fakes {
            // Theorem 1: every vertex of the cell computed from the known
            // tuples has been queried and returned nothing new — the cell is
            // exact.
            history.record_cell_volume(cell.area);
            if config.use_cell_cache {
                history.cell_cache_put(
                    site_id,
                    h,
                    CellCacheEntry {
                        region: *region,
                        seeds,
                        nearest,
                        cell: cell.clone(),
                        queries: query_log,
                        rounds,
                    },
                );
            }
            return Ok(ExploreOutcome {
                estimate: CellEstimate::Exact { cell },
                queries_used,
                rounds,
                lower_bound_hits: 0,
            });
        }

        // Decide whether to escape to the Monte-Carlo device instead of
        // paying for the remaining vertices.
        let shrink = if prev_volume.is_finite() && prev_volume > 0.0 {
            (prev_volume - cell.area) / prev_volume
        } else {
            1.0
        };
        let should_escape = config.use_mc_bounds
            && !use_fakes
            && rounds >= 3
            && (pending.len() > config.mc_vertex_threshold
                || shrink < config.mc_min_shrink
                || rounds > config.max_rounds);
        let forced_escape = rounds > config.max_rounds && !use_fakes;
        if should_escape || forced_escape {
            let (trials, lb_hits, extra_queries) = monte_carlo_escape(
                service,
                site_id,
                &site,
                h,
                &cell,
                &others,
                &confirmed_vertices,
                config.max_mc_trials,
                history,
                rng,
            )?;
            queries_used += extra_queries;
            history.record_cell_volume(cell.area / trials.max(1) as f64);
            return Ok(ExploreOutcome {
                estimate: CellEstimate::MonteCarlo {
                    bounding_cell: cell,
                    trials,
                },
                queries_used,
                rounds,
                lower_bound_hits: lb_hits,
            });
        }
        prev_volume = cell.area;

        // Issue the pending vertex queries.
        let mut new_tuple_found = false;
        for &v in pending.iter() {
            queried.insert(quantize(&v));
            query_log.push(v);
            let resp = service.query(&v)?;
            queries_used += 1;
            let mut site_in_top_h = false;
            for r in resp.results.iter() {
                if let Some(loc) = r.location {
                    if !known.contains_key(&r.id) {
                        new_tuple_found = true;
                    }
                    known.insert(r.id, loc);
                    history.insert(r.id, loc);
                }
                if r.id == site_id && r.rank <= h {
                    site_in_top_h = true;
                }
            }
            if site_in_top_h {
                confirmed_vertices.push(v);
            }
        }

        // Fast-init bookkeeping: after the first round the fakes are dropped
        // regardless of the outcome. If they produced no real tuples we have
        // "wasted at most four queries" (paper §3.2.1) and the next round
        // starts from the real bounding box.
        if use_fakes {
            fakes.clear();
        }

        let _ = new_tuple_found; // Termination is driven by the vertex test above.
    }
}

/// The unbiased Monte-Carlo escape of §3.2.4.
///
/// Samples locations uniformly from the bounding cell until one of them lies
/// in the true top-h cell of the target (i.e. a kNN query there returns the
/// target within the top h). The number of trials is an unbiased estimator of
/// `|V'| / |V|`. Trial points whose disk `C(q, t)` is covered by the union of
/// the confirmed-vertex disks `C(v, t)` are known to be inside the true cell
/// without asking the service (the lower-bound optimisation).
#[allow(clippy::too_many_arguments)]
fn monte_carlo_escape<S: LbsBackend + ?Sized, R: Rng>(
    service: &S,
    site_id: TupleId,
    site: &Point,
    h: usize,
    bounding_cell: &TopKCell,
    others: &[Point],
    confirmed_vertices: &[Point],
    max_trials: u64,
    history: &mut History,
    rng: &mut R,
) -> Result<(u64, u64, u64), QueryError> {
    let lower_bound_disks: Vec<Circle> = confirmed_vertices
        .iter()
        .map(|v| Circle::through(*v, *site))
        .collect();
    let sample_bbox = Rect::bounding(bounding_cell.vertices.iter().copied())
        .unwrap_or(bounding_cell.bbox)
        .intersection(&bounding_cell.bbox)
        .unwrap_or(bounding_cell.bbox);

    let mut trials: u64 = 0;
    let mut lower_bound_hits: u64 = 0;
    let mut queries: u64 = 0;

    loop {
        // Draw a point uniformly from the bounding cell by rejection from its
        // bounding rectangle (rejections cost no LBS queries).
        let q = loop {
            let candidate = sample_bbox.at_fraction(rng.gen(), rng.gen());
            if bounding_cell.contains(&candidate, others) {
                break candidate;
            }
        };
        trials += 1;

        // Lower bound: if C(q, t) is covered by the union of confirmed-vertex
        // disks, no tuple can be closer to q than t — q is in the true cell.
        if !lower_bound_disks.is_empty() {
            let target_disk = Circle::through(q, *site);
            if disk_covered_by_union(&target_disk, &lower_bound_disks) {
                lower_bound_hits += 1;
                return Ok((trials, lower_bound_hits, queries));
            }
        }

        let resp = service.query(&q)?;
        queries += 1;
        let mut hit = false;
        for r in resp.results.iter() {
            if let Some(loc) = r.location {
                history.insert(r.id, loc);
            }
            if r.id == site_id && r.rank <= h {
                hit = true;
            }
        }
        if hit {
            return Ok((trials, lower_bound_hits, queries));
        }
        if trials >= max_trials {
            // Pathological safety valve: give up and treat the bounding cell
            // as the answer. This can only happen when the true cell is an
            // astronomically small fraction of the bounding cell, in which
            // case the contribution is negligible anyway.
            return Ok((trials, lower_bound_hits, queries));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_data::{Dataset, ScenarioBuilder, Tuple};
    use lbs_geom::{top_k_cell, voronoi_diagram};
    use lbs_service::{ServiceConfig, SimulatedLbs};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn region() -> Rect {
        Rect::from_bounds(0.0, 0.0, 100.0, 100.0)
    }

    fn make_service(points: &[(f64, f64)], k: usize) -> SimulatedLbs {
        let tuples: Vec<Tuple> = points
            .iter()
            .enumerate()
            .map(|(i, (x, y))| Tuple::new(i as u64, Point::new(*x, *y)))
            .collect();
        SimulatedLbs::new(Dataset::new(tuples, region()), ServiceConfig::lr_lbs(k))
    }

    #[test]
    fn exact_cell_matches_full_voronoi_diagram() {
        let pts = vec![
            (20.0, 30.0),
            (70.0, 20.0),
            (50.0, 80.0),
            (85.0, 65.0),
            (35.0, 55.0),
            (10.0, 80.0),
            (60.0, 45.0),
        ];
        let service = make_service(&pts, 5);
        let sites: Vec<Point> = pts.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let diagram = voronoi_diagram(&sites, &region());
        let mut rng = StdRng::seed_from_u64(7);

        for (i, site) in sites.iter().enumerate() {
            let mut history = History::new();
            let out = explore_cell(
                &service,
                i as u64,
                *site,
                1,
                &region(),
                &mut history,
                &ExploreConfig::plain(),
                &mut rng,
            )
            .unwrap();
            let cell = out.estimate.exact_cell().expect("plain config is exact");
            let expected = diagram.cells[i].area();
            assert!(
                (cell.area - expected).abs() / expected < 1e-6,
                "site {i}: explored {} vs diagram {}",
                cell.area,
                expected
            );
            assert!(out.queries_used > 0);
        }
    }

    #[test]
    fn exact_cells_with_all_techniques_still_match() {
        let pts = vec![
            (20.0, 30.0),
            (70.0, 20.0),
            (50.0, 80.0),
            (85.0, 65.0),
            (35.0, 55.0),
        ];
        let service = make_service(&pts, 5);
        let sites: Vec<Point> = pts.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let diagram = voronoi_diagram(&sites, &region());
        let mut rng = StdRng::seed_from_u64(3);
        // Shared history across explorations — that is the point of §3.2.2.
        let mut history = History::new();
        // Disable the MC escape so the outcome stays exactly comparable.
        let config = ExploreConfig {
            use_mc_bounds: false,
            ..ExploreConfig::default()
        };
        for (i, site) in sites.iter().enumerate() {
            let out = explore_cell(
                &service,
                i as u64,
                *site,
                1,
                &region(),
                &mut history,
                &config,
                &mut rng,
            )
            .unwrap();
            let cell = out.estimate.exact_cell().unwrap();
            let expected = diagram.cells[i].area();
            assert!(
                (cell.area - expected).abs() / expected < 1e-6,
                "site {i}: {} vs {}",
                cell.area,
                expected
            );
        }
        assert!(history.len() >= sites.len());
    }

    #[test]
    fn history_reduces_query_cost() {
        let mut rng = StdRng::seed_from_u64(11);
        let dataset = ScenarioBuilder::uniform_points(150, region()).build(&mut rng);
        let service = SimulatedLbs::new(dataset.clone(), ServiceConfig::lr_lbs(10));
        let sites: Vec<Point> = dataset.locations().collect();

        // Explore 12 cells without history, then the same cells with history.
        let mut cost_plain = 0u64;
        for (i, site) in sites.iter().enumerate().take(12) {
            let mut h = History::new();
            let out = explore_cell(
                &service,
                i as u64,
                *site,
                1,
                &region(),
                &mut h,
                &ExploreConfig::plain(),
                &mut rng,
            )
            .unwrap();
            cost_plain += out.queries_used;
        }
        let mut cost_hist = 0u64;
        let mut shared = History::new();
        let cfg = ExploreConfig {
            use_mc_bounds: false,
            ..ExploreConfig::default()
        };
        for (i, site) in sites.iter().enumerate().take(12) {
            let out = explore_cell(
                &service,
                i as u64,
                *site,
                1,
                &region(),
                &mut shared,
                &cfg,
                &mut rng,
            )
            .unwrap();
            cost_hist += out.queries_used;
        }
        assert!(
            cost_hist < cost_plain,
            "history should reduce cost: {cost_hist} vs {cost_plain}"
        );
    }

    #[test]
    fn top2_cell_exploration_is_exact() {
        let pts = vec![
            (50.0, 50.0),
            (10.0, 50.0),
            (90.0, 50.0),
            (50.0, 10.0),
            (50.0, 90.0),
        ];
        let service = make_service(&pts, 5);
        let mut rng = StdRng::seed_from_u64(13);
        let mut history = History::new();
        let out = explore_cell(
            &service,
            0,
            Point::new(50.0, 50.0),
            2,
            &region(),
            &mut history,
            &ExploreConfig::plain(),
            &mut rng,
        )
        .unwrap();
        let cell = out.estimate.exact_cell().unwrap();
        // Oracle: exact top-2 cell computed from the full site set.
        let others: Vec<Point> = pts[1..].iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let oracle = top_k_cell(&Point::new(50.0, 50.0), &others, 2, &region());
        assert!(
            (cell.area - oracle.area).abs() / oracle.area < 1e-6,
            "{} vs {}",
            cell.area,
            oracle.area
        );
    }

    #[test]
    fn monte_carlo_escape_is_close_on_average() {
        // A denser database where the MC escape is forced very early; the
        // average of the MC inverse-probability estimates must approximate
        // the exact one (unbiasedness of the escape).
        let mut rng = StdRng::seed_from_u64(17);
        let dataset = ScenarioBuilder::uniform_points(120, region()).build(&mut rng);
        let service = SimulatedLbs::new(dataset.clone(), ServiceConfig::lr_lbs(8));
        let site = dataset.tuples()[7].location;

        // Exact reference.
        let mut h = History::new();
        let exact = explore_cell(
            &service,
            7,
            site,
            1,
            &region(),
            &mut h,
            &ExploreConfig::plain(),
            &mut rng,
        )
        .unwrap();
        let exact_inv = exact.estimate.inverse_probability_uniform(&region());

        // Aggressive escape configuration.
        let cfg = ExploreConfig {
            mc_vertex_threshold: 0,
            mc_min_shrink: 10.0, // always triggers once rounds >= 3
            ..ExploreConfig::default()
        };
        let mut sum = 0.0;
        let n = 60;
        for seed in 0..n {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut h = History::new();
            let out =
                explore_cell(&service, 7, site, 1, &region(), &mut h, &cfg, &mut rng).unwrap();
            sum += out.estimate.inverse_probability_uniform(&region());
        }
        let mean = sum / n as f64;
        assert!(
            (mean - exact_inv).abs() / exact_inv < 0.35,
            "MC mean {mean} vs exact {exact_inv}"
        );
    }

    #[test]
    fn fast_init_failure_wastes_at_most_one_round() {
        // A single-tuple database: the fake box returns only the site itself,
        // the algorithm must fall back to the real bounding box and finish
        // with the whole region as the cell.
        let service = make_service(&[(50.0, 50.0)], 5);
        let mut rng = StdRng::seed_from_u64(23);
        let mut history = History::new();
        let out = explore_cell(
            &service,
            0,
            Point::new(50.0, 50.0),
            1,
            &region(),
            &mut history,
            &ExploreConfig {
                use_mc_bounds: false,
                ..ExploreConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let cell = out.estimate.exact_cell().unwrap();
        assert!((cell.area - region().area()).abs() < 1e-6);
    }

    #[test]
    fn inverse_probability_formulas() {
        let cell = top_k_cell(
            &Point::new(25.0, 50.0),
            &[Point::new(75.0, 50.0)],
            1,
            &region(),
        );
        let exact = CellEstimate::Exact { cell: cell.clone() };
        assert!((exact.inverse_probability_uniform(&region()) - 2.0).abs() < 1e-9);
        let mc = CellEstimate::MonteCarlo {
            bounding_cell: cell,
            trials: 3,
        };
        assert!((mc.inverse_probability_uniform(&region()) - 6.0).abs() < 1e-9);
    }
}
