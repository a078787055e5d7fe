//! The simulated location based service.
//!
//! [`SimulatedLbs`] wraps an `lbs-data` [`Dataset`] behind the
//! [`LbsBackend`] trait: it ranks tuples by the configured ranking
//! function, truncates to the top-k, enforces the maximum-radius restriction,
//! strips locations for LNR configurations, applies WeChat-style location
//! obfuscation, and charges every answered query to a shared [`QueryBudget`].
//!
//! Pass-through selection conditions (paper §5.1) are modelled with
//! [`SimulatedLbs::filtered`]: the returned view answers kNN queries over the
//! matching subset of tuples only — exactly what appending `NAME =
//! 'STARBUCKS'` to a Google Places query does — while continuing to charge
//! the same budget.
//!
//! Everything but the budget is immutable and reference-counted, so one
//! built service can back any number of runs: [`SimulatedLbs::with_budget`]
//! hands out a copy sharing the index and charging a budget of its own, and
//! an answer shares each returned tuple's [`Attributes`] instead of copying
//! them.

use std::sync::Arc;

use lbs_data::{Attributes, Dataset, Tuple, TupleId};
use lbs_geom::{Point, Rect};
use lbs_index::{GridIndex, SpatialIndex};

use crate::backend::LbsBackend;
use crate::budget::QueryBudget;
use crate::config::{Ranking, ReturnMode, ServiceConfig};
use crate::interface::{PassThroughFilter, QueryError, QueryResponse, ReturnedTuple};

/// A simulated LBS over a synthetic dataset.
#[derive(Clone)]
pub struct SimulatedLbs {
    dataset: Arc<Dataset>,
    /// Tuple ids in index order (positions in `index` map to these ids).
    ids: Arc<Vec<TupleId>>,
    /// Tuple attributes in index order, shared with the dataset's tuples.
    attributes: Arc<Vec<Attributes>>,
    /// Positions (ranking locations, possibly obfuscated) in index order.
    ranking_locations: Arc<Vec<Point>>,
    index: Arc<GridIndex>,
    config: ServiceConfig,
    budget: Arc<QueryBudget>,
}

impl SimulatedLbs {
    /// Creates a service over the full dataset.
    pub fn new(dataset: Dataset, config: ServiceConfig) -> Self {
        Self::over(Arc::new(dataset), config)
    }

    /// Creates a service over a shared dataset, with a budget of its own
    /// honouring the config's `query_limit`.
    pub fn over(dataset: Arc<Dataset>, config: ServiceConfig) -> Self {
        let budget = match config.query_limit {
            Some(l) => QueryBudget::with_limit(l),
            None => QueryBudget::unlimited(),
        };
        let tuples: Vec<&Tuple> = dataset.tuples().iter().collect();
        Self::build(dataset.clone(), &tuples, config, budget)
    }

    /// This service charging `budget` instead: the copy shares the dataset,
    /// the index and every other built structure, so it costs a few
    /// reference counts rather than a rebuild.
    pub fn with_budget(&self, budget: Arc<QueryBudget>) -> Self {
        SimulatedLbs {
            budget,
            ..self.clone()
        }
    }

    fn build(
        dataset: Arc<Dataset>,
        tuples: &[&Tuple],
        config: ServiceConfig,
        budget: Arc<QueryBudget>,
    ) -> Self {
        let ids: Vec<TupleId> = tuples.iter().map(|t| t.id).collect();
        let attributes: Vec<Attributes> = tuples.iter().map(|t| t.attributes.clone()).collect();
        let ranking_locations: Vec<Point> = tuples
            .iter()
            .map(|t| match config.obfuscation_grid {
                Some(grid) if grid > 0.0 => obfuscate(&t.location, grid),
                _ => t.location,
            })
            .collect();
        SimulatedLbs {
            dataset,
            ids: Arc::new(ids),
            attributes: Arc::new(attributes),
            index: Arc::new(GridIndex::build(&ranking_locations)),
            ranking_locations: Arc::new(ranking_locations),
            config,
            budget,
        }
    }

    /// A view of this service restricted to tuples matching `filter`,
    /// charging the same query budget.
    ///
    /// This models pass-through selection conditions: the real interface
    /// would apply the keyword filter server-side before ranking, so the kNN
    /// semantics of the view are "k nearest *matching* tuples".
    pub fn filtered(&self, filter: &PassThroughFilter) -> SimulatedLbs {
        let tuples: Vec<&Tuple> = self
            .dataset
            .tuples()
            .iter()
            .filter(|t| filter.matches(t))
            .collect();
        Self::build(
            self.dataset.clone(),
            &tuples,
            self.config.clone(),
            self.budget.share(),
        )
    }

    /// The underlying dataset (ground truth — used only by the experiment
    /// harness, never by the estimators).
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The shared query budget.
    pub fn budget(&self) -> &Arc<QueryBudget> {
        &self.budget
    }

    /// Number of tuples visible through this (possibly filtered) view.
    pub fn visible_tuples(&self) -> usize {
        self.ids.len()
    }

    /// The true location of a tuple, ignoring obfuscation. Used by the
    /// localization-accuracy experiment (Figure 21) to measure the error of
    /// inferred positions; estimators must not call this.
    pub fn true_location(&self, id: TupleId) -> Option<Point> {
        self.dataset.get(id).map(|t| t.location)
    }

    fn candidate_count(&self) -> usize {
        // Enough candidates to fill the answer even after the radius filter.
        self.config.k
    }

    fn score_and_rank(&self, location: &Point) -> Vec<(usize, f64)> {
        // `pos` is the position within the index/ids arrays, not the tuple id.
        match self.config.ranking {
            Ranking::Distance => self
                .index
                .k_nearest(location, self.candidate_count())
                .into_iter()
                .map(|n| (n.id, n.distance))
                .collect(),
            Ranking::Prominence { weight } => {
                // Pull a generous candidate pool by distance, then re-rank by
                // the mixed score. Real services compute the score over the
                // whole database; a pool of 4k candidates approximates that
                // closely because prominence can only promote tuples by a
                // bounded amount of distance (`weight` km per unit).
                let pool = self.index.k_nearest(location, (self.config.k * 4).max(32));
                let mut scored: Vec<(usize, f64)> = pool
                    .into_iter()
                    .map(|n| {
                        let prominence = self.attributes[n.id]
                            .get(lbs_data::attrs::PROMINENCE)
                            .and_then(lbs_data::AttrValue::as_f64)
                            .unwrap_or(0.0);
                        (n.id, n.distance - weight * prominence)
                    })
                    .collect();
                // `total_cmp` keeps the sort total even when a prominence
                // attribute is NaN (NaN scores sink to the end instead of
                // panicking), and the tuple-id tie-break makes the ranking of
                // co-located / equidistant tuples deterministic.
                scored.sort_by(|a, b| {
                    a.1.total_cmp(&b.1)
                        .then_with(|| self.ids[a.0].cmp(&self.ids[b.0]))
                });
                scored.truncate(self.config.k);
                scored
            }
        }
    }
}

/// Snaps a location to the centre of an obfuscation grid cell.
fn obfuscate(p: &Point, grid: f64) -> Point {
    Point::new(
        (p.x / grid).floor() * grid + grid * 0.5,
        (p.y / grid).floor() * grid + grid * 0.5,
    )
}

impl LbsBackend for SimulatedLbs {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        if !self.budget.charge() {
            return Err(QueryError::BudgetExhausted {
                issued: self.budget.issued(),
                limit: self.budget.limit().unwrap_or(u64::MAX),
            });
        }

        let ranked = self.score_and_rank(location);
        let mut results = Vec::with_capacity(ranked.len());
        for (rank0, (pos, _score)) in ranked.into_iter().enumerate() {
            let id = self.ids[pos];
            let ranking_loc = self.ranking_locations[pos];
            let distance = location.distance(&ranking_loc);
            // The maximum-radius restriction applies to the distance the
            // service itself computes (i.e. over ranking locations).
            if let Some(max_r) = self.config.max_radius {
                if distance > max_r {
                    continue;
                }
            }
            let (loc_out, dist_out) = match self.config.return_mode {
                ReturnMode::LocationReturned => (Some(ranking_loc), Some(distance)),
                ReturnMode::RankOnly => (None, None),
            };
            results.push(ReturnedTuple {
                id,
                rank: rank0 + 1,
                location: loc_out,
                distance: dist_out,
                attributes: self.attributes[pos].clone(),
            });
        }
        // Re-number ranks after the radius filter so they stay contiguous.
        for (i, r) in results.iter_mut().enumerate() {
            r.rank = i + 1;
        }
        Ok(QueryResponse { results })
    }

    fn config(&self) -> &ServiceConfig {
        &self.config
    }

    fn queries_issued(&self) -> u64 {
        self.budget.issued()
    }

    fn bbox(&self) -> Rect {
        self.dataset.bbox()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_data::attrs;
    use lbs_geom::Rect;

    fn toy_dataset() -> Dataset {
        // A 3x3 lattice of POIs spaced 10 km apart, ids 0..9 row-major.
        let mut tuples = Vec::new();
        for j in 0..3 {
            for i in 0..3 {
                let id = (j * 3 + i) as TupleId;
                let category = if id % 2 == 0 { "restaurant" } else { "school" };
                tuples.push(
                    Tuple::new(
                        id,
                        Point::new(10.0 + i as f64 * 10.0, 10.0 + j as f64 * 10.0),
                    )
                    .with_attr(attrs::CATEGORY, category)
                    .with_attr(attrs::PROMINENCE, (id as f64) / 10.0),
                );
            }
        }
        Dataset::new(tuples, Rect::from_bounds(0.0, 0.0, 40.0, 40.0))
    }

    #[test]
    fn lr_query_returns_locations_and_distances() {
        let svc = SimulatedLbs::new(toy_dataset(), ServiceConfig::lr_lbs(3));
        let resp = svc.query(&Point::new(11.0, 11.0)).unwrap();
        assert_eq!(resp.results.len(), 3);
        let top = resp.top().unwrap();
        assert_eq!(top.id, 0);
        assert!(top.location.is_some());
        assert!((top.distance.unwrap() - 2.0_f64.sqrt()).abs() < 1e-9);
        assert_eq!(resp.results[0].rank, 1);
        assert_eq!(resp.results[1].rank, 2);
        assert_eq!(svc.queries_issued(), 1);
    }

    #[test]
    fn lnr_query_strips_locations() {
        let svc = SimulatedLbs::new(toy_dataset(), ServiceConfig::lnr_lbs(5));
        let resp = svc.query(&Point::new(11.0, 11.0)).unwrap();
        assert_eq!(resp.results.len(), 5);
        for r in &resp.results {
            assert!(r.location.is_none());
            assert!(r.distance.is_none());
            // Non-location attributes are still there.
            assert!(r.text(attrs::CATEGORY).is_some());
        }
        assert_eq!(resp.top().unwrap().id, 0);
    }

    #[test]
    fn ranking_is_by_distance() {
        let svc = SimulatedLbs::new(toy_dataset(), ServiceConfig::lr_lbs(9));
        let resp = svc.query(&Point::new(20.0, 20.0)).unwrap();
        // Centre tuple (id 4) is nearest.
        assert_eq!(resp.top().unwrap().id, 4);
        // Distances are non-decreasing.
        let dists: Vec<f64> = resp.results.iter().map(|r| r.distance.unwrap()).collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn max_radius_filters_far_tuples() {
        let cfg = ServiceConfig::lr_lbs(9).with_max_radius(12.0);
        let svc = SimulatedLbs::new(toy_dataset(), cfg);
        let resp = svc.query(&Point::new(10.0, 10.0)).unwrap();
        for r in &resp.results {
            assert!(r.distance.unwrap() <= 12.0);
        }
        assert!(resp.results.len() < 9);
        // A query in the far corner of an empty area returns nothing.
        let empty = svc.query(&Point::new(0.0, 40.0)).unwrap();
        assert!(empty.results.len() <= 1);
    }

    #[test]
    fn budget_limit_is_enforced() {
        let cfg = ServiceConfig::lr_lbs(1).with_query_limit(2);
        let svc = SimulatedLbs::new(toy_dataset(), cfg);
        assert!(svc.query(&Point::new(10.0, 10.0)).is_ok());
        assert!(svc.query(&Point::new(10.0, 10.0)).is_ok());
        let err = svc.query(&Point::new(10.0, 10.0)).unwrap_err();
        assert!(matches!(err, QueryError::BudgetExhausted { limit: 2, .. }));
        assert_eq!(svc.queries_issued(), 2);
    }

    #[test]
    fn filtered_view_restricts_candidates_and_shares_budget() {
        let svc = SimulatedLbs::new(toy_dataset(), ServiceConfig::lr_lbs(4));
        let filter = PassThroughFilter::equals(attrs::CATEGORY, "school");
        let schools = svc.filtered(&filter);
        assert_eq!(schools.visible_tuples(), 4); // ids 1,3,5,7
        let resp = schools.query(&Point::new(11.0, 11.0)).unwrap();
        for r in &resp.results {
            assert!(r.text(attrs::CATEGORY).unwrap() == "school");
        }
        // Nearest school to (11,11) is id 1 at (20,10) or id 3 at (10,20) —
        // id 1 wins the tie-break? Both at distance sqrt(81+1)=sqrt(82).
        assert!(resp.top().unwrap().id == 1 || resp.top().unwrap().id == 3);
        // The filtered view charged the same budget as the parent.
        assert_eq!(svc.queries_issued(), 1);
        let _ = svc.query(&Point::new(5.0, 5.0)).unwrap();
        assert_eq!(schools.queries_issued(), 2);
    }

    #[test]
    fn prominence_ranking_can_reorder() {
        // Tuple 8 (prominence 0.8) should beat nearer, less prominent tuples
        // when the weight is large.
        let cfg = ServiceConfig::lr_lbs(3).with_ranking(Ranking::Prominence { weight: 100.0 });
        let svc = SimulatedLbs::new(toy_dataset(), cfg);
        let resp = svc.query(&Point::new(11.0, 11.0)).unwrap();
        assert_eq!(resp.top().unwrap().id, 8);
        // With weight 0 the ordering is by pure distance again.
        let cfg0 = ServiceConfig::lr_lbs(3).with_ranking(Ranking::Prominence { weight: 0.0 });
        let svc0 = SimulatedLbs::new(toy_dataset(), cfg0);
        assert_eq!(
            svc0.query(&Point::new(11.0, 11.0))
                .unwrap()
                .top()
                .unwrap()
                .id,
            0
        );
    }

    #[test]
    fn co_located_tuples_rank_deterministically_by_id() {
        // Five tuples stacked on the same point (plus one distinct) used to
        // hit the `partial_cmp().unwrap()` ranking with genuinely tied
        // scores, where the sort order was implementation-defined. The
        // (score, id) tie-break must rank duplicates by tuple id, for both
        // ranking functions.
        let stack = Point::new(10.0, 10.0);
        let mut tuples: Vec<Tuple> = (0..5)
            .map(|id| {
                Tuple::new(id as TupleId, stack)
                    .with_attr(attrs::CATEGORY, "cafe")
                    .with_attr(attrs::PROMINENCE, 0.5)
            })
            .collect();
        tuples.push(Tuple::new(5, Point::new(30.0, 30.0)).with_attr(attrs::PROMINENCE, 0.5));
        let dataset = Dataset::new(tuples, Rect::from_bounds(0.0, 0.0, 40.0, 40.0));

        for ranking in [Ranking::Distance, Ranking::Prominence { weight: 1.0 }] {
            let cfg = ServiceConfig::lr_lbs(5).with_ranking(ranking);
            let svc = SimulatedLbs::new(dataset.clone(), cfg);
            let resp = svc.query(&Point::new(11.0, 11.0)).unwrap();
            let ids: Vec<TupleId> = resp.results.iter().map(|r| r.id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4], "ranking {ranking:?}");
        }
    }

    #[test]
    fn nan_prominence_cannot_panic_the_ranking() {
        // A tuple with a NaN prominence attribute produces a NaN score under
        // prominence ranking; `total_cmp` must sink it to the end of the
        // ranking instead of panicking (the old `partial_cmp().unwrap()`
        // aborted the whole service on this input).
        let tuples = vec![
            Tuple::new(0, Point::new(10.0, 10.0)).with_attr(attrs::PROMINENCE, f64::NAN),
            Tuple::new(1, Point::new(20.0, 10.0)).with_attr(attrs::PROMINENCE, 0.2),
            Tuple::new(2, Point::new(30.0, 10.0)).with_attr(attrs::PROMINENCE, 0.1),
        ];
        let dataset = Dataset::new(tuples, Rect::from_bounds(0.0, 0.0, 40.0, 40.0));
        let cfg = ServiceConfig::lr_lbs(3).with_ranking(Ranking::Prominence { weight: 1.0 });
        let svc = SimulatedLbs::new(dataset, cfg);
        let resp = svc.query(&Point::new(10.0, 10.0)).unwrap();
        assert_eq!(resp.results.len(), 3);
        // NaN ranks last; the finite scores keep their relative order.
        assert_eq!(resp.results.last().unwrap().id, 0);
    }

    #[test]
    fn obfuscation_moves_reported_locations_but_keeps_truth() {
        let cfg = ServiceConfig::lr_lbs(1).with_obfuscation(7.0);
        let svc = SimulatedLbs::new(toy_dataset(), cfg);
        let resp = svc.query(&Point::new(10.0, 10.0)).unwrap();
        let reported = resp.top().unwrap().location.unwrap();
        let truth = svc.true_location(resp.top().unwrap().id).unwrap();
        assert!(!reported.approx_eq(&truth));
        assert!(reported.distance(&truth) <= 7.0 * std::f64::consts::SQRT_2 / 2.0 + 1e-9);
    }

    #[test]
    fn k_larger_than_database_returns_all() {
        let svc = SimulatedLbs::new(toy_dataset(), ServiceConfig::lr_lbs(100));
        let resp = svc.query(&Point::new(20.0, 20.0)).unwrap();
        assert_eq!(resp.results.len(), 9);
    }

    #[test]
    fn simulated_lbs_is_send_and_sync() {
        // The parallel sample driver shares one `&SimulatedLbs` across all
        // worker threads; keep that a compile-time guarantee.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimulatedLbs>();
    }

    #[test]
    fn concurrent_queries_respect_the_hard_limit_on_every_thread() {
        // Eight threads hammer a service with a hard limit of 500 queries.
        // The atomic budget must (a) answer exactly 500 queries in total
        // across all threads, and (b) surface exhaustion as a QueryError on
        // *every* thread — each worker keeps probing after its first error
        // and must never see another success.
        let limit = 500u64;
        let svc = SimulatedLbs::new(
            toy_dataset(),
            ServiceConfig::lr_lbs(3).with_query_limit(limit),
        );
        let (total_ok, exhausted_threads) = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..8u64 {
                let svc = &svc;
                handles.push(scope.spawn(move || {
                    let mut ok = 0u64;
                    let mut saw_exhaustion = false;
                    // More probes than the whole limit, so even a thread that
                    // runs alone is guaranteed to hit exhaustion.
                    for i in 0..600u64 {
                        let p = Point::new((worker * 7 + i) as f64 % 40.0, (i * 3) as f64 % 40.0);
                        match svc.query(&p) {
                            Ok(_) => {
                                assert!(
                                    !saw_exhaustion,
                                    "a query succeeded after the budget was exhausted"
                                );
                                ok += 1;
                            }
                            Err(QueryError::BudgetExhausted { limit: l, .. }) => {
                                assert_eq!(l, limit);
                                saw_exhaustion = true;
                            }
                        }
                    }
                    (ok, saw_exhaustion)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0u64, 0usize), |(total, threads), (ok, saw)| {
                    (total + ok, threads + usize::from(saw))
                })
        });
        assert_eq!(total_ok, limit, "exactly `limit` queries may be answered");
        assert_eq!(svc.queries_issued(), limit);
        assert_eq!(
            exhausted_threads, 8,
            "every thread must observe BudgetExhausted"
        );
    }
}
