//! Algorithm LNR-LBS-AGG (paper Algorithm 6).
//!
//! Per sample: draw a query location, issue one kNN query, and for each tuple
//! returned within the configured top-h level recover its top-h Voronoi cell
//! through the rank-only binary-search machinery, then add `Q(t) / p(t)` to
//! the sample contribution with `p(t)` the probability of sampling a location
//! inside the recovered cell. The recovered cell differs from the true one by
//! at most the edge error, so the estimate carries a bias bounded by the
//! paper's Theorem 2 — arbitrarily small for a logarithmic extra query cost.

use rand::rngs::StdRng;

use lbs_geom::{ClipScratch, ConvexPolygon, Rect};
use lbs_service::{LbsBackend, QueryError, ReturnMode};

use crate::agg::Aggregate;
use crate::engine_stats::EngineReport;
use crate::estimate::{Estimate, EstimateError};
use crate::sampling::QuerySampler;
use crate::session::{run_batch, SampleEstimator, SessionConfig};

use super::binary_search::RankOracle;
use super::cell::{explore_cell_with, LnrExploreConfig};
use super::locate::{infer_position, LocateConfig};

/// Configuration of the LNR-LBS-AGG estimator.
#[derive(Clone, Debug)]
pub struct LnrLbsAggConfig {
    /// How many of the returned tuples to use per query (their top-h cells
    /// are recovered; `1` is the default because each extra tuple costs a
    /// full cell exploration through binary searches).
    pub h: usize,
    /// Bracket width δ of the edge binary searches (coordinate units). The
    /// estimation bias shrinks with δ (Theorem 2) at `O(log(1/δ))` extra
    /// queries per edge.
    pub delta: f64,
    /// Lateral offset δ′ of the secondary binary searches.
    pub delta_prime: f64,
    /// Density-weighted sampling (§5.2). Exact probability integration over
    /// the recovered cell requires a convex cell, so this is honoured only
    /// when `h = 1`.
    pub weighted_sampler: Option<lbs_data::DensityGrid>,
    /// Safety cap on edges per cell.
    pub max_edges: usize,
}

impl Default for LnrLbsAggConfig {
    fn default() -> Self {
        LnrLbsAggConfig {
            h: 1,
            delta: 0.05,
            delta_prime: 0.5,
            weighted_sampler: None,
            max_edges: 40,
        }
    }
}

impl LnrLbsAggConfig {
    fn explore_config(&self) -> LnrExploreConfig {
        LnrExploreConfig {
            delta: self.delta,
            delta_prime: self.delta_prime,
            max_edges: self.max_edges,
            max_rounds: 24,
        }
    }
}

/// The LNR-LBS-AGG estimator.
#[derive(Clone, Debug, Default)]
pub struct LnrLbsAgg {
    config: LnrLbsAggConfig,
}

impl LnrLbsAgg {
    /// Creates an estimator with the given configuration.
    pub fn new(config: LnrLbsAggConfig) -> Self {
        LnrLbsAgg { config }
    }

    /// Estimates `aggregate` over `region` through the rank-only interface
    /// `service`, under the budget, seed and thread count of `cfg`.
    ///
    /// Bit-identical for any thread count given the same `cfg.root_seed`
    /// (see [`crate::driver`]). LNR samples carry no cross-sample state —
    /// each one builds its own [`RankOracle`] — so there is no fork/absorb
    /// tradeoff, and `cfg.with_wave_size(1)` only moves the budget check to
    /// after every sample.
    ///
    /// Also works against LR interfaces (ignoring the returned locations),
    /// which is how the paper's localization experiment treats Google Places
    /// as an LNR service.
    pub fn run<S: LbsBackend + ?Sized>(
        &self,
        service: &S,
        region: &Rect,
        aggregate: &Aggregate,
        cfg: SessionConfig,
    ) -> Result<Estimate, EstimateError> {
        run_batch(
            service,
            region,
            aggregate,
            self.config.clone(),
            &mut EngineReport::default(),
            cfg,
        )
    }
}

impl SampleEstimator for LnrLbsAggConfig {
    type State = EngineReport;

    fn design<S: LbsBackend + ?Sized>(&self, _service: &S, region: &Rect) -> QuerySampler {
        match (&self.weighted_sampler, self.h) {
            (Some(grid), 1) => QuerySampler::weighted(grid.clone()),
            _ => QuerySampler::uniform(*region),
        }
    }

    /// Runs one independent sample through the rank-only machinery and
    /// returns its Horvitz–Thompson `(numerator, denominator)` contribution.
    fn sample_once<S: LbsBackend + ?Sized>(
        &self,
        service: &S,
        sampler: &QuerySampler,
        region: &Rect,
        aggregate: &Aggregate,
        engine: &mut EngineReport,
        rng: &mut StdRng,
    ) -> Result<(f64, f64), QueryError> {
        let h = self.h.clamp(1, service.config().k.max(1));
        let explore_config = self.explore_config();
        let q = sampler.sample(rng);
        let resp = service.query(&q)?;

        let mut num_contrib = 0.0;
        let mut den_contrib = 0.0;

        // One scratch arena for every exploration this sample performs; the
        // buffers are reused across the per-tuple round loops below.
        let mut scratch = ClipScratch::new();

        for returned in resp.results.iter().filter(|r| r.rank <= h) {
            // Ignore any location the service may have returned: this
            // estimator must work from ranks alone.
            debug_assert!(
                service.config().return_mode == ReturnMode::LocationReturned
                    || returned.location.is_none()
            );
            let mut oracle = RankOracle::new(service, h);
            let cell = explore_cell_with(
                &mut oracle,
                returned.id,
                q,
                region,
                &explore_config,
                &mut scratch,
            )?;
            engine.add(&cell.engine);

            // Full-region base-design probability even under stratified
            // sampling (see the LR estimator: the stratified combiner's
            // base-design weights make the full-region 1/π unbiased).
            let probability = match sampler.base() {
                QuerySampler::Uniform { bbox } => cell.region.area / bbox.area(),
                QuerySampler::Weighted { grid } => {
                    // h = 1 ⇒ the level region is convex; rebuild its
                    // polygon from the vertex set to integrate exactly.
                    let hull = ConvexPolygon::hull(&cell.region.vertices);
                    grid.integrate_convex(&hull)
                }
                // `base()` never returns a stratified design; skip rather
                // than contribute something biased if it ever happens.
                QuerySampler::Stratified { .. } => 0.0,
            };
            if probability <= f64::EPSILON {
                continue;
            }

            // Location-dependent selection conditions need an inferred
            // position (§4.3); infer it lazily and only when required.
            let location = if aggregate.needs_location() {
                let mut locate_oracle = RankOracle::new(service, 1);
                infer_position(
                    &mut locate_oracle,
                    returned.id,
                    &cell,
                    region,
                    &LocateConfig::default(),
                )?
            } else {
                None
            };

            let num = aggregate
                .numerator(returned, location.as_ref())
                .unwrap_or(0.0);
            let den = aggregate
                .denominator(returned, location.as_ref())
                .unwrap_or(0.0);
            num_contrib += num / probability;
            den_contrib += den / probability;
        }

        Ok((num_contrib, den_contrib))
    }

    fn fork(_master: &EngineReport) -> EngineReport {
        EngineReport::default()
    }

    fn absorb(master: &mut EngineReport, fork: &EngineReport) {
        master.add(fork);
    }

    fn engine(engine: &EngineReport) -> EngineReport {
        *engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Selection;
    use lbs_data::{attrs, Dataset, ScenarioBuilder};
    use lbs_service::{ServiceConfig, SimulatedLbs};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn region() -> Rect {
        Rect::from_bounds(0.0, 0.0, 200.0, 200.0)
    }

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        ScenarioBuilder::usa_pois(n)
            .with_bbox(region())
            .build(&mut rng)
    }

    #[test]
    fn count_all_converges_without_locations() {
        let d = dataset(80, 1);
        let truth = d.len() as f64;
        let service = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(10));
        let est = LnrLbsAgg::new(LnrLbsAggConfig {
            delta: 0.2,
            ..LnrLbsAggConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(6_000, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        let rel = out.relative_error(truth);
        assert!(rel < 0.5, "relative error {rel} (estimate {})", out.value);
        assert!(out.samples >= 5);
    }

    #[test]
    fn gender_ratio_style_count_with_attribute_selection() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = ScenarioBuilder::wechat_users(80)
            .with_bbox(region())
            .build(&mut rng);
        let male_truth = d.count_where(|t| t.text_eq(attrs::GENDER, "male")) as f64;
        let service = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(10));
        let agg = Aggregate::count_where(Selection::TextEquals {
            attr: attrs::GENDER.into(),
            value: "male".into(),
        });
        let est = LnrLbsAgg::new(LnrLbsAggConfig {
            delta: 0.2,
            ..LnrLbsAggConfig::default()
        });
        let out = est
            .run(
                &service,
                &region(),
                &agg,
                SessionConfig::new(6_000, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        assert!(
            out.relative_error(male_truth) < 0.6,
            "estimate {} vs truth {male_truth}",
            out.value
        );
    }

    #[test]
    fn location_selection_uses_position_inference() {
        // COUNT of tuples inside a sub-region, through a rank-only interface:
        // feasible only thanks to §4.3 position inference.
        let d = dataset(60, 5);
        let sub = Rect::from_bounds(0.0, 0.0, 100.0, 200.0);
        let agg = Aggregate::count_where(Selection::InRegion(sub));
        let truth = agg.ground_truth(&d, &region());
        let service = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(10));
        let est = LnrLbsAgg::new(LnrLbsAggConfig {
            delta: 0.2,
            ..LnrLbsAggConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(6);
        let out = est
            .run(
                &service,
                &region(),
                &agg,
                SessionConfig::new(6_000, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        // Roughly half the tuples are in the sub-region; the estimate should
        // land in the right ballpark despite the inference overhead.
        assert!(
            out.relative_error(truth.max(1.0)) < 0.8,
            "estimate {} vs truth {truth}",
            out.value
        );
    }

    #[test]
    fn works_against_lr_interfaces_by_ignoring_locations() {
        let d = dataset(50, 7);
        let truth = d.len() as f64;
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
        let est = LnrLbsAgg::new(LnrLbsAggConfig {
            delta: 0.2,
            ..LnrLbsAggConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(8);
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(4_000, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        assert!(out.relative_error(truth) < 0.6);
    }

    #[test]
    fn hard_limit_yields_no_samples() {
        let d = dataset(30, 9);
        let service = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(5).with_query_limit(2));
        let est = LnrLbsAgg::new(LnrLbsAggConfig::default());
        let mut rng = StdRng::seed_from_u64(10);
        let res = est.run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(1_000, rng.next_u64()).with_wave_size(1),
        );
        assert!(matches!(res, Err(EstimateError::NoSamples)));
    }
}
