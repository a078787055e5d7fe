//! LR-LBS-NNO: nearest-neighbour-oracle sampling with Monte-Carlo
//! Voronoi-area estimation.

use rand::rngs::StdRng;
use rand::Rng;

use lbs_geom::{sort_by_distance, top_k_cell_pruned, Point, Rect};
use lbs_service::{LbsBackend, QueryError, ReturnMode};

use crate::agg::Aggregate;
use crate::engine_stats::EngineReport;
use crate::estimate::{Estimate, EstimateError};
use crate::sampling::QuerySampler;
use crate::session::{run_batch, SampleEstimator, SessionConfig};

/// Monte-Carlo points used to estimate each Voronoi-cell area.
const MC_POINTS: usize = 12;
/// Initial probe radius as a fraction of the region diagonal.
const INITIAL_RADIUS_FRACTION: f64 = 0.002;
/// Maximum number of radius doublings while searching for a covering square.
const MAX_DOUBLINGS: usize = 12;

/// Configuration of the LR-LBS-NNO baseline. The baseline has no knobs: the
/// constants above fix its probing and its Monte-Carlo area estimate.
#[derive(Clone, Debug, Default)]
pub struct NnoConfig;

/// The LR-LBS-NNO baseline estimator.
#[derive(Clone, Debug, Default)]
pub struct NnoBaseline {
    config: NnoConfig,
}

impl NnoBaseline {
    /// Creates a baseline estimator with the given configuration.
    pub fn new(config: NnoConfig) -> Self {
        NnoBaseline { config }
    }

    /// Estimates `aggregate` over `region` through the LR interface
    /// `service`, under the budget, seed and thread count of `cfg`.
    ///
    /// Bit-identical for any thread count given the same `cfg.root_seed`
    /// (see [`crate::driver`]); the baseline's samples are fully
    /// independent, so `cfg.with_wave_size(1)` only moves the budget check
    /// to after every sample.
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

impl SampleEstimator for NnoConfig {
    type State = EngineReport;

    fn design<S: LbsBackend + ?Sized>(&self, service: &S, region: &Rect) -> QuerySampler {
        assert_eq!(
            service.config().return_mode,
            ReturnMode::LocationReturned,
            "LR-LBS-NNO requires a location-returned interface"
        );
        QuerySampler::uniform(*region)
    }

    /// Runs one independent baseline sample and returns its
    /// `(numerator, denominator)` contribution. The covering square, the
    /// Monte-Carlo area and the inverse probability stay full-region even
    /// when `sampler` draws from a stratum.
    fn sample_once<S: LbsBackend + ?Sized>(
        &self,
        service: &S,
        sampler: &QuerySampler,
        region: &Rect,
        aggregate: &Aggregate,
        engine: &mut EngineReport,
        rng: &mut StdRng,
    ) -> Result<(f64, f64), QueryError> {
        let q = sampler.sample(rng);
        let resp = service.query(&q)?;
        let Some(top) = resp.top().cloned() else {
            return Ok((0.0, 0.0));
        };
        let Some(site) = top.location else {
            return Ok((0.0, 0.0));
        };
        // Every tuple location this sample sees is free knowledge for the
        // geometric prefilter below.
        let mut known: Vec<Point> = resp.results.iter().filter_map(|r| r.location).collect();

        // Step 1: find a square that (heuristically) covers the cell.
        let mut radius = (region.diagonal() * INITIAL_RADIUS_FRACTION)
            .max(q.distance(&site))
            .max(1e-6);
        let mut doublings = 0;
        loop {
            let mut all_escaped = true;
            for dir in [
                Point::new(1.0, 0.0),
                Point::new(-1.0, 0.0),
                Point::new(0.0, 1.0),
                Point::new(0.0, -1.0),
            ] {
                let probe = region.clamp(&(site + dir * radius));
                let r = service.query(&probe)?;
                if r.top().map(|t| t.id) == Some(top.id) {
                    all_escaped = false;
                }
                known.extend(r.results.iter().filter_map(|t| t.location));
            }
            if all_escaped || doublings >= MAX_DOUBLINGS {
                break;
            }
            radius *= 2.0;
            doublings += 1;
        }

        // Step 2: Monte-Carlo the cell area inside the square.
        let square = Rect::centered(site, radius)
            .intersection(region)
            .unwrap_or(*region);
        // The top-1 cell of the sampled tuple with respect to the tuples
        // seen so far is a superset of its true Voronoi cell: a probe point
        // outside it provably has a different nearest neighbour, so its
        // service query can be skipped without changing the outcome (the
        // baseline's locality argument, applied to the cell engine).
        sort_by_distance(&site, &mut known);
        // The doubling rounds largely re-return the same tuples; exact
        // duplicates sort adjacent, and dropping them costs nothing
        // geometrically (a repeated half-plane clip is the identity) while
        // keeping the clip counters honest.
        known.dedup();
        let (cell, build) = top_k_cell_pruned(&site, &known, 1, &square, true);
        engine.record_build(&build);
        let superset_cell = cell.convex;
        let mut hits = 0usize;
        for _ in 0..MC_POINTS {
            let p = square.at_fraction(rng.gen(), rng.gen());
            if let Some(cell) = &superset_cell {
                if !cell.contains(&p) {
                    engine.mc_certified += 1;
                    continue;
                }
            }
            let r = service.query(&p)?;
            if r.top().map(|t| t.id) == Some(top.id) {
                hits += 1;
            }
        }
        // Continuity correction: a zero-hit estimate would blow the
        // contribution up to infinity.
        let fraction = (hits.max(1) as f64) / MC_POINTS as f64;
        let area = fraction * square.area();
        let inverse_p = region.area() / area;

        let num = aggregate.numerator(&top, Some(&site)).unwrap_or(0.0);
        let den = aggregate.denominator(&top, Some(&site)).unwrap_or(0.0);
        Ok((num * inverse_p, den * inverse_p))
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
    use lbs_data::{Dataset, ScenarioBuilder};
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
    fn baseline_produces_a_ballpark_count() {
        let d = dataset(150, 1);
        let truth = d.len() as f64;
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
        let est = NnoBaseline::new(NnoConfig);
        let mut rng = StdRng::seed_from_u64(2);
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(3_000, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        // The baseline is noisy and biased; only require the right order of
        // magnitude (the comparison experiments quantify the gap).
        assert!(
            out.value > truth * 0.2 && out.value < truth * 5.0,
            "estimate {} vs truth {truth}",
            out.value
        );
        assert!(out.samples > 5);
    }

    #[test]
    fn baseline_is_noisier_than_lr_lbs_agg() {
        use crate::lr::{LrLbsAgg, LrLbsAggConfig};
        let d = dataset(120, 3);
        let truth = d.len() as f64;
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
        let budget = 2_500;

        let mut rng = StdRng::seed_from_u64(4);
        let mut ours = LrLbsAgg::new(LrLbsAggConfig::default());
        let ours_out = ours
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(budget, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        let baseline = NnoBaseline::new(NnoConfig);
        let base_out = baseline
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(budget, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        // With the same budget the paper's estimator should be at least as
        // accurate (almost always strictly better).
        assert!(
            ours_out.relative_error(truth) <= base_out.relative_error(truth) + 0.15,
            "ours {} vs baseline {} (truth {truth})",
            ours_out.value,
            base_out.value
        );
    }

    #[test]
    #[should_panic(expected = "location-returned")]
    fn rejects_rank_only_interfaces() {
        let d = dataset(20, 5);
        let service = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(5));
        let est = NnoBaseline::new(NnoConfig);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = est.run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(100, rng.next_u64()).with_wave_size(1),
        );
    }

    #[test]
    fn empty_answers_contribute_zero() {
        // A max-radius so small that most queries return nothing.
        let d = dataset(10, 7);
        let cfg = ServiceConfig::lr_lbs(5).with_max_radius(1.0);
        let service = SimulatedLbs::new(d, cfg);
        let est = NnoBaseline::new(NnoConfig);
        let mut rng = StdRng::seed_from_u64(8);
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(300, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        assert!(out.value.is_finite());
    }
}
