//! Algorithm LR-LBS-AGG (paper Algorithm 5).
//!
//! Per sample: draw a query location from the sampling design, issue one kNN
//! query, and for each returned tuple whose rank fits the chosen top-h level
//! compute its exact top-h Voronoi cell and add `Q(t) / p(t)` to the sample's
//! contribution, where `p(t)` is the exact probability of drawing a location
//! inside that cell. The sample contributions are independent and unbiased;
//! their mean is the estimate, and their sample variance yields the
//! confidence interval.

use rand::rngs::StdRng;

use lbs_geom::Rect;
use lbs_service::{LbsBackend, QueryError, ReturnMode};

use crate::agg::Aggregate;
use crate::engine_stats::EngineReport;
use crate::estimate::{Estimate, EstimateError};
use crate::sampling::QuerySampler;
use crate::session::{run_batch, SampleEstimator, SessionConfig};

use super::explorer::{explore_cell, CellEstimate, ExploreConfig};
use super::history::History;
use super::variance::HSelection;

/// Configuration of the LR-LBS-AGG estimator.
#[derive(Clone, Debug)]
pub struct LrLbsAggConfig {
    /// How many of the k returned tuples to use per query (§3.2.3).
    pub h_selection: HSelection,
    /// Faster initialization with fake corner tuples (§3.2.1).
    pub use_fast_init: bool,
    /// Seed cell computations from history (§3.2.2).
    pub use_history: bool,
    /// Allow the unbiased Monte-Carlo escape (§3.2.4).
    pub use_mc_bounds: bool,
    /// Use a density-weighted sampling design instead of uniform (§5.2).
    ///
    /// Weighted sampling integrates the density over the cell polygon, which
    /// is exact only for convex (top-1) cells, so enabling it forces
    /// `h = 1` and disables the Monte-Carlo escape.
    pub weighted_sampler: Option<lbs_data::DensityGrid>,
    /// Stop each cell construction at the security-radius certificate
    /// instead of clipping against every known tuple. Byte-identical
    /// estimates either way (see [`lbs_geom::cell_engine`]); off only for
    /// the equivalence tests and benchmarks.
    pub prune_cells: bool,
    /// Replay finished exact cell explorations from the shared
    /// [`History`] cell cache. A replay issues the same queries as a fresh
    /// exploration, so estimates are byte-identical either way.
    pub cache_cells: bool,
}

impl Default for LrLbsAggConfig {
    fn default() -> Self {
        LrLbsAggConfig {
            h_selection: HSelection::default(),
            use_fast_init: true,
            use_history: true,
            use_mc_bounds: true,
            weighted_sampler: None,
            prune_cells: true,
            cache_cells: true,
        }
    }
}

impl LrLbsAggConfig {
    /// The ablation ladder of the paper's Figure 20: level 0 disables every
    /// error-reduction technique, each following level adds one more in the
    /// order the paper presents them, and level 4 equals the full default.
    ///
    /// | level | fast init | history | adaptive h | MC bounds |
    /// |-------|-----------|---------|------------|-----------|
    /// | 0     | –         | –       | –          | –         |
    /// | 1     | ✓         | –       | –          | –         |
    /// | 2     | ✓         | ✓       | –          | –         |
    /// | 3     | ✓         | ✓       | ✓          | –         |
    /// | 4     | ✓         | ✓       | ✓          | ✓         |
    pub fn ablation_level(level: usize) -> Self {
        let mut cfg = LrLbsAggConfig {
            h_selection: HSelection::Top1,
            use_fast_init: false,
            use_history: false,
            use_mc_bounds: false,
            ..LrLbsAggConfig::default()
        };
        if level >= 1 {
            cfg.use_fast_init = true;
        }
        if level >= 2 {
            cfg.use_history = true;
        }
        if level >= 3 {
            cfg.h_selection = HSelection::default();
        }
        if level >= 4 {
            cfg.use_mc_bounds = true;
        }
        cfg
    }

    /// Configuration using a fixed top-h level for every returned tuple
    /// (the non-adaptive variants of Figure 19).
    pub fn fixed_h(h: usize) -> Self {
        LrLbsAggConfig {
            h_selection: HSelection::Fixed(h),
            ..LrLbsAggConfig::default()
        }
    }

    /// The per-cell exploration settings: this configuration's switches over
    /// the explorer's default limits.
    fn explore_config(&self) -> ExploreConfig {
        ExploreConfig {
            use_fast_init: self.use_fast_init,
            use_history: self.use_history,
            use_mc_bounds: self.use_mc_bounds && self.weighted_sampler.is_none(),
            use_pruned_cells: self.prune_cells,
            use_cell_cache: self.cache_cells,
            ..ExploreConfig::default()
        }
    }
}

/// The LR-LBS-AGG estimator. Holds the cross-sample history so that repeated
/// [`LrLbsAgg::run`] calls on the same service keep benefiting from it.
#[derive(Clone, Debug, Default)]
pub struct LrLbsAgg {
    config: LrLbsAggConfig,
    history: History,
}

impl LrLbsAgg {
    /// Creates an estimator with the given configuration.
    pub fn new(config: LrLbsAggConfig) -> Self {
        LrLbsAgg {
            config,
            history: History::new(),
        }
    }

    /// The accumulated history (for inspection by experiments).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Clears the accumulated history.
    pub fn reset_history(&mut self) {
        self.history = History::new();
    }

    /// Estimates `aggregate` over `region` through the LR interface
    /// `service`, under the budget, seed and thread count of `cfg`, starting
    /// from the accumulated history and adding what the run learns to it.
    ///
    /// The result is **bit-identical for any thread count** given the same
    /// `cfg.root_seed` (see the [`crate::driver`] module docs for the exact
    /// contract): every sample draws its own `StdRng` seeded from
    /// `(root_seed, sample_index)`, and per-chunk statistics are merged in a
    /// fixed order. The budget is checked at wave boundaries, so the
    /// overshoot is at most the wave in flight, and the §3.2.2 history is
    /// shared between concurrent samples only at those boundaries — each
    /// worker chunk forks the history and the driver absorbs the forks back
    /// deterministically. `cfg.with_wave_size(1)` checks the budget after
    /// every sample (mirroring how one would use a daily API quota) and lets
    /// every sample explore with the history of all earlier ones.
    ///
    /// Under a *hard* service limit, `query_cost` counts only the queries of
    /// completed samples (see [`crate::driver::DriverOutcome::queries`]);
    /// the service's own `queries_issued()` ledger remains authoritative.
    pub fn run<S: LbsBackend + ?Sized>(
        &mut self,
        service: &S,
        region: &Rect,
        aggregate: &Aggregate,
        cfg: SessionConfig,
    ) -> Result<Estimate, EstimateError> {
        let config = self.config.clone();
        let result = run_batch(service, region, aggregate, config, &mut self.history, cfg);
        // The delta log only matters on forked histories; on this long-lived
        // one it would just grow forever.
        self.history.discard_delta_log();
        result
    }
}

impl SampleEstimator for LrLbsAggConfig {
    type State = History;

    fn design<S: LbsBackend + ?Sized>(&self, service: &S, region: &Rect) -> QuerySampler {
        assert_eq!(
            service.config().return_mode,
            ReturnMode::LocationReturned,
            "LR-LBS-AGG requires a location-returned interface; use LnrLbsAgg for rank-only ones"
        );
        match &self.weighted_sampler {
            Some(grid) => QuerySampler::weighted(grid.clone()),
            None => QuerySampler::uniform(*region),
        }
    }

    /// Draws a query location, issues its kNN query, explores the
    /// qualifying top-h cells, and returns the sample's Horvitz–Thompson
    /// `(numerator, denominator)` contribution.
    fn sample_once<S: LbsBackend + ?Sized>(
        &self,
        service: &S,
        sampler: &QuerySampler,
        region: &Rect,
        aggregate: &Aggregate,
        history: &mut History,
        rng: &mut StdRng,
    ) -> Result<(f64, f64), QueryError> {
        let k = service.config().k;
        let explore = self.explore_config();
        let q = sampler.sample(rng);
        let resp = service.query(&q)?;

        let mut num_contrib = 0.0;
        let mut den_contrib = 0.0;

        // Decide the top-h level of every returned tuple *before* any
        // exploration of this sample. Deciding lazily would let the history
        // gathered while exploring the rank-1 tuple influence the inclusion
        // of the rank-2.. tuples of the same answer, which introduces a
        // positive bias (the inclusion indicator would correlate with the
        // current query).
        let chosen_h: Vec<usize> = resp
            .results
            .iter()
            .map(
                |returned| match (&self.weighted_sampler, returned.location) {
                    (Some(_), _) | (_, None) => 1,
                    (None, Some(location)) => self.h_selection.choose(
                        returned.id,
                        &location,
                        k,
                        region,
                        history,
                        explore.history_neighbor_limit,
                        self.cache_cells,
                    ),
                },
            )
            .collect();

        for (returned, &h) in resp.results.iter().zip(chosen_h.iter()) {
            let Some(location) = returned.location else {
                continue;
            };
            // Only tuples whose rank fits within their chosen h contribute
            // (the query point is inside their top-h cell exactly when
            // rank <= h).
            if returned.rank > h {
                continue;
            }
            let outcome = explore_cell(
                service,
                returned.id,
                location,
                h,
                region,
                history,
                &explore,
                rng,
            )?;

            // Probabilities are always computed against the *base* design
            // over the full region — under stratified sampling the draw is
            // restricted to a stratum, but the Horvitz–Thompson weight stays
            // 1/π(t) for the full-region design (the stratified combiner
            // multiplies each stratum by its base-design mass, which
            // telescopes back to the unstratified estimator).
            let inverse_p = match (&outcome.estimate, sampler.base()) {
                (CellEstimate::Exact { cell }, s) => match s.cell_probability(cell) {
                    Some(p) if p > 0.0 => 1.0 / p,
                    _ => 0.0,
                },
                (mc @ CellEstimate::MonteCarlo { .. }, QuerySampler::Uniform { .. }) => {
                    mc.inverse_probability_uniform(region)
                }
                // Weighted sampling disables the MC escape, so this arm is
                // unreachable in practice; contribute nothing rather than
                // something biased if it ever happens.
                (CellEstimate::MonteCarlo { .. }, QuerySampler::Weighted { .. }) => 0.0,
                // `base()` never returns a stratified design.
                (CellEstimate::MonteCarlo { .. }, QuerySampler::Stratified { .. }) => 0.0,
            };

            let num = aggregate
                .numerator(returned, Some(&location))
                .unwrap_or(0.0);
            let den = aggregate
                .denominator(returned, Some(&location))
                .unwrap_or(0.0);
            num_contrib += num * inverse_p;
            den_contrib += den * inverse_p;
        }

        Ok((num_contrib, den_contrib))
    }

    fn fork(master: &History) -> History {
        master.fork()
    }

    fn absorb(master: &mut History, fork: &History) {
        master.absorb(fork);
    }

    fn engine(history: &History) -> EngineReport {
        history.engine_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Selection;
    use crate::stats::RunningStats;
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
    fn count_all_converges_to_truth() {
        let d = dataset(200, 1);
        let truth = d.len() as f64;
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(2_500, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        assert!(out.samples > 5);
        assert!(out.query_cost >= 2_500);
        let rel = out.relative_error(truth);
        assert!(
            rel < 0.35,
            "relative error {rel} (estimate {} truth {truth})",
            out.value
        );
    }

    #[test]
    fn count_with_selection_converges() {
        let d = dataset(200, 3);
        let truth = Aggregate::count_restaurants().ground_truth(&d, &region());
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_restaurants(),
                SessionConfig::new(2_500, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        let rel = out.relative_error(truth);
        assert!(rel < 0.45, "relative error {rel}");
    }

    #[test]
    fn sum_and_avg_estimates_work() {
        let d = dataset(150, 5);
        let sum_truth = Aggregate::sum_school_enrollment().ground_truth(&d, &region());
        let avg_agg = Aggregate::avg_where(
            attrs::RATING,
            Selection::TextEquals {
                attr: attrs::CATEGORY.into(),
                value: "restaurant".into(),
            },
        );
        let avg_truth = avg_agg.ground_truth(&d, &region());
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));
        let mut rng = StdRng::seed_from_u64(6);

        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        // SUM(enrollment) has heavy-tailed Horvitz–Thompson contributions
        // (one school in a tiny Voronoi cell can dominate a sample), so it
        // needs a larger budget than COUNT before a single fixed-seed run is
        // reliably within tolerance.
        let sum_out = est
            .run(
                &service,
                &region(),
                &Aggregate::sum_school_enrollment(),
                SessionConfig::new(8_000, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        assert!(
            sum_out.relative_error(sum_truth) < 0.6,
            "SUM rel err too high: {} vs truth {sum_truth}",
            sum_out.value
        );

        let avg_out = est
            .run(
                &service,
                &region(),
                &avg_agg,
                SessionConfig::new(2_000, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        // AVG is a ratio of two correlated estimates and converges fast.
        assert!(
            avg_out.relative_error(avg_truth) < 0.25,
            "AVG {} vs truth {avg_truth}",
            avg_out.value
        );
    }

    #[test]
    fn unbiasedness_over_repetitions() {
        // The mean of many independent low-budget estimates must approach the
        // truth much more closely than a single estimate's typical error.
        let d = dataset(60, 7);
        let truth = d.len() as f64;
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(6));
        let mut means = RunningStats::new();
        for seed in 0..30 {
            let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let out = est
                .run(
                    &service,
                    &region(),
                    &Aggregate::count_all(),
                    SessionConfig::new(400, rng.next_u64()).with_wave_size(1),
                )
                .unwrap();
            means.push(out.value);
        }
        let rel_bias = (means.mean() - truth).abs() / truth;
        assert!(rel_bias < 0.12, "empirical bias {rel_bias} too large");
    }

    #[test]
    fn trace_is_recorded_and_monotone_in_cost() {
        let d = dataset(100, 9);
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(5));
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        let mut rng = StdRng::seed_from_u64(10);
        let out = est
            .run(
                &service,
                &region(),
                &Aggregate::count_all(),
                SessionConfig::new(800, rng.next_u64()).with_wave_size(1),
            )
            .unwrap();
        assert!(!out.trace.is_empty());
        for w in out.trace.windows(2) {
            assert!(w[0].query_cost <= w[1].query_cost);
        }
    }

    #[test]
    fn ablation_levels_monotonically_enable_features() {
        let l0 = LrLbsAggConfig::ablation_level(0);
        assert!(!l0.use_fast_init && !l0.use_history && !l0.use_mc_bounds);
        assert_eq!(l0.h_selection, HSelection::Top1);
        let l2 = LrLbsAggConfig::ablation_level(2);
        assert!(l2.use_fast_init && l2.use_history && !l2.use_mc_bounds);
        let l4 = LrLbsAggConfig::ablation_level(4);
        assert!(l4.use_fast_init && l4.use_history && l4.use_mc_bounds);
        assert_eq!(l4.h_selection, HSelection::default());
    }

    #[test]
    fn weighted_sampling_reduces_variance_on_clustered_data() {
        // Clustered data with uniform sampling → rural tuples dominate the
        // variance; census-style weighted sampling should cut the per-sample
        // standard deviation substantially for COUNT. One sd pair is
        // heavy-tailed, so the claim is checked on the per-sample sd summed
        // over a fixed block of eight consecutive seeds.
        let (mut uniform_sd, mut weighted_sd) = (0.0, 0.0);
        for seed in 11..=18 {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = ScenarioBuilder::usa_pois(250).build(&mut rng);
            let bbox = d.bbox();
            let grid = lbs_data::DensityGrid::from_dataset(&d, 24, 16, 0.2);
            let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(10));

            let mut uniform_est = LrLbsAgg::new(LrLbsAggConfig::default());
            let uniform_out = uniform_est
                .run(
                    &service,
                    &bbox,
                    &Aggregate::count_all(),
                    SessionConfig::new(3_000, rng.next_u64()).with_wave_size(1),
                )
                .unwrap();
            let mut weighted_est = LrLbsAgg::new(LrLbsAggConfig {
                weighted_sampler: Some(grid),
                ..LrLbsAggConfig::default()
            });
            let weighted_out = weighted_est
                .run(
                    &service,
                    &bbox,
                    &Aggregate::count_all(),
                    SessionConfig::new(3_000, rng.next_u64()).with_wave_size(1),
                )
                .unwrap();
            uniform_sd += uniform_out.per_sample.std_dev;
            weighted_sd += weighted_out.per_sample.std_dev;
        }
        assert!(
            weighted_sd < uniform_sd,
            "summed weighted std dev {weighted_sd} should beat uniform {uniform_sd}"
        );
    }

    #[test]
    #[should_panic(expected = "LR-LBS-AGG requires a location-returned interface")]
    fn rejects_lnr_interfaces() {
        let d = dataset(20, 13);
        let service = SimulatedLbs::new(d, ServiceConfig::lnr_lbs(5));
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        let mut rng = StdRng::seed_from_u64(14);
        let _ = est.run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(100, rng.next_u64()).with_wave_size(1),
        );
    }

    #[test]
    fn hard_service_limit_yields_no_samples_error() {
        let d = dataset(50, 15);
        let service = SimulatedLbs::new(d, ServiceConfig::lr_lbs(5).with_query_limit(1));
        let mut est = LrLbsAgg::new(LrLbsAggConfig::default());
        let mut rng = StdRng::seed_from_u64(16);
        let res = est.run(
            &service,
            &region(),
            &Aggregate::count_all(),
            SessionConfig::new(100, rng.next_u64()).with_wave_size(1),
        );
        assert!(matches!(res, Err(EstimateError::NoSamples)));
    }
}
