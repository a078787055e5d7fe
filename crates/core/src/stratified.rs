//! Stratified estimation: disjoint strata, per-stratum child sessions, and
//! a stratified Horvitz–Thompson combiner.
//!
//! A [`StratifiedSession`] splits the query region into the disjoint
//! rectangles of a [`lbs_data::Stratifier`] partition and runs one
//! independent child session per stratum. Each child draws its query
//! locations *inside* its stratum but keeps every Horvitz–Thompson
//! probability **full-region** (the base design): a tuple returned inside
//! stratum `h` contributes `v(t)/π(t)` with the same `π(t)` the
//! unstratified estimator would use. Writing `w_h` for the base-design mass
//! of stratum `h` (its area fraction under uniform sampling, its density
//! mass under weighted sampling), the combiner reports
//!
//! ```text
//! value     = Σ_h w_h · mean_h
//! variance  = Σ_h w_h² · se_h²
//! ```
//!
//! which telescopes to the same expectation as the unstratified estimator —
//! stratification removes the between-strata component of the variance
//! without touching the bias. With proportional allocation the combined
//! variance is, in expectation, never worse than the unstratified design at
//! equal budget; Neyman allocation (pilot half, then budget ∝ `w_h·sd_h`)
//! improves further on skewed data.
//!
//! # Determinism contract
//!
//! Every allocation decision is a pure function of session state at a wave
//! boundary:
//!
//! * stratum `h` of an `n`-way split seeds its RNG stream from
//!   [`crate::driver::stratum_seed`]`(root_seed, h, n)` — never from
//!   wall-clock time or thread identity;
//! * the initial split of the budget uses largest-remainder rounding over
//!   the stratum weights (ties broken by stratum id);
//! * the Neyman re-allocation happens at exactly one point — the wave
//!   boundary where the last pilot child finishes — and reads only the
//!   children's accumulated sample variances;
//! * the round-robin cursor moves to the next stratum only when the child
//!   it stepped reaches a wave boundary, so stepping by chunk rounds
//!   interleaves the children's waves exactly as stepping by whole waves.
//!
//! Results are therefore bit-identical at every thread count and across any
//! checkpoint/resume cut, exactly like the flat sessions. A single-stratum
//! partition is special-cased to a verbatim passthrough: `count = 1` is
//! **bitwise equal** to the unstratified session with the same
//! configuration.

use std::sync::Arc;
use std::time::Duration;

use lbs_data::Stratum;
use lbs_geom::{ConvexPolygon, Rect};
use lbs_service::LbsBackend;

use crate::agg::Aggregate;
use crate::driver::{stratum_seed, Quantum};
use crate::engine_stats::EngineReport;
use crate::estimate::{Estimate, EstimateError};
use crate::sampling::QuerySampler;
use crate::session::{
    AnytimeSnapshot, EstimatorKind, SampleEstimator, Session, SessionConfig, SessionState,
    StopReason,
};
use crate::stats::Summary;

/// How the query budget is split across strata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Budget proportional to the stratum weights, fixed up front.
    Proportional,
    /// Half the budget proportionally as a pilot, then the remainder
    /// proportional to `w_h · sd_h` (the Neyman-optimal shares) using the
    /// per-stratum sample standard deviations the pilot observed.
    Neyman,
}

/// The base-design mass of `rect` within `region` under the estimator's
/// base design `design`: the density mass when it samples from a weighted
/// grid, the area fraction otherwise. This is the Horvitz–Thompson stratum
/// weight — it must match the design the *probabilities* use, not the
/// partitioning heuristic.
fn stratum_weight(design: &QuerySampler, region: &Rect, rect: &Rect) -> f64 {
    match design {
        QuerySampler::Weighted { grid } => grid.integrate_convex(&ConvexPolygon::from_rect(rect)),
        _ => rect.area() / region.area(),
    }
}

/// One stratum's child session: a plain [`Session`] over a shared handle to
/// the service, its draws restricted to the stratum.
type Child<S> = Session<EstimatorKind, Arc<S>>;

/// Where a stratified session is in its budget-allocation protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// `count == 1`: a verbatim passthrough to one unstratified child.
    Single,
    /// Neyman pilot: children run on half the budget, proportionally split.
    Pilot,
    /// Final allocation granted; children run to completion.
    Final,
}

/// The combiner-owned state shared across strata.
#[derive(Clone, Debug)]
struct SharedState {
    region: Rect,
    is_ratio: bool,
    strata: Vec<Stratum>,
    weights: Vec<f64>,
    budgets: Vec<u64>,
    allocation: AllocationPolicy,
    cfg: SessionConfig,
    phase: Phase,
    /// Next stratum the round-robin scheduler will step (it stays on a
    /// child until that child's wave in flight is done).
    cursor: usize,
    elapsed: Duration,
    stop: Option<StopReason>,
    finished: bool,
}

/// The owned state of a stratified session: what
/// [`StratifiedSession::checkpoint`] snapshots and
/// [`StratifiedSession::resume`] restores.
#[derive(Clone, Debug)]
pub struct StratifiedSessionState {
    children: Vec<SessionState<EstimatorKind>>,
    shared: SharedState,
}

/// A resumable stratified estimation run: independent per-stratum child
/// sessions under one budget, merged by a stratified Horvitz–Thompson
/// combiner (module docs have the estimator and the determinism contract).
#[derive(Debug)]
pub struct StratifiedSession<S: LbsBackend> {
    children: Vec<Child<S>>,
    shared: SharedState,
}

impl<S: LbsBackend> StratifiedSession<S> {
    /// Starts a stratified session over the disjoint `strata`
    /// (produced by a [`lbs_data::Stratifier`]). `cfg` carries the *total*
    /// budget, the root seed, and the early-stop rules; children receive
    /// deterministic budget shares and derived seeds.
    ///
    /// # Panics
    ///
    /// Panics when `strata` is empty.
    pub fn new(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        estimator: EstimatorKind,
        strata: Vec<Stratum>,
        allocation: AllocationPolicy,
        cfg: SessionConfig,
    ) -> Self {
        assert!(
            !strata.is_empty(),
            "a stratified session needs at least one stratum"
        );
        let service = Arc::new(service);
        let count = strata.len();
        let design = estimator.design(&service, region);
        let weights: Vec<f64> = strata
            .iter()
            .map(|s| stratum_weight(&design, region, &s.rect))
            .collect();

        let (phase, budgets) = if count == 1 {
            (Phase::Single, vec![cfg.query_budget])
        } else {
            match allocation {
                AllocationPolicy::Proportional => {
                    (Phase::Final, largest_remainder(cfg.query_budget, &weights))
                }
                AllocationPolicy::Neyman => (
                    Phase::Pilot,
                    largest_remainder(cfg.query_budget / 2, &weights),
                ),
            }
        };

        let children = strata
            .iter()
            .zip(&budgets)
            .map(|(stratum, &budget)| {
                // The single-stratum passthrough keeps the caller's config —
                // including early-stop rules — verbatim; the child then IS
                // the unstratified session, bit for bit.
                let child_cfg = if count == 1 {
                    cfg.clone()
                } else {
                    SessionConfig {
                        query_budget: budget,
                        root_seed: stratum_seed(cfg.root_seed, stratum.id as u64, count as u64),
                        threads: cfg.threads,
                        wave_size: cfg.wave_size,
                        // Early-stop rules act on the *combined* estimate,
                        // enforced by the combiner, not per child.
                        target_ci_halfwidth: None,
                        max_wall_ms: None,
                    }
                };
                Session::new(
                    Arc::clone(&service),
                    region,
                    aggregate,
                    estimator.clone(),
                    child_cfg,
                )
                .restricted_to(stratum.rect)
            })
            .collect();

        StratifiedSession {
            children,
            shared: SharedState {
                region: *region,
                is_ratio: aggregate.is_ratio(),
                strata,
                weights,
                budgets,
                allocation,
                cfg,
                phase,
                cursor: 0,
                elapsed: Duration::ZERO,
                stop: None,
                finished: false,
            },
        }
    }

    /// The strata this session runs over.
    pub fn strata(&self) -> &[Stratum] {
        &self.shared.strata
    }

    /// The base-design weight of each stratum (module docs).
    pub fn weights(&self) -> &[f64] {
        &self.shared.weights
    }

    /// The per-stratum budget shares as currently granted.
    pub fn budgets(&self) -> &[u64] {
        &self.shared.budgets
    }

    /// `true` once the session will not advance further.
    pub fn is_finished(&self) -> bool {
        match self.shared.phase {
            Phase::Single => self.children[0].is_finished(),
            _ => self.shared.finished,
        }
    }

    /// Advances the session by one chunk round of one child: the
    /// round-robin cursor picks the next unfinished stratum and steps it.
    /// The cursor stays on that child until its wave is done; at that wave
    /// boundary the combined stop rules run and, when the last Neyman pilot
    /// child finishes, the final allocation is granted.
    pub fn step(&mut self) {
        self.advance(Quantum::Round);
    }

    /// Advances the next unfinished child to the end of its current wave
    /// (see [`StratifiedSession::step`]) — the batch quantum.
    pub fn run_wave(&mut self) {
        self.advance(Quantum::Wave);
    }

    fn advance(&mut self, quantum: Quantum) {
        if self.shared.phase == Phase::Single {
            self.children[0].advance(quantum);
            return;
        }
        if self.shared.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let n = self.children.len();
        let mut mid_wave = false;
        for offset in 0..n {
            let idx = (self.shared.cursor + offset) % n;
            if !self.children[idx].is_finished() {
                self.children[idx].advance(quantum);
                mid_wave = self.children[idx].in_wave();
                self.shared.cursor = if mid_wave { idx } else { (idx + 1) % n };
                break;
            }
        }
        self.shared.elapsed += started.elapsed();
        if mid_wave {
            return;
        }
        if self.shared.phase == Phase::Pilot && self.children.iter().all(|c| c.is_finished()) {
            self.grant_final_allocation();
        }
        self.apply_stop_rules();
    }

    /// Grants the post-pilot (Neyman) budget: the unspent half of the total
    /// goes to strata proportional to `w_h · sd_h` from the pilot samples,
    /// falling back to the plain weights when every observed deviation is
    /// zero or non-finite. Deterministic: reads only accumulated child
    /// state, rounds by largest remainder with ties to the lower stratum id.
    fn grant_final_allocation(&mut self) {
        self.shared.phase = Phase::Final;
        let planned: u64 = self.shared.budgets.iter().sum();
        let remainder = self.shared.cfg.query_budget.saturating_sub(planned);
        if remainder == 0 {
            return;
        }
        let scores: Vec<f64> = self
            .shared
            .weights
            .iter()
            .zip(&self.children)
            .map(|(w, child)| {
                let sd = child
                    .outcome()
                    .numerator
                    .sample_variance()
                    .unwrap_or(0.0)
                    .sqrt();
                w * sd
            })
            .collect();
        let degenerate = scores.iter().any(|s| !s.is_finite()) || scores.iter().sum::<f64>() <= 0.0;
        let grants = if degenerate {
            largest_remainder(remainder, &self.shared.weights)
        } else {
            largest_remainder(remainder, &scores)
        };
        for (idx, &grant) in grants.iter().enumerate() {
            if grant > 0 {
                self.shared.budgets[idx] += grant;
                self.children[idx].extend_budget(self.shared.budgets[idx]);
            }
        }
    }

    /// Combined stop rules, mirroring the flat sessions': all children done
    /// → a derived terminal reason; otherwise the combined-estimate target
    /// precision, then the wall-clock cap. Runs at child wave boundaries.
    fn apply_stop_rules(&mut self) {
        if self.children.iter().all(|c| c.is_finished()) {
            self.shared.finished = true;
            if self.shared.stop.is_none() {
                let any = |reason: StopReason| {
                    self.children
                        .iter()
                        .any(|c| c.stop_reason() == Some(reason))
                };
                self.shared.stop = Some(if any(StopReason::ServiceExhausted) {
                    StopReason::ServiceExhausted
                } else if any(StopReason::BudgetSpent) {
                    StopReason::BudgetSpent
                } else {
                    StopReason::NoProgress
                });
            }
            return;
        }
        if let Some(target) = self.shared.cfg.target_ci_halfwidth {
            let (_, std_error, samples) = self.combined();
            if samples >= 2 && std_error > 0.0 && 1.96 * std_error <= target {
                for child in &mut self.children {
                    child.cancel();
                }
                self.shared.finished = true;
                self.shared.stop = Some(StopReason::TargetPrecision);
                return;
            }
        }
        if let Some(cap) = self.shared.cfg.max_wall_ms {
            if self.shared.elapsed >= Duration::from_millis(cap) {
                for child in &mut self.children {
                    child.cancel();
                }
                self.shared.finished = true;
                self.shared.stop = Some(StopReason::WallClock);
            }
        }
    }

    /// The stratified Horvitz–Thompson combination:
    /// `(value, std_error, samples)` from the per-stratum accumulators
    /// (module docs derive the formulas; the ratio branch mirrors
    /// `point_and_error`'s delta method over the combined moments).
    fn combined(&self) -> (f64, f64, u64) {
        let mut num_mean = 0.0;
        let mut num_var = 0.0;
        let mut den_mean = 0.0;
        let mut den_var = 0.0;
        let mut samples = 0u64;
        for (weight, child) in self.shared.weights.iter().zip(&self.children) {
            let outcome = child.outcome();
            samples += outcome.numerator.count();
            num_mean += weight * outcome.numerator.mean();
            let num_se = outcome.numerator.std_error().unwrap_or(0.0);
            num_var += weight * weight * num_se * num_se;
            den_mean += weight * outcome.denominator.mean();
            let den_se = outcome.denominator.std_error().unwrap_or(0.0);
            den_var += weight * weight * den_se * den_se;
        }
        if !self.shared.is_ratio {
            return (num_mean, num_var.sqrt(), samples);
        }
        let num_se = num_var.sqrt();
        let den_se = den_var.sqrt();
        if den_mean.abs() <= f64::EPSILON {
            return (0.0, 0.0, samples);
        }
        let value = num_mean / den_mean;
        let rel =
            (num_se / num_mean.abs().max(f64::EPSILON)).powi(2) + (den_se / den_mean.abs()).powi(2);
        (value, value.abs() * rel.sqrt(), samples)
    }

    /// The anytime state of the combined run. `queries` and `waves` sum
    /// over strata; the engine counters fold across children.
    pub fn snapshot(&self) -> AnytimeSnapshot {
        if self.shared.phase == Phase::Single {
            return self.children[0].snapshot();
        }
        let (value, std_error, samples) = self.combined();
        let mut engine = EngineReport::default();
        let mut queries = 0u64;
        let mut waves = 0u64;
        for child in &self.children {
            let snap = child.snapshot();
            engine.add(&snap.engine);
            queries += snap.queries;
            waves += snap.waves;
        }
        AnytimeSnapshot {
            value,
            std_error,
            ci95: (value - 1.96 * std_error, value + 1.96 * std_error),
            samples,
            queries,
            waves,
            finished: self.shared.finished,
            stop: self.shared.stop,
            engine,
        }
    }

    /// The final (or current — the session is anytime) combined
    /// [`Estimate`].
    ///
    /// The convergence trace is empty: per-stratum traces are metered
    /// against disjoint budgets and do not interleave into one meaningful
    /// full-run trace. `per_sample` summarizes the *combined* estimator
    /// (its `std_dev` is back-derived from the combined standard error), not
    /// any single stratum's raw contributions.
    pub fn finalize(&self) -> Result<Estimate, EstimateError> {
        if self.shared.phase == Phase::Single {
            return self.children[0].finalize();
        }
        let (value, std_error, samples) = self.combined();
        if samples == 0 {
            return Err(EstimateError::NoSamples);
        }
        let mut engine = EngineReport::default();
        for child in &self.children {
            engine.add(&child.snapshot().engine);
        }
        Ok(Estimate {
            value,
            std_error,
            ci95: (value - 1.96 * std_error, value + 1.96 * std_error),
            samples,
            query_cost: self.children.iter().map(|c| c.outcome().queries).sum(),
            trace: Vec::new(),
            per_sample: Summary {
                count: samples,
                mean: value,
                std_dev: std_error * (samples as f64).sqrt(),
                std_error,
            },
            engine,
        })
    }

    /// Stops the session (and every child) without finishing its budget.
    pub fn cancel(&mut self) {
        for child in &mut self.children {
            child.cancel();
        }
        if self.shared.phase == Phase::Single {
            return;
        }
        if !self.shared.finished {
            self.shared.finished = true;
            self.shared.stop = Some(StopReason::Cancelled);
        }
    }

    /// Snapshots the entire owned state (every child plus the combiner).
    /// Resuming and stepping is bit-identical to never having
    /// checkpointed, at every thread count.
    pub fn checkpoint(&self) -> StratifiedSessionState {
        StratifiedSessionState {
            children: self.children.iter().map(|c| c.checkpoint()).collect(),
            shared: self.shared.clone(),
        }
    }

    /// Rebuilds a session from a checkpoint and a service handle.
    pub fn resume(service: S, state: StratifiedSessionState) -> Self {
        let service = Arc::new(service);
        let children = state
            .children
            .into_iter()
            .map(|child| Session::resume(Arc::clone(&service), child))
            .collect();
        StratifiedSession {
            children,
            shared: state.shared,
        }
    }

    /// The query region the combined estimate covers.
    pub fn region(&self) -> Rect {
        self.shared.region
    }

    /// The allocation policy in force.
    pub fn allocation(&self) -> AllocationPolicy {
        self.shared.allocation
    }
}

/// Splits `total` into integer shares proportional to `shares` by the
/// largest-remainder method. Non-finite and non-positive shares get 0; an
/// all-degenerate share vector falls back to an equal split. Ties in the
/// fractional remainders break toward the lower index, so the result is a
/// pure function of its arguments.
fn largest_remainder(total: u64, shares: &[f64]) -> Vec<u64> {
    let n = shares.len();
    if n == 0 {
        return Vec::new();
    }
    let clean: Vec<f64> = shares
        .iter()
        .map(|&s| if s.is_finite() && s > 0.0 { s } else { 0.0 })
        .collect();
    let sum: f64 = clean.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        let base = total / n as u64;
        let extra = (total % n as u64) as usize;
        return (0..n).map(|i| base + u64::from(i < extra)).collect();
    }
    let quotas: Vec<f64> = clean.iter().map(|s| total as f64 * s / sum).collect();
    let mut out: Vec<u64> = quotas.iter().map(|q| q.floor() as u64).collect();
    let assigned: u64 = out.iter().sum();
    let mut leftover = total.saturating_sub(assigned);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let frac_a = quotas[a] - quotas[a].floor();
        let frac_b = quotas[b] - quotas[b].floor();
        frac_b.total_cmp(&frac_a).then(a.cmp(&b))
    });
    for idx in order {
        if leftover == 0 {
            break;
        }
        out[idx] += 1;
        leftover -= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_remainder_conserves_the_total() {
        for total in [0u64, 1, 7, 100, 999] {
            for shares in [
                vec![1.0, 1.0, 1.0],
                vec![0.5, 0.3, 0.2],
                vec![0.9, 0.05, 0.05],
                vec![1e-9, 1.0],
            ] {
                let out = largest_remainder(total, &shares);
                assert_eq!(out.iter().sum::<u64>(), total, "{total} over {shares:?}");
            }
        }
    }

    #[test]
    fn largest_remainder_is_proportional() {
        let out = largest_remainder(100, &[0.5, 0.3, 0.2]);
        assert_eq!(out, vec![50, 30, 20]);
    }

    #[test]
    fn largest_remainder_degenerate_shares_split_equally() {
        assert_eq!(largest_remainder(10, &[0.0, 0.0, 0.0]), vec![4, 3, 3]);
        assert_eq!(largest_remainder(9, &[f64::NAN, -1.0, 0.0]), vec![3, 3, 3]);
    }

    #[test]
    fn largest_remainder_zeroes_bad_shares() {
        let out = largest_remainder(10, &[f64::INFINITY, 1.0, 1.0]);
        // The infinite share is dropped; the rest split the total.
        assert_eq!(out.iter().sum::<u64>(), 10);
        assert_eq!(out[0], 0);
    }

    #[test]
    fn largest_remainder_remainders_go_to_largest_fractions() {
        // Quotas 3.4 / 3.3 / 3.3: the leftover unit goes to index 0.
        let out = largest_remainder(10, &[0.34, 0.33, 0.33]);
        assert_eq!(out, vec![4, 3, 3]);
    }
}
