//! Anytime estimation sessions: resumable, checkpointable estimator runs.
//!
//! The paper's estimators are anytime by construction — every extra sample
//! tightens the Horvitz–Thompson estimate — but the batch facades
//! (`estimate` / `estimate_parallel`) only surface the final answer. An
//! [`EstimationSession`] exposes the run itself: it owns the per-sample
//! seeded RNG stream, advances under explicit control of its caller, and can
//! report the current estimate, running confidence interval, queries spent
//! and [`EngineReport`] after any step. [`EstimationSession::step`] advances
//! **one chunk round** (one [`crate::driver::CHUNK_SAMPLES`]-sample chunk
//! per worker thread) and [`EstimationSession::run_wave`] the rest of the
//! current wave; both give the same bits. This is the substrate of the
//! `lbs-server` multi-tenant scheduler, which interleaves chunk rounds of
//! many concurrent jobs over shared query budgets.
//!
//! # Modes
//!
//! * **Wave mode** ([`SessionConfig`]): samples draw private RNGs seeded
//!   from `(root_seed, sample_index)` and run through the
//!   [`crate::driver::SampleDriver`] machinery, so results are bit-identical
//!   at every thread count. The batch `estimate_parallel` facades are thin
//!   loops over this mode with no overrides, which keeps their outputs
//!   byte-identical to the pre-session code.
//! * **Serial mode**: samples consume a caller-supplied RNG stream and the
//!   soft budget is metered against the service ledger per sample — the
//!   exact semantics of the historical serial `estimate` facades, which are
//!   now thin loops over [`LrSession::step_serial`] (and its LNR/NNO
//!   siblings).
//!
//! # Checkpoint / resume determinism
//!
//! A wave-mode session is Markovian: the next step is a pure function of the
//! session state, the root seed and the budget — never of wall-clock time,
//! thread count or how often the caller paused. [`EstimationSession::checkpoint`]
//! snapshots the entire owned state (accumulators, sample cursor, estimator
//! state such as the LR [`History`], and the forked histories of a wave in
//! flight), between any two steps; [`EstimationSession::resume`] rebuilds
//! a session from a snapshot and a service handle. Stepping a resumed
//! session is **bit-identical** to never having checkpointed, at every
//! thread count, and replays the same queries against the service, so even
//! the service ledger matches an uninterrupted run. The only caveats are
//! the ones the driver already documents: a *hard* service limit aborts at a
//! scheduling-dependent query, and `max_wall_ms` stops at a wall-clock-
//! dependent wave boundary (every state it stops in is still a valid
//! anytime answer).
//!
//! # Early stopping
//!
//! Wave-mode sessions stop at the first of: soft budget spent (the wave in
//! flight finishes, mirroring the batch overshoot), target confidence
//! reached (`target_ci_halfwidth`), wall-clock cap (`max_wall_ms`), hard
//! service limit, or a caller's cancel. The budget, precision and wall-clock
//! rules are checked at wave boundaries only, never between the chunk rounds
//! of a wave; a cancel takes effect at once. The [`StopReason`] is reported
//! in every [`AnytimeSnapshot`].

use std::time::Duration;

use rand::Rng;

use lbs_geom::Rect;
use lbs_service::{LbsBackend, QueryCounter, QueryError, ReturnMode};
use serde::{Deserialize, Serialize};

use crate::agg::Aggregate;
use crate::baseline::{NnoBaseline, NnoConfig};
use crate::driver::{DriverOutcome, Quantum, SampleDriver, SampleOutcome, WaveState};
use crate::engine_stats::{EngineReport, SharedEngineCounters};
use crate::estimate::{point_and_error, Estimate, EstimateError, TracePoint};
use crate::lnr::cell::LnrExploreConfig;
use crate::lnr::{LnrLbsAgg, LnrLbsAggConfig};
use crate::lr::{history::History, LrLbsAgg, LrLbsAggConfig};
use crate::sampling::QuerySampler;

/// Run-control knobs of a wave-mode session.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Soft query budget; the session stops scheduling new waves once the
    /// completed samples have spent it (the wave in flight finishes, so the
    /// actual cost can overshoot — exactly like the batch facades).
    pub query_budget: u64,
    /// Root of the per-sample RNG seed derivation
    /// ([`crate::driver::sample_seed`]).
    pub root_seed: u64,
    /// Worker threads per wave (`0` = all cores). Results are bit-identical
    /// at every thread count.
    pub threads: usize,
    /// Fixed samples per wave. `None` keeps the adaptive sizing of the batch
    /// path (byte-identical to `estimate_parallel`); `Some(n)` pins every
    /// wave to `n` samples, so the budget and early-stop rules run after
    /// every `n` samples. (Any chunk boundary is a checkpointable sample
    /// index, whatever the wave size.)
    pub wave_size: Option<u64>,
    /// Stop early once the 95 % confidence interval half-width
    /// (`1.96 × std_error`) drops to this value or below (checked at wave
    /// boundaries, needs at least two samples).
    pub target_ci_halfwidth: Option<f64>,
    /// Stop early once the session has spent this much wall-clock time
    /// stepping (checked at wave boundaries). Inherently not deterministic —
    /// leave unset where bit-reproducibility across machines matters.
    pub max_wall_ms: Option<u64>,
}

impl SessionConfig {
    /// A single-threaded session with the given budget and seed and no
    /// early-stop rules — the configuration whose final estimate is
    /// byte-identical to the batch `estimate_parallel` facades.
    pub fn new(query_budget: u64, root_seed: u64) -> Self {
        SessionConfig {
            query_budget,
            root_seed,
            threads: 1,
            wave_size: None,
            target_ci_halfwidth: None,
            max_wall_ms: None,
        }
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Pins the wave size.
    pub fn with_wave_size(mut self, samples: u64) -> Self {
        self.wave_size = Some(samples.max(1));
        self
    }

    /// Sets the target confidence-interval half-width.
    pub fn with_target_ci_halfwidth(mut self, halfwidth: f64) -> Self {
        self.target_ci_halfwidth = Some(halfwidth);
        self
    }

    /// Sets the wall-clock cap.
    pub fn with_max_wall_ms(mut self, ms: u64) -> Self {
        self.max_wall_ms = Some(ms);
        self
    }
}

/// Why a session stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The soft query budget was spent.
    BudgetSpent,
    /// The service's hard query limit aborted a sample.
    ServiceExhausted,
    /// The running confidence interval reached the requested half-width.
    TargetPrecision,
    /// The wall-clock cap was hit.
    WallClock,
    /// A wave completed without issuing a single query; the budget can never
    /// be spent, so the session stops rather than loop forever.
    NoProgress,
    /// The owner cancelled the session (set by the `lbs-server` scheduler).
    Cancelled,
}

/// The anytime state of a session: everything a caller polling a running
/// estimation job can know.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnytimeSnapshot {
    /// Current point estimate (0 before the first completed sample).
    pub value: f64,
    /// Standard error of the current estimate (0 when undefined).
    pub std_error: f64,
    /// Running 95 % confidence interval.
    pub ci95: (f64, f64),
    /// Completed samples.
    pub samples: u64,
    /// Queries attributed to completed samples (wave mode) or spent on the
    /// service ledger (serial mode).
    pub queries: u64,
    /// Waves completed so far (serial mode counts samples); a wave in
    /// flight is not counted until its last chunk is done.
    pub waves: u64,
    /// `true` once the session will not advance further.
    pub finished: bool,
    /// Why the session stopped, once it has.
    pub stop: Option<StopReason>,
    /// Cell-engine counters accumulated so far.
    pub engine: EngineReport,
}

impl AnytimeSnapshot {
    /// Half-width of the running 95 % confidence interval.
    pub fn ci_halfwidth(&self) -> f64 {
        1.96 * self.std_error
    }
}

/// Which budget/trace semantics a session runs under.
#[derive(Clone, Debug)]
enum Mode {
    /// Historical serial semantics: caller RNG, per-sample ledger metering.
    Serial {
        /// Service ledger reading at session start.
        start_cost: u64,
    },
    /// Driver semantics: per-sample seeded RNGs, wave-boundary metering.
    Waves,
}

/// State shared by all three session kinds (everything but the estimator
/// specifics and the service handle). `B` is the per-chunk forked state the
/// driver holds for a wave in flight (the LR [`History`], `()` otherwise).
#[derive(Clone, Debug)]
struct CommonState<B = ()> {
    region: Rect,
    aggregate: Aggregate,
    cfg: SessionConfig,
    mode: Mode,
    wave: WaveState<B>,
    driver: SampleDriver,
    /// Wall-clock time spent inside `step` calls so far.
    elapsed: Duration,
    stop: Option<StopReason>,
}

impl<B> CommonState<B> {
    fn new(region: Rect, aggregate: Aggregate, cfg: SessionConfig, mode: Mode) -> Self {
        // `SampleDriver::new` already resolves `0` to all cores; clamping
        // here would silently turn the documented "all cores" into 1.
        let driver = SampleDriver::new(cfg.threads);
        CommonState {
            region,
            aggregate,
            cfg,
            mode,
            wave: WaveState::new(),
            driver,
            elapsed: Duration::ZERO,
            stop: None,
        }
    }

    fn is_ratio(&self) -> bool {
        self.aggregate.is_ratio()
    }

    /// Applies the wave-boundary stop rules after one step and records the
    /// reason. `wall` is the duration of the step just taken. A step that
    /// ended inside a wave only adds its time: the rules wait for the wave's
    /// last chunk, so where a wave is cut into steps never changes a bit.
    fn apply_stop_rules(&mut self, wall: Duration) {
        self.elapsed += wall;
        if self.wave.in_wave() {
            return;
        }
        if self.wave.finished && self.stop.is_none() {
            self.stop = Some(if self.wave.outcome.exhausted {
                StopReason::ServiceExhausted
            } else if self.wave.outcome.queries >= self.cfg.query_budget {
                StopReason::BudgetSpent
            } else {
                StopReason::NoProgress
            });
        }
        if self.wave.finished {
            return;
        }
        if let Some(target) = self.cfg.target_ci_halfwidth {
            let (_, std_error) = point_and_error(
                &self.wave.outcome.numerator,
                &self.wave.outcome.denominator,
                self.is_ratio(),
            );
            // A zero standard error is the undefined/degenerate sentinel
            // (fewer than two samples, or a ratio with an empty denominator)
            // — not convergence; only a genuinely positive error that has
            // shrunk to the target counts.
            if self.wave.outcome.numerator.count() >= 2
                && std_error > 0.0
                && 1.96 * std_error <= target
            {
                self.wave.finished = true;
                self.stop = Some(StopReason::TargetPrecision);
                return;
            }
        }
        if let Some(cap) = self.cfg.max_wall_ms {
            if self.elapsed >= Duration::from_millis(cap) {
                self.wave.finished = true;
                self.stop = Some(StopReason::WallClock);
            }
        }
    }

    fn cancel(&mut self) {
        if !self.wave.finished {
            self.wave.finished = true;
            self.stop = Some(StopReason::Cancelled);
        }
    }

    /// Raises the soft query budget to `new_budget` (never lowers it) and —
    /// when the session had stopped *only* because the old budget was spent —
    /// clears the stop so stepping resumes. Any other stop reason
    /// (`NoProgress`, `ServiceExhausted`, …) is terminal and stays in place.
    /// The stratified combiner uses this to grant a stratum its final
    /// (Neyman) allocation after the pilot phase.
    fn extend_budget(&mut self, new_budget: u64) {
        if new_budget <= self.cfg.query_budget {
            return;
        }
        self.cfg.query_budget = new_budget;
        if self.stop == Some(StopReason::BudgetSpent) && self.wave.outcome.queries < new_budget {
            self.stop = None;
            self.wave.finished = false;
        }
    }

    fn snapshot(&self, queries_override: Option<u64>, engine: EngineReport) -> AnytimeSnapshot {
        let outcome = &self.wave.outcome;
        let (value, std_error) =
            point_and_error(&outcome.numerator, &outcome.denominator, self.is_ratio());
        AnytimeSnapshot {
            value,
            std_error,
            ci95: (value - 1.96 * std_error, value + 1.96 * std_error),
            samples: outcome.numerator.count(),
            queries: queries_override.unwrap_or(outcome.queries),
            waves: self.wave.waves,
            finished: self.wave.finished,
            stop: self.stop,
            engine,
        }
    }

    /// Builds the final [`Estimate`] from the accumulators, mirroring the
    /// batch facades bit for bit.
    fn finalize(&self, query_cost: u64) -> Result<Estimate, EstimateError> {
        let outcome = &self.wave.outcome;
        if outcome.numerator.count() == 0 {
            return Err(EstimateError::NoSamples);
        }
        Ok(if self.is_ratio() {
            Estimate::ratio_from_stats(
                &outcome.numerator,
                &outcome.denominator,
                query_cost,
                outcome.trace.clone(),
            )
        } else {
            Estimate::from_stats(&outcome.numerator, query_cost, outcome.trace.clone())
        })
    }

    /// Serial-mode bookkeeping after one successful sample: push the
    /// contribution and record the ledger-cost trace point, exactly like the
    /// historical serial loops.
    fn push_serial_sample(&mut self, num: f64, den: f64, ledger_cost: u64, trace_every: u64) {
        let outcome = &mut self.wave.outcome;
        outcome.numerator.push(num);
        outcome.denominator.push(den);
        self.wave.waves += 1;
        if trace_every > 0 && outcome.numerator.count() % trace_every == 0 {
            let (current, _) = point_and_error(
                &outcome.numerator,
                &outcome.denominator,
                self.aggregate.is_ratio(),
            );
            outcome.trace.push(TracePoint {
                query_cost: ledger_cost,
                estimate: current,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// LR session
// ---------------------------------------------------------------------------

/// The owned (service-independent) state of an LR session: what
/// [`LrSession::checkpoint`] snapshots and [`LrSession::resume`] restores.
#[derive(Clone, Debug)]
pub struct LrSessionState {
    common: CommonState<History>,
    config: LrLbsAggConfig,
    sampler: QuerySampler,
    k: usize,
    history: History,
    engine_before: EngineReport,
}

/// A resumable LR-LBS-AGG estimation run over a service `S`.
#[derive(Debug)]
pub struct LrSession<S: LbsBackend> {
    service: S,
    state: LrSessionState,
}

impl<S: LbsBackend> LrSession<S> {
    /// Starts a wave-mode session, seeding the §3.2.2 history from
    /// `history` (pass [`History::new`] for a cold start).
    pub fn new(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: LrLbsAggConfig,
        history: History,
        cfg: SessionConfig,
    ) -> Self {
        Self::with_mode(
            service,
            region,
            aggregate,
            config,
            history,
            cfg,
            Mode::Waves,
        )
    }

    /// Starts a serial-mode session (caller RNG, per-sample ledger
    /// metering) — the engine of the batch [`LrLbsAgg::estimate`] facade.
    pub fn new_serial(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: LrLbsAggConfig,
        history: History,
        query_budget: u64,
    ) -> Self {
        let start_cost = service.queries_issued();
        Self::with_mode(
            service,
            region,
            aggregate,
            config,
            history,
            SessionConfig::new(query_budget, 0),
            Mode::Serial { start_cost },
        )
    }

    fn with_mode(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: LrLbsAggConfig,
        history: History,
        cfg: SessionConfig,
        mode: Mode,
    ) -> Self {
        assert_eq!(
            service.config().return_mode,
            ReturnMode::LocationReturned,
            "LR-LBS-AGG requires a location-returned interface; use LnrLbsAgg for rank-only ones"
        );
        let sampler = match &config.weighted_sampler {
            Some(grid) => QuerySampler::weighted(grid.clone()),
            None => QuerySampler::uniform(*region),
        };
        let k = service.config().k;
        let engine_before = history.engine_report();
        LrSession {
            service,
            state: LrSessionState {
                common: CommonState::new(*region, aggregate.clone(), cfg, mode),
                config,
                sampler,
                k,
                history,
                engine_before,
            },
        }
    }

    /// Snapshots the entire owned state. Resuming from the snapshot (on the
    /// same or an identically-behaving service) and stepping is bit-identical
    /// to continuing this session.
    pub fn checkpoint(&self) -> LrSessionState {
        self.state.clone()
    }

    /// Rebuilds a session from a checkpoint and a service handle.
    pub fn resume(service: S, checkpoint: LrSessionState) -> Self {
        LrSession {
            service,
            state: checkpoint,
        }
    }

    /// `true` once the session will not advance further.
    pub fn is_finished(&self) -> bool {
        self.state.common.wave.finished
    }

    /// Advances a wave-mode session by one chunk round: one
    /// [`crate::driver::CHUNK_SAMPLES`]-sample chunk per worker thread,
    /// the scheduling quantum of a served job. The forked histories of the
    /// round's chunks wait in the session until the wave's last chunk, so
    /// stepping by rounds is bit-identical to [`LrSession::run_wave`].
    ///
    /// # Panics
    ///
    /// Panics on serial-mode sessions — those advance with
    /// [`LrSession::step_serial`].
    pub fn step(&mut self) {
        self.advance(Quantum::Round);
    }

    /// Advances a wave-mode session to the end of its current wave (a whole
    /// wave at a wave boundary), claiming chunks dynamically across all
    /// worker threads — the batch quantum.
    ///
    /// # Panics
    ///
    /// Panics on serial-mode sessions.
    pub fn run_wave(&mut self) {
        self.advance(Quantum::Wave);
    }

    /// Advances a wave-mode session by one `quantum`.
    pub(crate) fn advance(&mut self, quantum: Quantum) {
        assert!(
            matches!(self.state.common.mode, Mode::Waves),
            "step() drives wave-mode sessions; serial sessions use step_serial()"
        );
        if self.state.common.wave.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let LrSessionState {
            common,
            config,
            sampler,
            k,
            history,
            ..
        } = &mut self.state;
        let service = &self.service;
        let region = common.region;
        let aggregate = common.aggregate.clone();
        let is_ratio = common.is_ratio();
        let (config, sampler, k) = (&*config, &*sampler, *k);
        let driver = common.driver.clone();
        driver.step(
            quantum,
            common.cfg.query_budget,
            common.cfg.root_seed,
            is_ratio,
            common.cfg.wave_size,
            &mut common.wave,
            history,
            &History::fork,
            &|history: &mut History, _index, rng| {
                let metered = QueryCounter::new(service);
                let (num, den) = LrLbsAgg::sample_once(
                    config, sampler, k, &metered, &region, &aggregate, history, rng,
                )?;
                Ok(SampleOutcome {
                    numerator: num,
                    denominator: den,
                    queries: metered.taken(),
                })
            },
            &|master, forks| {
                for fork in &forks {
                    master.absorb(fork);
                }
            },
        );
        common.apply_stop_rules(started.elapsed());
    }

    /// Advances a serial-mode session by one sample drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics on wave-mode sessions — those advance with
    /// [`LrSession::step`].
    pub fn step_serial<R: Rng>(&mut self, rng: &mut R) {
        let Mode::Serial { start_cost } = self.state.common.mode else {
            panic!("step_serial() drives serial-mode sessions; wave sessions use step()");
        };
        if self.state.common.wave.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let budget_left = self
            .state
            .common
            .cfg
            .query_budget
            .saturating_sub(self.service.queries_issued() - start_cost);
        if budget_left == 0 {
            self.state.common.wave.finished = true;
            self.state.common.stop = Some(StopReason::BudgetSpent);
            return;
        }
        let LrSessionState {
            common,
            config,
            sampler,
            k,
            history,
            ..
        } = &mut self.state;
        let aggregate = common.aggregate.clone();
        // An `Err` means the sample hit the service's hard limit; it is
        // discarded rather than recorded as a partial (biased) contribution.
        match LrLbsAgg::sample_once(
            config,
            sampler,
            *k,
            &self.service,
            &common.region,
            &aggregate,
            history,
            rng,
        ) {
            Ok((num, den)) => {
                let ledger_cost = self.service.queries_issued() - start_cost;
                let trace_every = config.trace_every;
                common.push_serial_sample(num, den, ledger_cost, trace_every);
                common.apply_stop_rules(started.elapsed());
            }
            Err(QueryError::BudgetExhausted { .. }) => {
                common.wave.finished = true;
                common.stop = Some(StopReason::ServiceExhausted);
            }
        }
    }

    /// Queries this session has spent so far (ledger-based in serial mode).
    pub fn queries_spent(&self) -> u64 {
        match self.state.common.mode {
            Mode::Serial { start_cost } => self.service.queries_issued() - start_cost,
            Mode::Waves => self.state.common.wave.outcome.queries,
        }
    }

    /// The anytime state of the run.
    pub fn snapshot(&self) -> AnytimeSnapshot {
        let queries = match self.state.common.mode {
            Mode::Serial { .. } => Some(self.queries_spent()),
            Mode::Waves => None,
        };
        self.state.common.snapshot(
            queries,
            self.state
                .history
                .engine_report()
                .since(&self.state.engine_before),
        )
    }

    /// The final (or current — sessions are anytime) [`Estimate`],
    /// bit-identical to what the batch facades produce for the same
    /// configuration.
    pub fn finalize(&self) -> Result<Estimate, EstimateError> {
        let mut est = self.state.common.finalize(self.queries_spent())?;
        est.engine = self
            .state
            .history
            .engine_report()
            .since(&self.state.engine_before);
        Ok(est)
    }

    /// Stops the session without finishing its budget.
    pub fn cancel(&mut self) {
        self.state.common.cancel();
    }

    /// Consumes the session, handing back the accumulated history (the
    /// batch facades thread it back into the estimator).
    pub fn into_history(self) -> History {
        self.state.history
    }

    /// Starts a wave-mode session whose query *draws* are restricted to the
    /// `stratum` rectangle while every Horvitz–Thompson probability stays
    /// full-region — the child-session shape the stratified combiner needs
    /// (see [`crate::stratified`]).
    pub(crate) fn new_stratum(
        service: S,
        region: &Rect,
        stratum: Rect,
        aggregate: &Aggregate,
        config: LrLbsAggConfig,
        cfg: SessionConfig,
    ) -> Self {
        let mut s = Self::with_mode(
            service,
            region,
            aggregate,
            config,
            History::new(),
            cfg,
            Mode::Waves,
        );
        s.state.sampler = QuerySampler::stratified(stratum, s.state.sampler.clone());
        s
    }

    /// The raw driver accumulators (the combiner folds these).
    pub(crate) fn outcome(&self) -> &DriverOutcome {
        &self.state.common.wave.outcome
    }

    /// Raises the soft budget (see `CommonState::extend_budget`).
    pub(crate) fn extend_budget(&mut self, new_budget: u64) {
        self.state.common.extend_budget(new_budget);
    }

    /// Why the session stopped, once it has.
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        self.state.common.stop
    }

    /// `true` while the last step ended inside a wave.
    pub(crate) fn in_wave(&self) -> bool {
        self.state.common.wave.in_wave()
    }
}

// ---------------------------------------------------------------------------
// LNR and NNO sessions (no cross-sample estimator state)
// ---------------------------------------------------------------------------

/// The owned state of an LNR session (see [`LrSessionState`]).
#[derive(Clone, Debug)]
pub struct LnrSessionState {
    common: CommonState,
    explore: LnrExploreConfig,
    sampler: QuerySampler,
    h: usize,
    needs_location: bool,
    trace_every: u64,
    engine: EngineReport,
}

/// A resumable LNR-LBS-AGG estimation run over a service `S`.
#[derive(Debug)]
pub struct LnrSession<S: LbsBackend> {
    service: S,
    state: LnrSessionState,
}

impl<S: LbsBackend> LnrSession<S> {
    /// Starts a wave-mode session.
    pub fn new(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: LnrLbsAggConfig,
        cfg: SessionConfig,
    ) -> Self {
        Self::with_mode(service, region, aggregate, config, cfg, Mode::Waves)
    }

    /// Starts a serial-mode session (see [`LrSession::new_serial`]).
    pub fn new_serial(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: LnrLbsAggConfig,
        query_budget: u64,
    ) -> Self {
        let start_cost = service.queries_issued();
        Self::with_mode(
            service,
            region,
            aggregate,
            config,
            SessionConfig::new(query_budget, 0),
            Mode::Serial { start_cost },
        )
    }

    fn with_mode(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: LnrLbsAggConfig,
        cfg: SessionConfig,
        mode: Mode,
    ) -> Self {
        let estimator = LnrLbsAgg::new(config.clone());
        let sampler = match (&config.weighted_sampler, config.h) {
            (Some(grid), 1) => QuerySampler::weighted(grid.clone()),
            _ => QuerySampler::uniform(*region),
        };
        let h = config.h.clamp(1, service.config().k.max(1));
        LnrSession {
            service,
            state: LnrSessionState {
                common: CommonState::new(*region, aggregate.clone(), cfg, mode),
                explore: estimator.explore_config(),
                sampler,
                h,
                needs_location: aggregate.needs_location(),
                trace_every: config.trace_every,
                engine: EngineReport::default(),
            },
        }
    }

    /// Snapshots the owned state (see [`LrSession::checkpoint`]).
    pub fn checkpoint(&self) -> LnrSessionState {
        self.state.clone()
    }

    /// Rebuilds a session from a checkpoint and a service handle.
    pub fn resume(service: S, checkpoint: LnrSessionState) -> Self {
        LnrSession {
            service,
            state: checkpoint,
        }
    }

    /// `true` once the session will not advance further.
    pub fn is_finished(&self) -> bool {
        self.state.common.wave.finished
    }

    /// Advances a wave-mode session by one chunk round (see
    /// [`LrSession::step`]).
    pub fn step(&mut self) {
        self.advance(Quantum::Round);
    }

    /// Advances a wave-mode session to the end of its current wave (see
    /// [`LrSession::run_wave`]).
    pub fn run_wave(&mut self) {
        self.advance(Quantum::Wave);
    }

    /// Advances a wave-mode session by one `quantum`.
    pub(crate) fn advance(&mut self, quantum: Quantum) {
        assert!(
            matches!(self.state.common.mode, Mode::Waves),
            "step() drives wave-mode sessions; serial sessions use step_serial()"
        );
        if self.state.common.wave.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let LnrSessionState {
            common,
            explore,
            sampler,
            h,
            needs_location,
            engine,
            ..
        } = &mut self.state;
        let service = &self.service;
        let region = common.region;
        let aggregate = common.aggregate.clone();
        let is_ratio = common.is_ratio();
        let counters = SharedEngineCounters::from_report(engine);
        let (explore, sampler, h, needs_location) = (&*explore, &*sampler, *h, *needs_location);
        let driver = common.driver.clone();
        driver.step(
            quantum,
            common.cfg.query_budget,
            common.cfg.root_seed,
            is_ratio,
            common.cfg.wave_size,
            &mut common.wave,
            &mut (),
            &|_| (),
            &|_state, _index, rng| {
                let metered = QueryCounter::new(service);
                let (num, den) = LnrLbsAgg::sample_once(
                    explore,
                    sampler,
                    h,
                    needs_location,
                    &metered,
                    &region,
                    &aggregate,
                    &counters,
                    rng,
                )?;
                Ok(SampleOutcome {
                    numerator: num,
                    denominator: den,
                    queries: metered.taken(),
                })
            },
            &|_, _| {},
        );
        *engine = counters.report();
        common.apply_stop_rules(started.elapsed());
    }

    /// Advances a serial-mode session by one sample (see
    /// [`LrSession::step_serial`]).
    pub fn step_serial<R: Rng>(&mut self, rng: &mut R) {
        let Mode::Serial { start_cost } = self.state.common.mode else {
            panic!("step_serial() drives serial-mode sessions; wave sessions use step()");
        };
        if self.state.common.wave.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let budget_left = self
            .state
            .common
            .cfg
            .query_budget
            .saturating_sub(self.service.queries_issued() - start_cost);
        if budget_left == 0 {
            self.state.common.wave.finished = true;
            self.state.common.stop = Some(StopReason::BudgetSpent);
            return;
        }
        let LnrSessionState {
            common,
            explore,
            sampler,
            h,
            needs_location,
            trace_every,
            engine,
        } = &mut self.state;
        let counters = SharedEngineCounters::from_report(engine);
        let aggregate = common.aggregate.clone();
        match LnrLbsAgg::sample_once(
            explore,
            sampler,
            *h,
            *needs_location,
            &self.service,
            &common.region,
            &aggregate,
            &counters,
            rng,
        ) {
            Ok((num, den)) => {
                *engine = counters.report();
                let ledger_cost = self.service.queries_issued() - start_cost;
                common.push_serial_sample(num, den, ledger_cost, *trace_every);
                common.apply_stop_rules(started.elapsed());
            }
            Err(QueryError::BudgetExhausted { .. }) => {
                *engine = counters.report();
                common.wave.finished = true;
                common.stop = Some(StopReason::ServiceExhausted);
            }
        }
    }

    /// Queries this session has spent so far.
    pub fn queries_spent(&self) -> u64 {
        match self.state.common.mode {
            Mode::Serial { start_cost } => self.service.queries_issued() - start_cost,
            Mode::Waves => self.state.common.wave.outcome.queries,
        }
    }

    /// The anytime state of the run.
    pub fn snapshot(&self) -> AnytimeSnapshot {
        let queries = match self.state.common.mode {
            Mode::Serial { .. } => Some(self.queries_spent()),
            Mode::Waves => None,
        };
        self.state.common.snapshot(queries, self.state.engine)
    }

    /// The final (or current) [`Estimate`] (see [`LrSession::finalize`]).
    pub fn finalize(&self) -> Result<Estimate, EstimateError> {
        let mut est = self.state.common.finalize(self.queries_spent())?;
        est.engine = self.state.engine;
        Ok(est)
    }

    /// Stops the session without finishing its budget.
    pub fn cancel(&mut self) {
        self.state.common.cancel();
    }

    /// Starts a wave-mode session restricted to `stratum` (see
    /// [`LrSession::new_stratum`]).
    pub(crate) fn new_stratum(
        service: S,
        region: &Rect,
        stratum: Rect,
        aggregate: &Aggregate,
        config: LnrLbsAggConfig,
        cfg: SessionConfig,
    ) -> Self {
        let mut s = Self::with_mode(service, region, aggregate, config, cfg, Mode::Waves);
        s.state.sampler = QuerySampler::stratified(stratum, s.state.sampler.clone());
        s
    }

    /// The raw driver accumulators (the combiner folds these).
    pub(crate) fn outcome(&self) -> &DriverOutcome {
        &self.state.common.wave.outcome
    }

    /// Raises the soft budget (see `CommonState::extend_budget`).
    pub(crate) fn extend_budget(&mut self, new_budget: u64) {
        self.state.common.extend_budget(new_budget);
    }

    /// Why the session stopped, once it has.
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        self.state.common.stop
    }

    /// `true` while the last step ended inside a wave.
    pub(crate) fn in_wave(&self) -> bool {
        self.state.common.wave.in_wave()
    }
}

/// The owned state of an NNO session (see [`LrSessionState`]).
#[derive(Clone, Debug)]
pub struct NnoSessionState {
    common: CommonState,
    config: NnoConfig,
    engine: EngineReport,
}

/// A resumable LR-LBS-NNO baseline run over a service `S`.
#[derive(Debug)]
pub struct NnoSession<S: LbsBackend> {
    service: S,
    state: NnoSessionState,
}

impl<S: LbsBackend> NnoSession<S> {
    /// Starts a wave-mode session.
    pub fn new(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: NnoConfig,
        cfg: SessionConfig,
    ) -> Self {
        Self::with_mode(service, region, aggregate, config, cfg, Mode::Waves)
    }

    /// Starts a serial-mode session (see [`LrSession::new_serial`]).
    pub fn new_serial(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: NnoConfig,
        query_budget: u64,
    ) -> Self {
        let start_cost = service.queries_issued();
        Self::with_mode(
            service,
            region,
            aggregate,
            config,
            SessionConfig::new(query_budget, 0),
            Mode::Serial { start_cost },
        )
    }

    fn with_mode(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        config: NnoConfig,
        cfg: SessionConfig,
        mode: Mode,
    ) -> Self {
        assert_eq!(
            service.config().return_mode,
            ReturnMode::LocationReturned,
            "LR-LBS-NNO requires a location-returned interface"
        );
        NnoSession {
            service,
            state: NnoSessionState {
                common: CommonState::new(*region, aggregate.clone(), cfg, mode),
                config,
                engine: EngineReport::default(),
            },
        }
    }

    /// Snapshots the owned state (see [`LrSession::checkpoint`]).
    pub fn checkpoint(&self) -> NnoSessionState {
        self.state.clone()
    }

    /// Rebuilds a session from a checkpoint and a service handle.
    pub fn resume(service: S, checkpoint: NnoSessionState) -> Self {
        NnoSession {
            service,
            state: checkpoint,
        }
    }

    /// `true` once the session will not advance further.
    pub fn is_finished(&self) -> bool {
        self.state.common.wave.finished
    }

    /// Advances a wave-mode session by one chunk round (see
    /// [`LrSession::step`]).
    pub fn step(&mut self) {
        self.advance(Quantum::Round);
    }

    /// Advances a wave-mode session to the end of its current wave (see
    /// [`LrSession::run_wave`]).
    pub fn run_wave(&mut self) {
        self.advance(Quantum::Wave);
    }

    /// Advances a wave-mode session by one `quantum`.
    pub(crate) fn advance(&mut self, quantum: Quantum) {
        assert!(
            matches!(self.state.common.mode, Mode::Waves),
            "step() drives wave-mode sessions; serial sessions use step_serial()"
        );
        if self.state.common.wave.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let NnoSessionState {
            common,
            config,
            engine,
        } = &mut self.state;
        let service = &self.service;
        let region = common.region;
        let aggregate = common.aggregate.clone();
        let is_ratio = common.is_ratio();
        let counters = SharedEngineCounters::from_report(engine);
        let config = &*config;
        let driver = common.driver.clone();
        driver.step(
            quantum,
            common.cfg.query_budget,
            common.cfg.root_seed,
            is_ratio,
            common.cfg.wave_size,
            &mut common.wave,
            &mut (),
            &|_| (),
            &|_state, _index, rng| {
                let metered = QueryCounter::new(service);
                let (num, den) = NnoBaseline::sample_once(
                    config, &metered, &region, &aggregate, &counters, rng,
                )?;
                Ok(SampleOutcome {
                    numerator: num,
                    denominator: den,
                    queries: metered.taken(),
                })
            },
            &|_, _| {},
        );
        *engine = counters.report();
        common.apply_stop_rules(started.elapsed());
    }

    /// Advances a serial-mode session by one sample (see
    /// [`LrSession::step_serial`]).
    pub fn step_serial<R: Rng>(&mut self, rng: &mut R) {
        let Mode::Serial { start_cost } = self.state.common.mode else {
            panic!("step_serial() drives serial-mode sessions; wave sessions use step()");
        };
        if self.state.common.wave.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let budget_left = self
            .state
            .common
            .cfg
            .query_budget
            .saturating_sub(self.service.queries_issued() - start_cost);
        if budget_left == 0 {
            self.state.common.wave.finished = true;
            self.state.common.stop = Some(StopReason::BudgetSpent);
            return;
        }
        let NnoSessionState {
            common,
            config,
            engine,
        } = &mut self.state;
        let counters = SharedEngineCounters::from_report(engine);
        let aggregate = common.aggregate.clone();
        match NnoBaseline::sample_once(
            config,
            &self.service,
            &common.region,
            &aggregate,
            &counters,
            rng,
        ) {
            Ok((num, den)) => {
                *engine = counters.report();
                let ledger_cost = self.service.queries_issued() - start_cost;
                let trace_every = config.trace_every;
                common.push_serial_sample(num, den, ledger_cost, trace_every);
                common.apply_stop_rules(started.elapsed());
            }
            Err(QueryError::BudgetExhausted { .. }) => {
                *engine = counters.report();
                common.wave.finished = true;
                common.stop = Some(StopReason::ServiceExhausted);
            }
        }
    }

    /// Queries this session has spent so far.
    pub fn queries_spent(&self) -> u64 {
        match self.state.common.mode {
            Mode::Serial { start_cost } => self.service.queries_issued() - start_cost,
            Mode::Waves => self.state.common.wave.outcome.queries,
        }
    }

    /// The anytime state of the run.
    pub fn snapshot(&self) -> AnytimeSnapshot {
        let queries = match self.state.common.mode {
            Mode::Serial { .. } => Some(self.queries_spent()),
            Mode::Waves => None,
        };
        self.state.common.snapshot(queries, self.state.engine)
    }

    /// The final (or current) [`Estimate`] (see [`LrSession::finalize`]).
    pub fn finalize(&self) -> Result<Estimate, EstimateError> {
        let mut est = self.state.common.finalize(self.queries_spent())?;
        est.engine = self.state.engine;
        Ok(est)
    }

    /// Stops the session without finishing its budget.
    pub fn cancel(&mut self) {
        self.state.common.cancel();
    }

    /// Starts a wave-mode session restricted to `stratum` (see
    /// [`LrSession::new_stratum`]). The NNO draw restriction lives in
    /// [`NnoConfig::draw_region`]; probabilities stay full-region.
    pub(crate) fn new_stratum(
        service: S,
        region: &Rect,
        stratum: Rect,
        aggregate: &Aggregate,
        mut config: NnoConfig,
        cfg: SessionConfig,
    ) -> Self {
        config.draw_region = Some(stratum);
        Self::with_mode(service, region, aggregate, config, cfg, Mode::Waves)
    }

    /// The raw driver accumulators (the combiner folds these).
    pub(crate) fn outcome(&self) -> &DriverOutcome {
        &self.state.common.wave.outcome
    }

    /// Raises the soft budget (see `CommonState::extend_budget`).
    pub(crate) fn extend_budget(&mut self, new_budget: u64) {
        self.state.common.extend_budget(new_budget);
    }

    /// Why the session stopped, once it has.
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        self.state.common.stop
    }

    /// `true` while the last step ended inside a wave.
    pub(crate) fn in_wave(&self) -> bool {
        self.state.common.wave.in_wave()
    }
}

// ---------------------------------------------------------------------------
// Uniform wrapper
// ---------------------------------------------------------------------------

/// Any estimator's session behind one type — what a scheduler juggling
/// heterogeneous jobs holds.
#[derive(Debug)]
pub enum EstimationSession<S: LbsBackend> {
    /// An LR-LBS-AGG session.
    Lr(Box<LrSession<S>>),
    /// An LNR-LBS-AGG session.
    Lnr(LnrSession<S>),
    /// An LR-LBS-NNO baseline session.
    Nno(NnoSession<S>),
    /// A stratified session composing per-stratum child sessions
    /// ([`crate::stratified::StratifiedSession`]).
    Stratified(Box<crate::stratified::StratifiedSession<S>>),
}

/// The owned state of any session kind — what
/// [`EstimationSession::checkpoint`] snapshots.
#[derive(Clone, Debug)]
pub enum SessionCheckpoint {
    /// Checkpoint of an LR session.
    Lr(Box<LrSessionState>),
    /// Checkpoint of an LNR session.
    Lnr(Box<LnrSessionState>),
    /// Checkpoint of an NNO session.
    Nno(Box<NnoSessionState>),
    /// Checkpoint of a stratified session.
    Stratified(Box<crate::stratified::StratifiedSessionState>),
}

impl<S: LbsBackend> EstimationSession<S> {
    /// `true` once the session will not advance further.
    pub fn is_finished(&self) -> bool {
        match self {
            EstimationSession::Lr(s) => s.is_finished(),
            EstimationSession::Lnr(s) => s.is_finished(),
            EstimationSession::Nno(s) => s.is_finished(),
            EstimationSession::Stratified(s) => s.is_finished(),
        }
    }

    /// Advances the session by one chunk round (one chunk per worker
    /// thread) — the scheduler's quantum. Bit-identical to stepping by
    /// whole waves.
    pub fn step(&mut self) {
        match self {
            EstimationSession::Lr(s) => s.step(),
            EstimationSession::Lnr(s) => s.step(),
            EstimationSession::Nno(s) => s.step(),
            EstimationSession::Stratified(s) => s.step(),
        }
    }

    /// Advances the session to the end of its current wave — the batch
    /// quantum, with chunks claimed dynamically across all worker threads.
    pub fn run_wave(&mut self) {
        match self {
            EstimationSession::Lr(s) => s.run_wave(),
            EstimationSession::Lnr(s) => s.run_wave(),
            EstimationSession::Nno(s) => s.run_wave(),
            EstimationSession::Stratified(s) => s.run_wave(),
        }
    }

    /// The anytime state of the run.
    pub fn snapshot(&self) -> AnytimeSnapshot {
        match self {
            EstimationSession::Lr(s) => s.snapshot(),
            EstimationSession::Lnr(s) => s.snapshot(),
            EstimationSession::Nno(s) => s.snapshot(),
            EstimationSession::Stratified(s) => s.snapshot(),
        }
    }

    /// The final (or current) [`Estimate`].
    pub fn finalize(&self) -> Result<Estimate, EstimateError> {
        match self {
            EstimationSession::Lr(s) => s.finalize(),
            EstimationSession::Lnr(s) => s.finalize(),
            EstimationSession::Nno(s) => s.finalize(),
            EstimationSession::Stratified(s) => s.finalize(),
        }
    }

    /// Stops the session without finishing its budget.
    pub fn cancel(&mut self) {
        match self {
            EstimationSession::Lr(s) => s.cancel(),
            EstimationSession::Lnr(s) => s.cancel(),
            EstimationSession::Nno(s) => s.cancel(),
            EstimationSession::Stratified(s) => s.cancel(),
        }
    }

    /// Queries this session has spent so far.
    pub fn queries_spent(&self) -> u64 {
        match self {
            EstimationSession::Lr(s) => s.queries_spent(),
            EstimationSession::Lnr(s) => s.queries_spent(),
            EstimationSession::Nno(s) => s.queries_spent(),
            EstimationSession::Stratified(s) => s.queries_spent(),
        }
    }

    /// Snapshots the entire owned state (everything but the service).
    pub fn checkpoint(&self) -> SessionCheckpoint {
        match self {
            EstimationSession::Lr(s) => SessionCheckpoint::Lr(Box::new(s.checkpoint())),
            EstimationSession::Lnr(s) => SessionCheckpoint::Lnr(Box::new(s.checkpoint())),
            EstimationSession::Nno(s) => SessionCheckpoint::Nno(Box::new(s.checkpoint())),
            EstimationSession::Stratified(s) => {
                SessionCheckpoint::Stratified(Box::new(s.checkpoint()))
            }
        }
    }

    /// Rebuilds a session from a checkpoint and a service handle.
    pub fn resume(service: S, checkpoint: SessionCheckpoint) -> Self {
        match checkpoint {
            SessionCheckpoint::Lr(state) => {
                EstimationSession::Lr(Box::new(LrSession::resume(service, *state)))
            }
            SessionCheckpoint::Lnr(state) => {
                EstimationSession::Lnr(LnrSession::resume(service, *state))
            }
            SessionCheckpoint::Nno(state) => {
                EstimationSession::Nno(NnoSession::resume(service, *state))
            }
            SessionCheckpoint::Stratified(state) => EstimationSession::Stratified(Box::new(
                crate::stratified::StratifiedSession::resume(service, *state),
            )),
        }
    }
}
