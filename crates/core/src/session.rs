//! Anytime estimation sessions: resumable, checkpointable estimator runs.
//!
//! The paper's three estimators share one outer loop: draw a query location,
//! turn one kNN answer into a Horvitz–Thompson contribution, and average.
//! [`SampleEstimator`] is that per-sample body, and [`Session`] is the loop,
//! written once for all of them: it owns the per-sample seeded RNG stream,
//! the [`crate::driver::SampleDriver`] waves, the stop rules, snapshots,
//! checkpoint/resume and the stratum restriction. [`LrSession`],
//! [`LnrSession`] and [`NnoSession`] are its three instances.
//!
//! A session advances under explicit control of its caller and can report
//! the current estimate, running confidence interval, queries spent and
//! [`EngineReport`] after any step. [`Session::step`] advances **one chunk
//! round** (one [`crate::driver::CHUNK_SAMPLES`]-sample chunk per worker
//! thread) and [`Session::run_wave`] the rest of the current wave; both give
//! the same bits. This is the substrate of the `lbs-server` multi-tenant
//! scheduler, which interleaves chunk rounds of many concurrent jobs over
//! shared query budgets through the type-erased [`EstimationSession`].
//!
//! Every sample draws a private RNG seeded from `(root_seed, sample_index)`,
//! so results are bit-identical at every thread count. Each estimator's
//! batch entry point, `run(service, region, aggregate, cfg)`, is a loop over
//! a session that steps by whole waves until it finishes.
//!
//! # Checkpoint / resume determinism
//!
//! A session is Markovian: the next step is a pure function of the session
//! state, the root seed and the budget — never of wall-clock time, thread
//! count or how often the caller paused. [`Session::checkpoint`] snapshots
//! the entire owned state (accumulators, sample cursor, the estimator's
//! chunk state such as the LR [`History`], and the forked states of a wave
//! in flight), between any two steps; [`Session::resume`] rebuilds a session
//! from a snapshot and a service handle. Stepping a resumed session is
//! **bit-identical** to never having checkpointed, at every thread count,
//! and replays the same queries against the service, so even the service
//! ledger matches an uninterrupted run. The only caveats are the ones the
//! driver already documents: a *hard* service limit aborts at a
//! scheduling-dependent query, and `max_wall_ms` stops at a wall-clock-
//! dependent wave boundary (every state it stops in is still a valid
//! anytime answer).
//!
//! # Early stopping
//!
//! Sessions stop at the first of: soft budget spent (the wave in flight
//! finishes), target confidence reached (`target_ci_halfwidth`), wall-clock
//! cap (`max_wall_ms`), hard service limit, or a caller's cancel. The budget, precision and wall-clock rules
//! are checked at wave boundaries only, never between the chunk rounds of a
//! wave; a cancel takes effect at once. The [`StopReason`] is reported in
//! every [`AnytimeSnapshot`].

use std::fmt::Debug;
use std::time::Duration;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use lbs_geom::Rect;
use lbs_service::{LbsBackend, QueryCounter, QueryError};

use crate::agg::Aggregate;
use crate::baseline::NnoConfig;
use crate::driver::{DriverOutcome, Quantum, SampleDriver, SampleOutcome, WaveState};
use crate::engine_stats::EngineReport;
use crate::estimate::{point_and_error, Estimate, EstimateError};
use crate::lnr::LnrLbsAggConfig;
use crate::lr::{History, LrLbsAggConfig};
use crate::sampling::QuerySampler;
use crate::stratified::{StratifiedSession, StratifiedSessionState};

/// Run-control knobs of a session.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Soft query budget; the session stops scheduling new waves once the
    /// completed samples have spent it (the wave in flight finishes, so the
    /// actual cost can overshoot by up to one wave).
    pub query_budget: u64,
    /// Root of the per-sample RNG seed derivation
    /// ([`crate::driver::sample_seed`]).
    pub root_seed: u64,
    /// Worker threads per wave (`0` = all cores). Results are bit-identical
    /// at every thread count.
    pub threads: usize,
    /// Fixed samples per wave. `None` keeps the driver's adaptive sizing;
    /// `Some(n)` pins every wave to `n` samples, so the budget and
    /// early-stop rules run (and the LR history is shared) after every `n`
    /// samples. (Any chunk boundary is a checkpointable sample index,
    /// whatever the wave size.)
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
    /// A single-threaded session with the given budget and seed, adaptive
    /// waves and no early-stop rules.
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
    /// Queries attributed to completed samples.
    pub queries: u64,
    /// Waves completed so far; a wave in flight is not counted until its
    /// last chunk is done.
    pub waves: u64,
    /// `true` once the session will not advance further.
    pub finished: bool,
    /// Why the session stopped, once it has.
    pub stop: Option<StopReason>,
    /// Cell-engine counters of the waves completed so far.
    pub engine: EngineReport,
}

impl AnytimeSnapshot {
    /// Half-width of the running 95 % confidence interval.
    pub fn ci_halfwidth(&self) -> f64 {
        1.96 * self.std_error
    }
}

/// One of the paper's estimators as a [`Session`] runs it: one independent
/// Horvitz–Thompson sample at a time, with a per-chunk `State` that every
/// chunk forks off the session's master copy and the driver absorbs back in
/// chunk order at the end of each wave.
///
/// The configuration types implement it: [`LrLbsAggConfig`] (Algorithm 5,
/// whose state is the §3.2.2 [`History`]), [`LnrLbsAggConfig`] (Algorithm 6)
/// and [`NnoConfig`] (the baseline), whose state is just their
/// [`EngineReport`] counters. [`EstimatorKind`] picks one at run time.
pub trait SampleEstimator: Clone + Debug + Send + Sync {
    /// What the samples of one chunk share and the session carries between
    /// waves.
    type State: Clone + Debug + Default + Send + Sync;

    /// The base query-location design of a run over `region` through
    /// `service` (a [`Session`] may restrict its draws to a stratum, but
    /// every probability stays this design's).
    ///
    /// # Panics
    ///
    /// Panics when `service`'s interface cannot serve this estimator.
    fn design<S: LbsBackend + ?Sized>(&self, service: &S, region: &Rect) -> QuerySampler;

    /// Runs one independent sample — draws a location from `sampler`,
    /// issues its kNN query and turns the answer into the sample's
    /// Horvitz–Thompson `(numerator, denominator)` contribution. An `Err`
    /// means the sample hit the service's hard query limit and no partial
    /// contribution exists.
    fn sample_once<S: LbsBackend + ?Sized>(
        &self,
        service: &S,
        sampler: &QuerySampler,
        region: &Rect,
        aggregate: &Aggregate,
        state: &mut Self::State,
        rng: &mut StdRng,
    ) -> Result<(f64, f64), QueryError>;

    /// A chunk's private copy of the master state.
    fn fork(master: &Self::State) -> Self::State;

    /// Merges what one completed chunk learned back into the master state.
    fn absorb(master: &mut Self::State, fork: &Self::State);

    /// The cell-engine counters `state` has accumulated.
    fn engine(state: &Self::State) -> EngineReport;
}

/// Which of the paper's estimators a run uses, with its configuration: the
/// estimator of a declarative scenario, and of every stratum child of a
/// [`StratifiedSession`].
#[derive(Clone, Debug)]
pub enum EstimatorKind {
    /// LR-LBS-AGG with this configuration.
    Lr(LrLbsAggConfig),
    /// LNR-LBS-AGG with this configuration.
    Lnr(LnrLbsAggConfig),
    /// The LR-LBS-NNO baseline with this configuration.
    Nno(NnoConfig),
}

impl SampleEstimator for EstimatorKind {
    /// The LR history next to the LNR/NNO counters; each kind uses only its
    /// own half, so the other stays empty.
    type State = (History, EngineReport);

    fn design<S: LbsBackend + ?Sized>(&self, service: &S, region: &Rect) -> QuerySampler {
        match self {
            EstimatorKind::Lr(c) => c.design(service, region),
            EstimatorKind::Lnr(c) => c.design(service, region),
            EstimatorKind::Nno(c) => c.design(service, region),
        }
    }

    fn sample_once<S: LbsBackend + ?Sized>(
        &self,
        service: &S,
        sampler: &QuerySampler,
        region: &Rect,
        aggregate: &Aggregate,
        (history, engine): &mut Self::State,
        rng: &mut StdRng,
    ) -> Result<(f64, f64), QueryError> {
        match self {
            EstimatorKind::Lr(c) => {
                c.sample_once(service, sampler, region, aggregate, history, rng)
            }
            EstimatorKind::Lnr(c) => {
                c.sample_once(service, sampler, region, aggregate, engine, rng)
            }
            EstimatorKind::Nno(c) => {
                c.sample_once(service, sampler, region, aggregate, engine, rng)
            }
        }
    }

    fn fork((history, _): &Self::State) -> Self::State {
        (history.fork(), EngineReport::default())
    }

    fn absorb((history, engine): &mut Self::State, fork: &Self::State) {
        history.absorb(&fork.0);
        engine.add(&fork.1);
    }

    fn engine((history, engine): &Self::State) -> EngineReport {
        let mut total = history.engine_report();
        total.add(engine);
        total
    }
}

/// The owned (service-independent) state of a session: what
/// [`Session::checkpoint`] snapshots and [`Session::resume`] restores.
#[derive(Clone, Debug)]
pub struct SessionState<E: SampleEstimator> {
    estimator: E,
    sampler: QuerySampler,
    region: Rect,
    aggregate: Aggregate,
    cfg: SessionConfig,
    driver: SampleDriver,
    wave: WaveState<E::State>,
    /// The master chunk state (the LR history), absorbed into at every wave
    /// boundary.
    master: E::State,
    /// Engine counters the master state carried in at the start.
    engine_before: EngineReport,
    /// Wall-clock time spent inside steps so far.
    elapsed: Duration,
    stop: Option<StopReason>,
}

impl<E: SampleEstimator> SessionState<E> {
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
                self.aggregate.is_ratio(),
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

    /// Engine counters of this run so far.
    fn engine(&self) -> EngineReport {
        E::engine(&self.master).since(&self.engine_before)
    }
}

/// A resumable run of estimator `E` over a service `S`.
#[derive(Debug)]
pub struct Session<E: SampleEstimator, S: LbsBackend> {
    service: S,
    state: SessionState<E>,
}

/// A resumable LR-LBS-AGG estimation run.
pub type LrSession<S> = Session<LrLbsAggConfig, S>;
/// A resumable LNR-LBS-AGG estimation run.
pub type LnrSession<S> = Session<LnrLbsAggConfig, S>;
/// A resumable LR-LBS-NNO baseline run.
pub type NnoSession<S> = Session<NnoConfig, S>;

impl<E: SampleEstimator, S: LbsBackend> Session<E, S> {
    /// Starts a session from an empty chunk state (a cold LR history).
    pub fn new(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        estimator: E,
        cfg: SessionConfig,
    ) -> Self {
        let sampler = estimator.design(&service, region);
        Session {
            service,
            state: SessionState {
                estimator,
                sampler,
                region: *region,
                aggregate: aggregate.clone(),
                // `SampleDriver::new` resolves `0` to all cores.
                driver: SampleDriver::new(cfg.threads),
                cfg,
                wave: WaveState::new(),
                master: E::State::default(),
                engine_before: EngineReport::default(),
                elapsed: Duration::ZERO,
                stop: None,
            },
        }
    }

    /// Starts a session whose master chunk state is `state` — an LR history
    /// carried over from earlier runs on the same service.
    pub fn with_state(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        estimator: E,
        state: E::State,
        cfg: SessionConfig,
    ) -> Self {
        let mut session = Self::new(service, region, aggregate, estimator, cfg);
        session.carry_in(state);
        session
    }

    /// Makes `state` the master chunk state of a session that has not
    /// stepped yet.
    fn carry_in(&mut self, state: E::State) {
        self.state.engine_before = E::engine(&state);
        self.state.master = state;
    }

    /// Restricts the query draws to the `stratum` rectangle while every
    /// Horvitz–Thompson probability stays full-region — the child-session
    /// shape the stratified combiner needs (see [`crate::stratified`]).
    pub(crate) fn restricted_to(mut self, stratum: Rect) -> Self {
        self.state.sampler = QuerySampler::stratified(stratum, self.state.sampler.clone());
        self
    }

    /// Snapshots the entire owned state. Resuming from the snapshot (on the
    /// same or an identically-behaving service) and stepping is bit-identical
    /// to continuing this session.
    pub fn checkpoint(&self) -> SessionState<E> {
        self.state.clone()
    }

    /// Rebuilds a session from a checkpoint and a service handle.
    pub fn resume(service: S, checkpoint: SessionState<E>) -> Self {
        Session {
            service,
            state: checkpoint,
        }
    }

    /// `true` once the session will not advance further.
    pub fn is_finished(&self) -> bool {
        self.state.wave.finished
    }

    /// Advances the session by one chunk round: one
    /// [`crate::driver::CHUNK_SAMPLES`]-sample chunk per worker thread, the
    /// scheduling quantum of a served job. The forked states of the round's
    /// chunks wait in the session until the wave's last chunk, so stepping
    /// by rounds is bit-identical to [`Session::run_wave`].
    pub fn step(&mut self) {
        self.advance(Quantum::Round);
    }

    /// Advances the session to the end of its current wave (a whole wave at
    /// a wave boundary), claiming chunks dynamically across all worker
    /// threads — the batch quantum.
    pub fn run_wave(&mut self) {
        self.advance(Quantum::Wave);
    }

    /// Advances the session by one `quantum`.
    pub(crate) fn advance(&mut self, quantum: Quantum) {
        if self.state.wave.finished {
            return;
        }
        // lbs-lint: allow(ambient-time, reason = "wall-clock early-stop picks when to stop; the estimate at any stop point stays bit-identical (session_checkpoint tests)")
        let started = std::time::Instant::now();
        let SessionState {
            estimator,
            sampler,
            region,
            aggregate,
            cfg,
            driver,
            wave,
            master,
            ..
        } = &mut self.state;
        let service = &self.service;
        let (estimator, sampler, region, aggregate) =
            (&*estimator, &*sampler, &*region, &*aggregate);
        driver.step(
            quantum,
            cfg.query_budget,
            cfg.root_seed,
            aggregate.is_ratio(),
            cfg.wave_size,
            wave,
            master,
            &E::fork,
            &|state: &mut E::State, _index, rng| {
                let metered = QueryCounter::new(service);
                let (numerator, denominator) =
                    estimator.sample_once(&metered, sampler, region, aggregate, state, rng)?;
                Ok(SampleOutcome {
                    numerator,
                    denominator,
                    queries: metered.taken(),
                })
            },
            &|master: &mut E::State, forks: Vec<E::State>| {
                for fork in &forks {
                    E::absorb(master, fork);
                }
            },
        );
        self.state.apply_stop_rules(started.elapsed());
    }

    /// The anytime state of the run.
    pub fn snapshot(&self) -> AnytimeSnapshot {
        let state = &self.state;
        let outcome = &state.wave.outcome;
        let (value, std_error) = point_and_error(
            &outcome.numerator,
            &outcome.denominator,
            state.aggregate.is_ratio(),
        );
        AnytimeSnapshot {
            value,
            std_error,
            ci95: (value - 1.96 * std_error, value + 1.96 * std_error),
            samples: outcome.numerator.count(),
            queries: outcome.queries,
            waves: state.wave.waves,
            finished: state.wave.finished,
            stop: state.stop,
            engine: state.engine(),
        }
    }

    /// The final (or current — sessions are anytime) [`Estimate`],
    /// bit-identical to what the estimators' `run` produces for the same
    /// configuration.
    pub fn finalize(&self) -> Result<Estimate, EstimateError> {
        let outcome = &self.state.wave.outcome;
        if outcome.numerator.count() == 0 {
            return Err(EstimateError::NoSamples);
        }
        let mut estimate = if self.state.aggregate.is_ratio() {
            Estimate::ratio_from_stats(
                &outcome.numerator,
                &outcome.denominator,
                outcome.queries,
                outcome.trace.clone(),
            )
        } else {
            Estimate::from_stats(&outcome.numerator, outcome.queries, outcome.trace.clone())
        };
        estimate.engine = self.state.engine();
        Ok(estimate)
    }

    /// Stops the session without finishing its budget.
    pub fn cancel(&mut self) {
        if !self.state.wave.finished {
            self.state.wave.finished = true;
            self.state.stop = Some(StopReason::Cancelled);
        }
    }

    /// The raw driver accumulators (the stratified combiner folds these).
    pub(crate) fn outcome(&self) -> &DriverOutcome {
        &self.state.wave.outcome
    }

    /// Raises the soft query budget to `new_budget` (never lowers it) and —
    /// when the session had stopped *only* because the old budget was spent —
    /// clears the stop so stepping resumes. Any other stop reason
    /// (`NoProgress`, `ServiceExhausted`, …) is terminal and stays in place.
    /// The stratified combiner uses this to grant a stratum its final
    /// (Neyman) allocation after the pilot phase.
    pub(crate) fn extend_budget(&mut self, new_budget: u64) {
        let state = &mut self.state;
        if new_budget <= state.cfg.query_budget {
            return;
        }
        state.cfg.query_budget = new_budget;
        if state.stop == Some(StopReason::BudgetSpent) && state.wave.outcome.queries < new_budget {
            state.stop = None;
            state.wave.finished = false;
        }
    }

    /// Why the session stopped, once it has.
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        self.state.stop
    }

    /// `true` while the last step ended inside a wave.
    pub(crate) fn in_wave(&self) -> bool {
        self.state.wave.in_wave()
    }
}

impl<S: LbsBackend> LrSession<S> {
    /// Consumes the session, handing back the accumulated history.
    pub fn into_history(self) -> History {
        self.state.master
    }
}

/// Runs a session to completion by whole waves — the loop of every
/// estimator's `run` — over the caller's long-lived chunk state (the LR
/// history), which is taken for the run and handed back after it. An
/// interface the estimator rejects panics before `state` is touched.
pub(crate) fn run_batch<E: SampleEstimator, S: LbsBackend>(
    service: S,
    region: &Rect,
    aggregate: &Aggregate,
    estimator: E,
    state: &mut E::State,
    cfg: SessionConfig,
) -> Result<Estimate, EstimateError> {
    let mut session = Session::new(service, region, aggregate, estimator, cfg);
    session.carry_in(std::mem::take(state));
    while !session.is_finished() {
        session.run_wave();
    }
    let result = session.finalize();
    *state = session.state.master;
    result
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
    Lnr(Box<LnrSession<S>>),
    /// An LR-LBS-NNO baseline session.
    Nno(Box<NnoSession<S>>),
    /// A stratified session composing per-stratum child sessions
    /// ([`crate::stratified::StratifiedSession`]).
    Stratified(Box<StratifiedSession<S>>),
}

/// The owned state of any session kind — what
/// [`EstimationSession::checkpoint`] snapshots.
#[derive(Clone, Debug)]
pub enum SessionCheckpoint {
    /// Checkpoint of an LR session.
    Lr(Box<SessionState<LrLbsAggConfig>>),
    /// Checkpoint of an LNR session.
    Lnr(Box<SessionState<LnrLbsAggConfig>>),
    /// Checkpoint of an NNO session.
    Nno(Box<SessionState<NnoConfig>>),
    /// Checkpoint of a stratified session.
    Stratified(Box<StratifiedSessionState>),
}

/// Forwards one call to whichever session an [`EstimationSession`] holds
/// (every session type has the same inherent methods).
macro_rules! dispatch {
    ($session:expr, $s:ident => $call:expr) => {
        match $session {
            EstimationSession::Lr($s) => $call,
            EstimationSession::Lnr($s) => $call,
            EstimationSession::Nno($s) => $call,
            EstimationSession::Stratified($s) => $call,
        }
    };
}

impl<S: LbsBackend> EstimationSession<S> {
    /// Starts a flat session of `kind`.
    pub fn new(
        service: S,
        region: &Rect,
        aggregate: &Aggregate,
        kind: EstimatorKind,
        cfg: SessionConfig,
    ) -> Self {
        match kind {
            EstimatorKind::Lr(c) => {
                EstimationSession::Lr(Box::new(Session::new(service, region, aggregate, c, cfg)))
            }
            EstimatorKind::Lnr(c) => {
                EstimationSession::Lnr(Box::new(Session::new(service, region, aggregate, c, cfg)))
            }
            EstimatorKind::Nno(c) => {
                EstimationSession::Nno(Box::new(Session::new(service, region, aggregate, c, cfg)))
            }
        }
    }

    /// `true` once the session will not advance further.
    pub fn is_finished(&self) -> bool {
        dispatch!(self, s => s.is_finished())
    }

    /// Advances the session by one chunk round (one chunk per worker
    /// thread) — the scheduler's quantum. Bit-identical to stepping by
    /// whole waves.
    pub fn step(&mut self) {
        dispatch!(self, s => s.step())
    }

    /// Advances the session to the end of its current wave — the batch
    /// quantum, with chunks claimed dynamically across all worker threads.
    pub fn run_wave(&mut self) {
        dispatch!(self, s => s.run_wave())
    }

    /// The anytime state of the run.
    pub fn snapshot(&self) -> AnytimeSnapshot {
        dispatch!(self, s => s.snapshot())
    }

    /// The final (or current) [`Estimate`].
    pub fn finalize(&self) -> Result<Estimate, EstimateError> {
        dispatch!(self, s => s.finalize())
    }

    /// Stops the session without finishing its budget.
    pub fn cancel(&mut self) {
        dispatch!(self, s => s.cancel())
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
                EstimationSession::Lr(Box::new(Session::resume(service, *state)))
            }
            SessionCheckpoint::Lnr(state) => {
                EstimationSession::Lnr(Box::new(Session::resume(service, *state)))
            }
            SessionCheckpoint::Nno(state) => {
                EstimationSession::Nno(Box::new(Session::resume(service, *state)))
            }
            SessionCheckpoint::Stratified(state) => {
                EstimationSession::Stratified(Box::new(StratifiedSession::resume(service, *state)))
            }
        }
    }
}
