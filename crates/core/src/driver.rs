//! Parallel sample driver: deterministic fan-out of estimator samples.
//!
//! Every estimator in this crate has the same outer shape — draw independent
//! query-location samples, compute one Horvitz–Thompson contribution per
//! sample, and average them with [`RunningStats`]. The samples are
//! embarrassingly parallel, and [`SampleDriver`] is the shared engine that
//! runs them across [`std::thread::scope`] workers while keeping the result
//! **bit-identical regardless of thread count**:
//!
//! * every sample has a global index `i` and its own private
//!   [`rand::rngs::StdRng`] seeded from `(root_seed, i)` via [`sample_seed`],
//!   so the random stream a sample consumes does not depend on which worker
//!   runs it;
//! * samples are grouped into fixed-size chunks of [`CHUNK_SAMPLES`]
//!   (independent of the thread count); each chunk accumulates its own
//!   [`RunningStats`] by pushing its samples in index order;
//! * chunk accumulators are merged through the parallel-Welford
//!   [`RunningStats::merge`] **in chunk-index order**, so the
//!   floating-point reduction tree is the same for 1 thread and for 64;
//! * the soft query budget is enforced at deterministic wave boundaries:
//!   wave sizes are computed only from the budget and the per-sample costs
//!   observed so far, never from timing or thread count.
//!
//! Estimator state that samples want to share (the LR estimator's
//! [`crate::lr::History`]) is handled with a fork/absorb protocol: each chunk
//! forks a private copy of the master state, and the driver hands the forks
//! back for absorption in chunk order at every wave boundary — again a
//! deterministic merge.
//!
//! A run advances in one of two [`Quantum`]s. The batch quantum
//! ([`Quantum::Wave`]) runs the rest of the current wave, every worker
//! claiming chunks dynamically. The served quantum ([`Quantum::Round`])
//! runs one chunk per worker thread and then returns, so a scheduler can
//! interleave jobs between any two chunks. Both merge the same chunks in
//! the same order, so how a wave is cut into steps never changes a bit:
//! the completed chunks' forked states wait in the [`WaveState`] until the
//! wave's last chunk, and every budget decision still happens at wave
//! boundaries.
//!
//! The one thing that cannot be made deterministic is a *hard* service
//! limit ([`lbs_service::QueryBudget::limit`]): which concurrent query hits
//! the wall depends on scheduling. When a sample aborts this way the driver
//! discards that sample and every later-indexed one from the wave, so the
//! kept samples are a prefix of the index order, but run-to-run determinism
//! is only guaranteed for services without a hard limit (or with one that is
//! never reached).
//!
//! ```
//! use lbs_core::{Aggregate, LrLbsAgg, LrLbsAggConfig, SessionConfig};
//! use lbs_data::ScenarioBuilder;
//! use lbs_service::{ServiceConfig, SimulatedLbs};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let dataset = ScenarioBuilder::usa_pois(60).build(&mut rng);
//! let region = dataset.bbox();
//! let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(5));
//!
//! // The same root seed gives bit-identical estimates at any thread count.
//! let run = |threads| {
//!     let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
//!     let cfg = SessionConfig::new(150, 7).with_threads(threads);
//!     estimator
//!         .run(&service, &region, &Aggregate::count_all(), cfg)
//!         .unwrap()
//! };
//! let serial = run(1);
//! let parallel = run(2);
//! assert_eq!(serial.value, parallel.value);
//! assert_eq!(serial.ci95, parallel.ci95);
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use lbs_service::QueryError;

use crate::estimate::TracePoint;
use crate::stats::RunningStats;

/// Samples per deterministic work chunk.
///
/// A chunk is the unit of scheduling *and* of floating-point accumulation:
/// its samples are always pushed in index order into one accumulator, and
/// chunk accumulators are always merged in chunk order. The value is fixed —
/// it must not depend on the thread count, or determinism across thread
/// counts would be lost.
pub const CHUNK_SAMPLES: u64 = 8;

/// Hard cap on the samples of a single wave (bounds the memory for chunk
/// results and forked states).
const MAX_WAVE_SAMPLES: u64 = 4096;

/// Derives the seed of one sample's private RNG from the run's root seed and
/// the sample's global index.
///
/// The mixing is a SplitMix64 finalizer over the pair, so neighbouring
/// indices produce uncorrelated streams. The function is pure: the same
/// `(root_seed, index)` always yields the same seed, which is the foundation
/// of the driver's determinism.
///
/// ```
/// use lbs_core::driver::sample_seed;
/// assert_eq!(sample_seed(42, 7), sample_seed(42, 7));
/// assert_ne!(sample_seed(42, 7), sample_seed(42, 8));
/// assert_ne!(sample_seed(42, 7), sample_seed(43, 7));
/// ```
pub fn sample_seed(root_seed: u64, sample_index: u64) -> u64 {
    let mut z = root_seed ^ sample_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the root seed of one stratum's child session from the stratified
/// run's root seed.
///
/// This is the *blessed* seed-derivation helper of the stratified layer:
/// every per-stratum RNG stream must descend from
/// `(root_seed, stratum_id, sample_index)` through this function and
/// [`sample_seed`], never from an ad-hoc `StdRng` construction (the
/// `stray-seed-derivation` lint enforces this). The mixing is the same
/// SplitMix64 finalizer as [`sample_seed`] under a distinct salt, so stratum
/// streams are uncorrelated with each other *and* with the unstratified
/// sample streams of the same root seed.
///
/// A single-stratum partition returns `root_seed` unchanged — a
/// `count = 1` stratified run consumes exactly the RNG stream of the
/// unstratified run, which is what makes the two bit-identical.
///
/// ```
/// use lbs_core::driver::stratum_seed;
/// assert_eq!(stratum_seed(42, 0, 1), 42);
/// assert_ne!(stratum_seed(42, 0, 4), stratum_seed(42, 1, 4));
/// assert_eq!(stratum_seed(42, 3, 4), stratum_seed(42, 3, 4));
/// ```
pub fn stratum_seed(root_seed: u64, stratum_id: u64, stratum_count: u64) -> u64 {
    if stratum_count <= 1 {
        return root_seed;
    }
    let mut z = root_seed ^ stratum_id.wrapping_mul(0xA24B_AED4_963E_E407);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one completed sample contributes to the estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SampleOutcome {
    /// Horvitz–Thompson numerator contribution of this sample.
    pub numerator: f64,
    /// Denominator contribution (used by ratio aggregates such as AVG).
    pub denominator: f64,
    /// kNN queries this sample issued, counted locally (e.g. through
    /// [`lbs_service::QueryCounter`]).
    pub queries: u64,
}

/// The merged result of a driver run.
#[derive(Clone, Debug, Default)]
pub struct DriverOutcome {
    /// Per-sample numerator contributions.
    pub numerator: RunningStats,
    /// Per-sample denominator contributions.
    pub denominator: RunningStats,
    /// Total queries issued by the completed samples.
    ///
    /// Under a *hard* service limit this can be lower than what the
    /// service's own `queries_issued()` ledger shows: queries burned by the
    /// aborted sample and by discarded later-indexed chunks are real but
    /// produced no contribution, so they are not attributed to the
    /// estimate. The service ledger stays authoritative for billing.
    pub queries: u64,
    /// One trace point per completed chunk, in index order (running
    /// estimate versus cumulative query cost).
    pub trace: Vec<TracePoint>,
    /// `true` when the run stopped because the service's hard limit was hit
    /// rather than because the soft budget was spent.
    pub exhausted: bool,
}

/// Result of one chunk of samples, produced by a worker thread.
struct ChunkResult<B> {
    chunk: u64,
    state: B,
    numerator: RunningStats,
    denominator: RunningStats,
    queries: u64,
    aborted: bool,
}

/// How far one [`SampleDriver::step`] advances a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quantum {
    /// One chunk per worker thread (a *round*), or fewer at the wave's
    /// end: the scheduling quantum of a served session.
    Round,
    /// The rest of the current wave, its chunks claimed dynamically across
    /// all workers: the batch quantum.
    Wave,
}

/// The part of a wave that is still in flight between two steps.
#[derive(Clone, Debug)]
struct WaveInFlight<B> {
    /// Samples in the wave.
    len: u64,
    /// Chunks of the wave completed (and merged) so far.
    chunks_done: u64,
    /// Queries the wave's completed chunks issued.
    queries: u64,
    /// Forked states of the completed chunks in chunk order, absorbed into
    /// the master state once the wave's last chunk is done.
    states: Vec<B>,
}

/// The resumable accumulation state of a budget-bounded sampling run.
///
/// [`SampleDriver::run`] is a thin loop over [`SampleDriver::step`];
/// everything the loop carries between steps lives here, which is what makes
/// an estimation run interruptible: snapshot the `WaveState` (plus the
/// estimator's own shared state) between any two steps — at a wave boundary
/// or between two chunk rounds of a wave — and stepping the snapshot forward
/// is bit-identical to never having stopped. The next step is a pure
/// function of this state, the root seed and the budget. `B` is the
/// per-chunk forked state; a wave in flight holds its completed chunks'
/// forks until the wave ends.
#[derive(Clone, Debug)]
pub struct WaveState<B = ()> {
    /// Merged per-sample statistics, query costs and trace so far,
    /// including the completed chunks of a wave in flight.
    pub outcome: DriverOutcome,
    /// Global index of the first sample of the wave in flight, or of the
    /// next wave.
    pub next_index: u64,
    /// Waves completed so far.
    pub waves: u64,
    /// Set once the run is over (budget spent, hard limit hit, or free
    /// samples detected); further steps are no-ops.
    pub finished: bool,
    in_flight: Option<WaveInFlight<B>>,
}

impl<B> Default for WaveState<B> {
    fn default() -> Self {
        WaveState {
            outcome: DriverOutcome::default(),
            next_index: 0,
            waves: 0,
            finished: false,
            in_flight: None,
        }
    }
}

impl<B> WaveState<B> {
    /// A fresh state at sample index 0.
    pub fn new() -> Self {
        WaveState::default()
    }

    /// `true` while a wave is in flight: the last step ended between two
    /// chunk rounds rather than at a wave boundary.
    pub fn in_wave(&self) -> bool {
        self.in_flight.is_some()
    }
}

/// Fans estimator samples out across scoped worker threads.
///
/// See the [module documentation](self) for the determinism contract. The
/// driver is cheap to construct and stateless between runs; thread count is
/// its only knob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleDriver {
    threads: usize,
}

impl Default for SampleDriver {
    fn default() -> Self {
        SampleDriver::serial()
    }
}

impl SampleDriver {
    /// A driver that runs every sample on one worker thread.
    ///
    /// Results are bit-identical to any other thread count; this is the
    /// baseline the determinism tests compare against.
    pub fn serial() -> Self {
        SampleDriver { threads: 1 }
    }

    /// A driver with the given number of worker threads.
    ///
    /// `0` means "use [`std::thread::available_parallelism`]".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        SampleDriver { threads }
    }

    /// The number of worker threads the driver fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs budget-bounded sampling and merges the results.
    ///
    /// * `query_budget` — soft budget; the driver stops scheduling new waves
    ///   once the completed samples have spent it (the wave in flight is
    ///   allowed to finish, so the actual cost can exceed the budget).
    /// * `root_seed` — root of the per-sample seed derivation.
    /// * `is_ratio` — whether trace points report `num/den` instead of the
    ///   numerator mean.
    /// * `master` — shared estimator state (e.g. the LR history); workers
    ///   never touch it directly.
    /// * `fork` — clones a private per-chunk state off the master.
    /// * `sample` — runs one sample: gets the chunk state, the global sample
    ///   index and the sample's private RNG. An `Err` means the sample could
    ///   not complete (hard service limit); the driver then stops.
    /// * `absorb` — merges the per-chunk states back into the master at each
    ///   wave boundary, in chunk order.
    #[allow(clippy::too_many_arguments)] // the estimator-facing facade; each argument is one role
    pub fn run<St, B, G, F, A>(
        &self,
        query_budget: u64,
        root_seed: u64,
        is_ratio: bool,
        master: &mut St,
        fork: G,
        sample: F,
        absorb: A,
    ) -> DriverOutcome
    where
        St: Sync,
        B: Send,
        G: Fn(&St) -> B + Sync,
        F: Fn(&mut B, u64, &mut StdRng) -> Result<SampleOutcome, QueryError> + Sync,
        A: Fn(&mut St, Vec<B>),
    {
        let mut state = WaveState::new();
        while !state.finished {
            self.step(
                Quantum::Wave,
                query_budget,
                root_seed,
                is_ratio,
                None,
                &mut state,
                master,
                &fork,
                &sample,
                &absorb,
            );
        }
        state.outcome
    }

    /// Advances a resumable run by one [`Quantum`] (or marks it finished).
    ///
    /// This is the loop body of [`SampleDriver::run`], exposed so that a
    /// [`crate::session::EstimationSession`] can interleave steps of many
    /// concurrent runs, snapshot the [`WaveState`] between them, and resume
    /// later with bit-identical results. A step that starts at a wave
    /// boundary first sizes the next wave; every step then runs chunks of
    /// that wave — one per worker for [`Quantum::Round`], all that remain
    /// for [`Quantum::Wave`] — and merges them in chunk order. The step that
    /// completes a wave absorbs its forked states and applies the budget
    /// rules, so the wave sizes, and with them every estimate, do not depend
    /// on the quantum.
    ///
    /// `wave_override` replaces the adaptive wave sizing with a fixed number
    /// of samples per wave (the scenario `[session] wave_size` knob); `None`
    /// keeps the sizing the batch path uses, so a `None` session is
    /// byte-identical to [`SampleDriver::run`].
    #[allow(clippy::too_many_arguments)] // the estimator-facing loop body; each argument is one role
    pub fn step<St, B, G, F, A>(
        &self,
        quantum: Quantum,
        query_budget: u64,
        root_seed: u64,
        is_ratio: bool,
        wave_override: Option<u64>,
        state: &mut WaveState<B>,
        master: &mut St,
        fork: &G,
        sample: &F,
        absorb: &A,
    ) where
        St: Sync,
        B: Send,
        G: Fn(&St) -> B + Sync,
        F: Fn(&mut B, u64, &mut StdRng) -> Result<SampleOutcome, QueryError> + Sync,
        A: Fn(&mut St, Vec<B>),
    {
        if state.finished {
            return;
        }
        let mut wave = match state.in_flight.take() {
            Some(wave) => wave,
            None => {
                if state.outcome.queries >= query_budget {
                    state.finished = true;
                    return;
                }
                let len = match wave_override {
                    Some(w) => w.clamp(1, MAX_WAVE_SAMPLES),
                    None => Self::wave_size(query_budget, state.outcome.queries, state.next_index),
                };
                WaveInFlight {
                    len,
                    chunks_done: 0,
                    queries: 0,
                    states: Vec::with_capacity(len.div_ceil(CHUNK_SAMPLES) as usize),
                }
            }
        };
        let n_chunks = wave.len.div_ceil(CHUNK_SAMPLES);
        let claim = match quantum {
            Quantum::Round => (n_chunks - wave.chunks_done).min(self.threads as u64),
            Quantum::Wave => n_chunks - wave.chunks_done,
        };
        let chunks = self.run_chunks(
            &*master,
            state.next_index,
            wave.len,
            wave.chunks_done..wave.chunks_done + claim,
            root_seed,
            fork,
            sample,
        );
        wave.chunks_done += claim;

        let outcome = &mut state.outcome;
        let mut aborted = false;
        for chunk in chunks {
            outcome.numerator.merge(&chunk.numerator);
            outcome.denominator.merge(&chunk.denominator);
            outcome.queries += chunk.queries;
            wave.queries += chunk.queries;
            aborted |= chunk.aborted;
            wave.states.push(chunk.state);
            // One trace point per chunk keeps the convergence trace
            // (paper Figure 12) fine-grained even though budget checks
            // only happen at wave boundaries.
            if chunk.numerator.count() > 0 {
                let estimate = if is_ratio {
                    if outcome.denominator.mean().abs() > f64::EPSILON {
                        outcome.numerator.mean() / outcome.denominator.mean()
                    } else {
                        0.0
                    }
                } else {
                    outcome.numerator.mean()
                };
                outcome.trace.push(TracePoint {
                    query_cost: outcome.queries,
                    estimate,
                });
            }
        }
        if !aborted && wave.chunks_done < n_chunks {
            state.in_flight = Some(wave);
            return;
        }

        state.next_index += wave.len;
        state.waves += 1;
        absorb(master, wave.states);
        if aborted {
            outcome.exhausted = true;
            state.finished = true;
        } else if wave.queries == 0 {
            // No sample issued a query: the service answers for free and
            // the soft budget can never be spent. Bail out rather than
            // loop forever.
            state.finished = true;
        } else if outcome.queries >= query_budget {
            state.finished = true;
        }
    }

    /// Deterministic wave sizing: a function of the budget and of the costs
    /// observed so far only — never of thread count or timing.
    fn wave_size(query_budget: u64, spent: u64, samples_so_far: u64) -> u64 {
        if samples_so_far == 0 {
            // No cost information yet: open with a small probing wave that
            // still gives every worker a chunk at common thread counts.
            (query_budget / 64).clamp(CHUNK_SAMPLES, 8 * CHUNK_SAMPLES)
        } else {
            let per_sample = (spent as f64 / samples_so_far as f64).max(1.0);
            let remaining = query_budget.saturating_sub(spent);
            ((remaining as f64 / per_sample).ceil() as u64).clamp(1, MAX_WAVE_SAMPLES)
        }
    }

    /// Runs the chunks `chunks` of the wave of `count` samples starting at
    /// global index `start` and returns their results sorted by chunk
    /// index, truncated after the first aborted chunk. Workers claim chunks
    /// dynamically; with one worker the chunks run inline, in order, on the
    /// calling thread.
    #[allow(clippy::too_many_arguments)] // one wave's coordinates plus the sample roles
    fn run_chunks<St, B, G, F>(
        &self,
        master: &St,
        start: u64,
        count: u64,
        chunks: Range<u64>,
        root_seed: u64,
        fork: &G,
        sample: &F,
    ) -> Vec<ChunkResult<B>>
    where
        St: Sync,
        B: Send,
        G: Fn(&St) -> B + Sync,
        F: Fn(&mut B, u64, &mut StdRng) -> Result<SampleOutcome, QueryError> + Sync,
    {
        let run_chunk = |chunk: u64| {
            let lo = start + chunk * CHUNK_SAMPLES;
            let hi = (lo + CHUNK_SAMPLES).min(start + count);
            let mut state = fork(master);
            let mut numerator = RunningStats::new();
            let mut denominator = RunningStats::new();
            let mut queries = 0u64;
            let mut aborted = false;
            for index in lo..hi {
                let mut rng = StdRng::seed_from_u64(sample_seed(root_seed, index));
                match sample(&mut state, index, &mut rng) {
                    Ok(out) => {
                        numerator.push(out.numerator);
                        denominator.push(out.denominator);
                        queries += out.queries;
                    }
                    Err(QueryError::BudgetExhausted { .. }) => {
                        aborted = true;
                        break;
                    }
                }
            }
            ChunkResult {
                chunk,
                state,
                numerator,
                denominator,
                queries,
                aborted,
            }
        };

        let n_chunks = chunks.end - chunks.start;
        let workers = self.threads.min(n_chunks as usize).max(1);
        if workers == 1 {
            let mut results = Vec::with_capacity(n_chunks as usize);
            for chunk in chunks {
                let result = run_chunk(chunk);
                let aborted = result.aborted;
                results.push(result);
                if aborted {
                    break;
                }
            }
            return results;
        }

        let cursor = AtomicU64::new(chunks.start);
        let stop = AtomicBool::new(false);
        let results: Mutex<Vec<ChunkResult<B>>> = Mutex::new(Vec::with_capacity(n_chunks as usize));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                    if chunk >= chunks.end {
                        break;
                    }
                    let result = run_chunk(chunk);
                    if result.aborted {
                        stop.store(true, Ordering::Relaxed);
                    }
                    results.lock().unwrap().push(result);
                });
            }
        });

        let mut results = results.into_inner().unwrap();
        results.sort_by_key(|c| c.chunk);
        // A hard-limit abort invalidates every later chunk: one thread stops
        // at the first failed sample, and keeping later-indexed survivors
        // would make the sample set depend on scheduling more than it has
        // to.
        if let Some(first_aborted) = results.iter().position(|c| c.aborted) {
            results.truncate(first_aborted + 1);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic fake sample: value derived from the index, cost 3.
    fn fake_sample(index: u64) -> SampleOutcome {
        SampleOutcome {
            numerator: (index as f64).sin() * 10.0,
            denominator: 1.0,
            queries: 3,
        }
    }

    fn run_fake(threads: usize, budget: u64) -> DriverOutcome {
        SampleDriver::new(threads).run(
            budget,
            99,
            false,
            &mut (),
            |_| (),
            |_, index, _| Ok(fake_sample(index)),
            |_, _| {},
        )
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let baseline = run_fake(1, 500);
        for threads in [2, 3, 8] {
            let other = run_fake(threads, 500);
            assert_eq!(baseline.numerator, other.numerator, "threads {threads}");
            assert_eq!(baseline.denominator, other.denominator);
            assert_eq!(baseline.queries, other.queries);
            assert_eq!(baseline.trace, other.trace);
        }
    }

    #[test]
    fn budget_is_filled_but_not_wildly_overshot() {
        let out = run_fake(4, 600);
        assert!(out.queries >= 600, "soft budget must be spent");
        // Every sample costs 3 queries; the driver should land within one
        // wave of the target.
        assert!(out.queries < 600 + 3 * MAX_WAVE_SAMPLES);
        assert_eq!(out.queries, 3 * out.numerator.count());
        assert!(!out.exhausted);
    }

    #[test]
    fn zero_cost_samples_terminate() {
        let out = SampleDriver::serial().run(
            100,
            1,
            false,
            &mut (),
            |_| (),
            |_, _, _| {
                Ok(SampleOutcome {
                    numerator: 1.0,
                    denominator: 1.0,
                    queries: 0,
                })
            },
            |_, _| {},
        );
        assert!(out.numerator.count() > 0);
        assert!(!out.exhausted);
    }

    #[test]
    fn abort_truncates_later_chunks_and_reports_exhaustion() {
        // Samples past index 20 fail; everything from index 20 on must be
        // dropped regardless of thread count.
        let run = |threads: usize| {
            SampleDriver::new(threads).run(
                10_000,
                5,
                false,
                &mut (),
                |_| (),
                |_, index, _| {
                    if index >= 20 {
                        Err(QueryError::BudgetExhausted {
                            issued: 60,
                            limit: 60,
                        })
                    } else {
                        Ok(fake_sample(index))
                    }
                },
                |_, _| {},
            )
        };
        let serial = run(1);
        assert!(serial.exhausted);
        assert_eq!(serial.numerator.count(), 20);
        let parallel = run(8);
        assert!(parallel.exhausted);
        // Chunks after the first aborted one are discarded, so no sample at
        // index >= 20 can ever contribute; with the abort landing exactly on
        // a chunk boundary the counts agree bitwise too.
        assert_eq!(parallel.numerator, serial.numerator);
    }

    #[test]
    fn absorb_sees_states_in_chunk_order() {
        // Each chunk state records the first index it served; absorb must
        // receive them ordered even with many threads racing.
        let mut collected: Vec<u64> = Vec::new();
        SampleDriver::new(8).run(
            240,
            3,
            false,
            &mut collected,
            |_| u64::MAX,
            |state, index, _| {
                if *state == u64::MAX {
                    *state = index;
                }
                Ok(fake_sample(index))
            },
            |acc, states| acc.extend(states),
        );
        let mut sorted = collected.clone();
        sorted.sort_unstable();
        assert_eq!(collected, sorted, "chunk states must arrive in index order");
        assert!(!collected.is_empty());
    }

    /// A fake sample that records the first index its chunk served in the
    /// chunk state and fails from index `fail_from` on (a hard limit).
    fn recording_sample(
        fail_from: u64,
    ) -> impl Fn(&mut u64, u64, &mut StdRng) -> Result<SampleOutcome, QueryError> + Sync {
        move |first, index, _| {
            if index >= fail_from {
                return Err(QueryError::BudgetExhausted {
                    issued: 3 * fail_from,
                    limit: 3 * fail_from,
                });
            }
            if *first == u64::MAX {
                *first = index;
            }
            Ok(fake_sample(index))
        }
    }

    #[test]
    fn round_stepping_equals_run_bitwise() {
        // (budget, fail_from): a plain run whose later waves span many
        // chunks, and a hard-limit abort inside chunk 2 of the 8-chunk
        // opening wave.
        for (budget, fail_from) in [(500, u64::MAX), (10_000, 20)] {
            for threads in [1, 2, 3, 8] {
                let driver = SampleDriver::new(threads);
                let fork = |_: &Vec<u64>| u64::MAX;
                let sample = recording_sample(fail_from);
                let absorb = |absorbed: &mut Vec<u64>, states: Vec<u64>| absorbed.extend(states);
                let mut run_absorbed = Vec::new();
                let expected =
                    driver.run(budget, 99, false, &mut run_absorbed, fork, &sample, absorb);

                let mut absorbed = Vec::new();
                let mut state = WaveState::new();
                let mut mid_wave_steps = 0;
                while !state.finished {
                    let (waves, samples) = (state.waves, state.outcome.numerator.count());
                    driver.step(
                        Quantum::Round,
                        budget,
                        99,
                        false,
                        None,
                        &mut state,
                        &mut absorbed,
                        &fork,
                        &sample,
                        &absorb,
                    );
                    let grown = state.outcome.numerator.count() - samples;
                    assert!(
                        grown <= threads as u64 * CHUNK_SAMPLES,
                        "one chunk per worker"
                    );
                    if state.in_wave() {
                        mid_wave_steps += 1;
                        assert_eq!(state.waves, waves, "a wave counts once it is done");
                    }
                }
                let case = format!("threads {threads}, budget {budget}, fail_from {fail_from}");
                // The abort lands in chunk 2, so only 1 and 2 workers leave
                // the opening wave between rounds before it.
                if fail_from == u64::MAX || threads < 3 {
                    assert!(mid_wave_steps > 0, "{case}: no round ended inside a wave");
                }
                assert_eq!(state.outcome.numerator, expected.numerator, "{case}");
                assert_eq!(state.outcome.denominator, expected.denominator, "{case}");
                assert_eq!(state.outcome.queries, expected.queries, "{case}");
                assert_eq!(state.outcome.trace, expected.trace, "{case}");
                assert_eq!(state.outcome.exhausted, expected.exhausted, "{case}");
                assert_eq!(absorbed, run_absorbed, "{case}: absorb order");
                if fail_from != u64::MAX {
                    assert!(state.outcome.exhausted);
                    assert_eq!(state.outcome.numerator.count(), fail_from, "{case}");
                    assert_eq!(state.waves, 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn trace_costs_are_monotone() {
        let out = run_fake(4, 2_000);
        assert!(!out.trace.is_empty());
        for window in out.trace.windows(2) {
            assert!(window[0].query_cost < window[1].query_cost);
        }
    }

    #[test]
    fn sample_seed_is_stable_and_spreads() {
        // Pin a few values so the derivation can never silently change — a
        // change would alter every reproduced number in the repository.
        assert_eq!(sample_seed(0, 0), 0);
        // lbs-lint: allow(hashmap-iter, reason = "test-only set; only its size is read, never its order")
        let mut seen = std::collections::HashSet::new();
        for root in 0..8u64 {
            for index in 0..64u64 {
                seen.insert(sample_seed(root, index));
            }
        }
        assert_eq!(seen.len(), 8 * 64, "seed collisions in a tiny grid");
    }
}
