//! Machine-readable run reports (`BENCH_repro.json`).
//!
//! Every `repro` invocation writes one [`BenchReport`] next to its CSV
//! output: per-experiment wall time, the deepest query cost exercised, the
//! mean relative error, and — when `--threads` asks for more than one worker
//! — a serial-versus-parallel speedup probe with a determinism check. The
//! file is the machine-readable trajectory of the reproduction: successive
//! runs can be diffed to spot performance or accuracy regressions.
//!
//! `EXPERIMENTS.md` at the repository root documents every field.

use serde::{Deserialize, Serialize};

use lbs_core::{Aggregate, EngineReport, LrLbsAgg, LrLbsAggConfig, SessionConfig};
use lbs_service::{ServiceConfig, SimulatedLbs};

use crate::result::ExperimentResult;
use crate::scale::Scale;

/// Summary of one experiment run, as recorded in `BENCH_repro.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Experiment identifier (`fig11` … `table1`).
    pub id: String,
    /// Human-readable title (matches the paper artefact).
    pub title: String,
    /// Wall-clock seconds the experiment took.
    pub wall_time_s: f64,
    /// Number of result rows produced.
    pub rows: usize,
    /// Deepest query cost reported by any row
    /// ([`ExperimentResult::max_reported_cost`]); `None` for experiments
    /// without a cost axis.
    pub max_query_cost: Option<u64>,
    /// Mean of the reported relative errors
    /// ([`ExperimentResult::mean_reported_rel_error`]); `None` for
    /// experiments without an error axis.
    pub mean_rel_error: Option<f64>,
    /// Cell-engine counters summed over the experiment's estimator runs.
    pub engine: Option<EngineReport>,
    /// Cell-cache hit rate over all lookups, if any estimator ran.
    pub cache_hit_rate: Option<f64>,
    /// Mean incorporated candidates (clips) per constructed cell.
    pub mean_clips_per_cell: Option<f64>,
}

impl BenchRecord {
    /// Builds a record from a finished experiment and its measured wall
    /// time.
    pub fn from_result(result: &ExperimentResult, wall_time_s: f64) -> Self {
        BenchRecord {
            id: result.id.clone(),
            title: result.title.clone(),
            wall_time_s,
            rows: result.rows.len(),
            max_query_cost: result.max_reported_cost(),
            mean_rel_error: result.mean_reported_rel_error(),
            engine: result.engine,
            cache_hit_rate: result.engine.as_ref().and_then(|e| e.cache_hit_rate()),
            mean_clips_per_cell: result.engine.as_ref().and_then(|e| e.mean_clips_per_cell()),
        }
    }
}

/// Serial-versus-parallel probe of the sample driver.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpeedupReport {
    /// What was measured (a COUNT estimation over the experiment dataset).
    pub probe: String,
    /// Worker threads of the parallel run.
    pub threads: usize,
    /// Query budget of each run.
    pub query_budget: u64,
    /// Wall-clock seconds with 1 worker thread.
    pub serial_wall_s: f64,
    /// Wall-clock seconds with `threads` worker threads.
    pub parallel_wall_s: f64,
    /// `serial_wall_s / parallel_wall_s`.
    pub speedup: f64,
    /// `true` when the serial and parallel runs produced bit-identical
    /// estimates and confidence intervals (they must, by the driver's
    /// determinism contract).
    pub deterministic: bool,
    /// CPUs the OS reported as available (speedups are bounded by this).
    pub available_parallelism: usize,
}

/// Throughput and determinism probe of the multi-tenant serving layer
/// (`lbs-server`): a fixed bundle of small estimation jobs run through the
/// scheduler, once in submission order and once shuffled, with
/// the per-job estimates compared bitwise.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionBenchReport {
    /// Jobs in the probe bundle.
    pub jobs: usize,
    /// Wall-clock seconds of the in-order run (`run_until_idle`).
    pub wall_s: f64,
    /// Jobs completed per second of the in-order run.
    pub jobs_per_s: f64,
    /// Mean milliseconds from submission to the first anytime estimate
    /// (first snapshot with at least one completed sample).
    pub mean_time_to_first_estimate_ms: f64,
    /// Scheduler ticks (chunk rounds) the in-order run served.
    pub ticks: u64,
    /// `true` when the shuffled-submission run reproduced every estimate
    /// bit for bit (the scheduler's determinism contract).
    pub deterministic: bool,
}

/// Shared answer-cache probe of the serving layer: one small `cache =
/// "shared"` scenario submitted twice (under two tenants) through the
/// scheduler, with the replayed job's estimate compared bitwise against the
/// first and the cache counters recorded.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheBenchReport {
    /// Cache hits across both submissions (the replay must produce > 0).
    pub hits: u64,
    /// Cache misses — with single-flight population, the number of distinct
    /// keys the probe touched.
    pub misses: u64,
    /// Entries dropped by dataset-version migrations.
    pub invalidations: u64,
    /// Entries dropped by the capacity bound.
    pub evictions: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
    /// `true` when the second submission — served from the warm shared
    /// cache under a different tenant — reproduced the first estimate bit
    /// for bit (value, confidence interval, samples, query cost).
    pub deterministic: bool,
}

/// Concurrent-load probe of the event-driven serving layer: N keep-alive
/// clients hammer a loopback server with job submissions (retrying on
/// `429` backpressure), and every admitted job's served result is compared
/// bitwise against a local batch run of the same scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadtestBenchReport {
    /// Concurrent client threads.
    pub clients: usize,
    /// Jobs each client submits.
    pub jobs_per_client: usize,
    /// Jobs admitted and completed (must equal `clients × jobs_per_client`).
    pub completed_jobs: usize,
    /// Jobs that were never admitted or never finished (must be 0 — `429`s
    /// are retried, so backpressure never drops work).
    pub dropped_jobs: usize,
    /// Wall-clock seconds of the whole run.
    pub wall_s: f64,
    /// Completed jobs per second.
    pub jobs_per_s: f64,
    /// Median submit→first-estimate latency (ms): from the first submission
    /// attempt to the first poll whose snapshot has ≥ 1 completed sample.
    pub p50_first_estimate_ms: f64,
    /// 95th-percentile submit→first-estimate latency (ms).
    pub p95_first_estimate_ms: f64,
    /// 99th-percentile submit→first-estimate latency (ms).
    pub p99_first_estimate_ms: f64,
    /// HTTP requests issued across all clients.
    pub http_requests: u64,
    /// TCP connections the clients opened.
    pub connections: u64,
    /// `1 − connections / http_requests`: fraction of requests that reused
    /// a pooled keep-alive connection.
    pub keep_alive_reuse: f64,
    /// `429`s from the bounded submission queue (clients retried them all).
    pub queue_429: u64,
    /// `429`s from tenant-quota saturation.
    pub quota_429: u64,
    /// The server's submission-queue bound during the run.
    pub queue_depth: usize,
    /// Deepest the server's submission queue got. `429`s are legitimate
    /// only if this reached `queue_depth`.
    pub queue_high_water: usize,
    /// Whether the run verified served results against local batch runs.
    pub check_batch: bool,
    /// `true` when every served result matched its batch twin bitwise
    /// (meaningless unless `check_batch`).
    pub batch_identical: bool,
}

/// Stratified-estimation probe: one COUNT estimation over a Zipf-hotspot
/// dataset run twice at equal budget — once unstratified, once through the
/// stratified Horvitz–Thompson combiner over a density partition — plus a
/// 1-thread-versus-N-thread bitwise determinism check of the stratified
/// run. The headline number is `variance_ratio`: stratification must not
/// inflate the variance of the estimate it buys with the same budget.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StratifiedBenchReport {
    /// What was measured.
    pub probe: String,
    /// Partitioner of the probe (`density`).
    pub partition: String,
    /// Number of strata.
    pub count: u64,
    /// Allocation policy (`proportional` or `neyman`).
    pub allocation: String,
    /// Query budget of each run (equal for both designs).
    pub budget: u64,
    /// Standard error of the stratified estimate.
    pub stratified_std_error: f64,
    /// Standard error of the unstratified estimate at the same budget.
    pub unstratified_std_error: f64,
    /// `(stratified_std_error / unstratified_std_error)²` — below 1.0 means
    /// stratification reduced the variance.
    pub variance_ratio: f64,
    /// `true` when the 1-thread and N-thread stratified runs produced
    /// bit-identical estimates (the combiner's determinism contract).
    pub deterministic: bool,
}

impl StratifiedBenchReport {
    /// The gate conditions of the stratified block: the thread-count
    /// determinism check must hold, and the variance ratio must be a
    /// positive finite number below 1.0 (stratification that *costs*
    /// accuracy at equal budget is a regression).
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if !self.deterministic {
            violations.push(
                "stratified probe: 1-thread and N-thread runs differ bitwise — \
                 determinism regression in the stratified combiner"
                    .to_string(),
            );
        }
        if !self.variance_ratio.is_finite() || self.variance_ratio <= 0.0 {
            violations.push(format!(
                "stratified probe: variance ratio {} is not a positive finite number",
                self.variance_ratio
            ));
        } else if self.variance_ratio >= 1.0 {
            violations.push(format!(
                "stratified probe: variance ratio {:.3} >= 1.0 — stratification \
                 increased the variance at equal budget",
                self.variance_ratio
            ));
        }
        violations
    }
}

/// Hot-path allocation smoke probe (`repro --alloc-smoke`).
///
/// Builds the same batch of pruned top-k cells twice through
/// [`lbs_geom::top_k_cell_pruned_with`] — once with a fresh
/// [`lbs_geom::ClipScratch`] arena per cell (cold), once with a single arena
/// reused across the batch (warm, measured after one unrecorded warm-up
/// pass) — and counts global-allocator round-trips in each phase. Warm
/// builds must allocate nothing beyond the returned cell's own storage;
/// [`HOT_PATH_ALLOC_BUDGET`] is the committed ceiling.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HotPathBenchReport {
    /// What was measured.
    pub probe: String,
    /// Cells built per phase.
    pub cells: u64,
    /// `true` when a counting global allocator was observed (a canary
    /// allocation advanced the counter); `false` means the probe ran in a
    /// binary without one and the numbers are all zero.
    pub counted: bool,
    /// Allocations per cell with a fresh arena per build.
    pub cold_allocs_per_cell: f64,
    /// Allocations per cell with one arena reused across the batch
    /// (steady state — this is the gated number).
    pub warm_allocs_per_cell: f64,
    /// The committed ceiling the warm number is gated against.
    pub budget_allocs_per_cell: f64,
}

/// Committed steady-state ceiling for [`HotPathBenchReport`]: allocations
/// per warm-arena cell build. The floor is the returned `TopKCell`'s own
/// storage — allocations that escape the call and cannot be pooled —
/// measured at exactly 1.0 per top-2 cell (against 6.0 cold, where every
/// build also pays the arena's own growth). The headroom up to 4 covers
/// richer results (deeper k carries a larger vertex vector and a convex
/// hull). Everything the scratch arena is supposed to absorb (clip
/// buffers, bisector lists, breakpoint vectors) sits *on top* of this
/// number, so a leak of even one per-build buffer trips the gate.
pub const HOT_PATH_ALLOC_BUDGET: f64 = 4.0;

impl HotPathBenchReport {
    /// The gate conditions of the alloc-smoke block: the counting allocator
    /// must actually have been observed, and the warm (steady-state)
    /// allocations per cell must stay within the committed budget.
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if !self.counted {
            violations.push(
                "alloc-smoke probe: no counting allocator observed — the probe \
                 must run inside the repro binary, which installs one"
                    .to_string(),
            );
            return violations;
        }
        if self.warm_allocs_per_cell > self.budget_allocs_per_cell {
            violations.push(format!(
                "alloc-smoke probe: {:.2} allocations per warm-arena cell build \
                 exceeds the committed budget {:.2} — a per-build allocation \
                 crept back into the hot path",
                self.warm_allocs_per_cell, self.budget_allocs_per_cell
            ));
        }
        if self.warm_allocs_per_cell > self.cold_allocs_per_cell {
            violations.push(format!(
                "alloc-smoke probe: warm builds allocate more than cold builds \
                 ({:.2} > {:.2} per cell) — the scratch arena is not being reused",
                self.warm_allocs_per_cell, self.cold_allocs_per_cell
            ));
        }
        violations
    }
}

/// Runs the hot-path allocation smoke probe. `alloc_count` reads the
/// process-wide allocation counter (the repro binary passes its counting
/// `#[global_allocator]`'s count; a plain test binary can pass a constant
/// closure and will get `counted: false` back).
pub fn run_hot_path_probe(
    scale: Scale,
    seed: u64,
    alloc_count: &dyn Fn() -> u64,
) -> HotPathBenchReport {
    use lbs_geom::{sort_by_distance, top_k_cell_pruned_with, ClipScratch, Point};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Canary: prove the counter actually moves when the heap is used.
    let before_canary = alloc_count();
    let canary = std::hint::black_box(vec![0u8; 64]);
    let counted = alloc_count() > before_canary;
    drop(canary);

    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = lbs_data::ScenarioBuilder::usa_pois(scale.poi_count()).build(&mut rng);
    let region = dataset.bbox();
    let points: Vec<Point> = dataset.tuples().iter().map(|t| t.location).collect();

    let cells = 200usize.min(points.len());
    let neighbor_limit = 64usize;
    // Per-site ascending candidate lists, prepared outside the measured
    // phases so only the construction itself is counted.
    let site_views: Vec<(Point, Vec<Point>)> = points[..cells]
        .iter()
        .map(|site| {
            let mut others: Vec<Point> = points
                .iter()
                .copied()
                .filter(|p| !p.approx_eq(site))
                .collect();
            sort_by_distance(site, &mut others);
            others.truncate(neighbor_limit);
            (*site, others)
        })
        .collect();

    let build_all = |scratch_per_cell: bool, scratch: &mut ClipScratch| {
        let mut area_sum = 0.0;
        for (site, others) in &site_views {
            let mut fresh = ClipScratch::new();
            let arena = if scratch_per_cell {
                &mut fresh
            } else {
                &mut *scratch
            };
            let (cell, _) = top_k_cell_pruned_with(arena, site, others, 2, &region, true);
            area_sum += cell.area;
        }
        std::hint::black_box(area_sum)
    };

    let mut scratch = ClipScratch::new();
    // Cold phase: a fresh arena per cell pays the arena's own growth every
    // build.
    let cold_before = alloc_count();
    build_all(true, &mut scratch);
    let cold_allocs = alloc_count() - cold_before;
    // Warm-up pass: grow the shared arena to steady-state capacity off the
    // record, then measure the warm phase.
    build_all(false, &mut scratch);
    let warm_before = alloc_count();
    build_all(false, &mut scratch);
    let warm_allocs = alloc_count() - warm_before;

    HotPathBenchReport {
        probe: format!(
            "{cells} pruned top-2 cells over the USA dataset, {neighbor_limit} candidates each"
        ),
        cells: cells as u64,
        counted,
        cold_allocs_per_cell: cold_allocs as f64 / cells.max(1) as f64,
        warm_allocs_per_cell: warm_allocs as f64 / cells.max(1) as f64,
        budget_allocs_per_cell: HOT_PATH_ALLOC_BUDGET,
    }
}

impl LoadtestBenchReport {
    /// The gate conditions of the loadtest block (shared between
    /// [`gate_against`] and the `repro loadtest` exit code):
    ///
    /// * no dropped jobs — backpressure must never lose admitted work,
    /// * `429`s only after the queue actually filled (high-water at the
    ///   bound), and
    /// * when batch checking ran, bitwise equality of served vs batch.
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.dropped_jobs > 0 {
            violations.push(format!(
                "loadtest probe: {} jobs dropped under concurrent load — \
                 backpressure must retry, never lose work",
                self.dropped_jobs
            ));
        }
        if self.queue_429 > 0 && self.queue_high_water < self.queue_depth {
            violations.push(format!(
                "loadtest probe: {} queue 429s but high-water {} never reached \
                 the bound {} — premature backpressure",
                self.queue_429, self.queue_high_water, self.queue_depth
            ));
        }
        if self.check_batch && !self.batch_identical {
            violations.push(
                "loadtest probe: a served result differed bitwise from its local \
                 batch run — determinism regression under concurrent load"
                    .to_string(),
            );
        }
        violations
    }
}

/// The complete content of `BENCH_repro.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Format version of this file.
    pub schema_version: u32,
    /// Scale preset the run used.
    pub scale: Scale,
    /// Root seed of the run.
    pub seed: u64,
    /// Worker threads of the run.
    pub threads: usize,
    /// Per-experiment summaries, in run order.
    pub experiments: Vec<BenchRecord>,
    /// Present when the run was asked for more than one thread.
    pub speedup: Option<SpeedupReport>,
    /// Session-throughput probe of the serving layer (absent in reports
    /// written before the serving layer existed, and in scenario-mode runs).
    pub sessions: Option<SessionBenchReport>,
    /// Shared answer-cache probe of the serving layer (absent in reports
    /// written before the cache existed, and in scenario-mode runs).
    pub cache: Option<CacheBenchReport>,
    /// Concurrent-load probe of the event-driven serving layer (absent in
    /// reports written before the event loop existed, and in scenario-mode
    /// runs).
    pub loadtest: Option<LoadtestBenchReport>,
    /// Stratified-estimation probe (absent in reports written before the
    /// stratified combiner existed, and in scenario-mode runs).
    pub stratified: Option<StratifiedBenchReport>,
    /// Hot-path allocation smoke probe (present only when the run was asked
    /// for `--alloc-smoke`).
    pub hot_path: Option<HotPathBenchReport>,
}

impl BenchReport {
    /// Creates an empty report shell.
    pub fn new(scale: Scale, seed: u64, threads: usize) -> Self {
        BenchReport {
            schema_version: 1,
            scale,
            seed,
            threads,
            experiments: Vec::new(),
            speedup: None,
            sessions: None,
            cache: None,
            loadtest: None,
            stratified: None,
            hot_path: None,
        }
    }

    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// Relative-error headroom of [`gate_against`]: the fresh error may exceed
/// the reference by half of itself plus this absolute slack before the gate
/// trips (seeded runs are deterministic, but legitimate numeric changes —
/// e.g. a different clip order — shift low-sample errors a little).
pub const GATE_REL_ERROR_FACTOR: f64 = 1.5;
/// Absolute relative-error slack of [`gate_against`].
pub const GATE_REL_ERROR_SLACK: f64 = 0.08;
/// Query-cost headroom factor of [`gate_against`].
pub const GATE_COST_FACTOR: f64 = 1.15;
/// Absolute query-cost slack of [`gate_against`].
pub const GATE_COST_SLACK: u64 = 50;

/// Compares a fresh `BENCH_repro.json` against a committed reference and
/// returns the list of regressions (empty = gate passes).
///
/// Checks, per experiment present in the reference:
///
/// * the mean relative error must stay within
///   `ref × GATE_REL_ERROR_FACTOR + GATE_REL_ERROR_SLACK`,
/// * the deepest query cost must stay within
///   `ref × GATE_COST_FACTOR + GATE_COST_SLACK`,
///
/// plus, when the fresh run carried a speedup probe, its determinism check
/// must have passed. Wall times are machine-dependent and deliberately not
/// gated; the bench-regression CI job uploads the fresh JSON as an artifact
/// so they can be eyeballed.
pub fn gate_against(fresh: &BenchReport, reference: &BenchReport) -> Vec<String> {
    let mut violations = Vec::new();
    if fresh.scale != reference.scale {
        // lbs-lint: allow(nondet-debug-fmt, reason = "Scale is a fieldless enum; Debug prints a fixed variant name")
        violations.push(format!(
            "scale mismatch: fresh {:?} vs reference {:?} — not comparable",
            fresh.scale, reference.scale
        ));
        return violations;
    }
    if fresh.seed != reference.seed {
        violations.push(format!(
            "seed mismatch: fresh {} vs reference {} — not comparable",
            fresh.seed, reference.seed
        ));
        return violations;
    }
    for reference_record in &reference.experiments {
        let Some(record) = fresh
            .experiments
            .iter()
            .find(|r| r.id == reference_record.id)
        else {
            violations.push(format!(
                "experiment {} missing from fresh run",
                reference_record.id
            ));
            continue;
        };
        match (record.mean_rel_error, reference_record.mean_rel_error) {
            (Some(fresh_err), Some(ref_err)) => {
                // A zero or non-finite reference (e.g. a scenario whose mean
                // relative error is exactly 0) makes the multiplicative
                // headroom meaningless; fall back to the absolute slack
                // alone instead of comparing against a 0/NaN/inf bound.
                let bound = if ref_err.is_finite() && ref_err > 0.0 {
                    ref_err * GATE_REL_ERROR_FACTOR + GATE_REL_ERROR_SLACK
                } else {
                    GATE_REL_ERROR_SLACK
                };
                // `NaN > bound` is false, so a NaN fresh metric would slip
                // through a plain comparison; treat it as a regression.
                if !fresh_err.is_finite() {
                    violations.push(format!(
                        "{}: mean relative error is not finite ({fresh_err}) — reference {ref_err:.3}",
                        record.id
                    ));
                } else if fresh_err > bound {
                    violations.push(format!(
                        "{}: mean relative error regressed: {fresh_err:.3} > bound {bound:.3} (reference {ref_err:.3})",
                        record.id
                    ));
                }
            }
            // A metric the reference has but the fresh run lost (e.g. every
            // estimate went non-finite) is itself a regression, not a pass.
            (None, Some(ref_err)) => violations.push(format!(
                "{}: mean relative error missing from fresh run (reference {ref_err:.3})",
                record.id
            )),
            _ => {}
        }
        match (record.max_query_cost, reference_record.max_query_cost) {
            (Some(fresh_cost), Some(ref_cost)) => {
                let bound = (ref_cost as f64 * GATE_COST_FACTOR) as u64 + GATE_COST_SLACK;
                if fresh_cost > bound {
                    violations.push(format!(
                        "{}: max query cost regressed: {fresh_cost} > bound {bound} (reference {ref_cost})",
                        record.id
                    ));
                }
            }
            (None, Some(ref_cost)) => violations.push(format!(
                "{}: max query cost missing from fresh run (reference {ref_cost})",
                record.id
            )),
            _ => {}
        }
    }
    if let Some(probe) = &fresh.speedup {
        if !probe.deterministic {
            violations.push(
                "speedup probe: serial and parallel estimates differ — determinism regression"
                    .to_string(),
            );
        }
    }
    if let Some(sessions) = &fresh.sessions {
        if !sessions.deterministic {
            violations.push(
                "session probe: shuffled-submission scheduler run produced different \
                 estimates — determinism regression"
                    .to_string(),
            );
        }
    }
    if let Some(cache) = &fresh.cache {
        if !cache.deterministic {
            violations.push(
                "cache probe: replaying a submission through the warm shared cache \
                 changed its estimate — determinism regression"
                    .to_string(),
            );
        }
        if cache.hits == 0 {
            violations.push(
                "cache probe: replaying a submission produced zero cache hits — the \
                 shared answer cache is not serving"
                    .to_string(),
            );
        }
    }
    if let Some(loadtest) = &fresh.loadtest {
        violations.extend(loadtest.violations());
    }
    if let Some(stratified) = &fresh.stratified {
        violations.extend(stratified.violations());
    }
    if let Some(hot_path) = &fresh.hot_path {
        violations.extend(hot_path.violations());
    }
    violations
}

/// Runs the serial-versus-parallel speedup probe: one COUNT estimation over
/// the standard experiment dataset, once with 1 worker and once with
/// `threads` workers, verifying that the two estimates are bit-identical.
///
/// The probe is the parallel-scaling acceptance check of the sample driver;
/// `repro --threads N` (N > 1) runs it automatically and records the result
/// in `BENCH_repro.json`. Speedups are bounded by
/// `available_parallelism` — on a single-core machine the expected value
/// is ~1.0.
pub fn run_speedup_probe(scale: Scale, seed: u64, threads: usize) -> SpeedupReport {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = lbs_data::ScenarioBuilder::usa_pois(scale.poi_count())
        .with_starbucks(scale.poi_count() / 40)
        .build(&mut rng);
    let region = dataset.bbox();
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let budget = scale.lr_budget();
    let agg = Aggregate::count_schools();

    let timed_run = |worker_threads: usize| {
        let cfg = SessionConfig::new(budget, seed).with_threads(worker_threads);
        let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
        let started = std::time::Instant::now();
        let estimate = estimator
            .run(&service, &region, &agg, cfg)
            .expect("speedup probe must produce samples");
        (started.elapsed().as_secs_f64(), estimate)
    };

    let (serial_wall_s, serial) = timed_run(1);
    let (parallel_wall_s, parallel) = timed_run(threads);

    SpeedupReport {
        probe: "LR-LBS-AGG COUNT(schools) over the fig11/fig14 USA dataset".to_string(),
        threads,
        query_budget: budget,
        serial_wall_s,
        parallel_wall_s,
        speedup: serial_wall_s / parallel_wall_s.max(1e-9),
        deterministic: serial.value == parallel.value
            && serial.ci95 == parallel.ci95
            && serial.samples == parallel.samples
            && serial.query_cost == parallel.query_cost,
        available_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs the stratified-estimation probe: a COUNT over a Zipf-hotspot
/// dataset (the spatial skew stratification exists for), estimated once
/// unstratified and once through a density-partitioned
/// [`lbs_core::StratifiedSession`] at the same budget and root seed, plus a
/// 1-thread-versus-`threads`-thread bitwise determinism check of the
/// stratified run. `repro --threads N` (N > 1) runs it automatically and
/// records the result in `BENCH_repro.json`; [`gate_against`] fails the
/// gate unless the variance ratio stays below 1.0.
pub fn run_stratified_probe(scale: Scale, seed: u64, threads: usize) -> StratifiedBenchReport {
    use lbs_core::{AllocationPolicy, EstimatorKind, LrSession, SessionConfig, StratifiedSession};
    use lbs_data::{DensityGrid, Stratifier};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let dataset =
        lbs_data::ScenarioBuilder::zipf_hotspot_pois(scale.poi_count(), 8, 1.1).build(&mut rng);
    let region = dataset.bbox();
    let count = 8usize;
    let grid = DensityGrid::from_dataset(&dataset, count.saturating_mul(4).max(32), 1, 0.1);
    let strata = Stratifier::density(grid, count).strata(&region);
    let service = SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(10));
    let budget = scale.lr_budget();
    let agg = Aggregate::count_all();

    let run_flat = || {
        let cfg = SessionConfig::new(budget, seed);
        let mut session = LrSession::new(&service, &region, &agg, LrLbsAggConfig::default(), cfg);
        while !session.is_finished() {
            session.run_wave();
        }
        session
            .finalize()
            .expect("flat probe run must produce samples")
    };
    let run_stratified = |worker_threads: usize| {
        let cfg = SessionConfig::new(budget, seed).with_threads(worker_threads);
        let mut session = StratifiedSession::new(
            &service,
            &region,
            &agg,
            EstimatorKind::Lr(LrLbsAggConfig::default()),
            strata.clone(),
            AllocationPolicy::Neyman,
            cfg,
        );
        while !session.is_finished() {
            session.run_wave();
        }
        session
            .finalize()
            .expect("stratified probe run must produce samples")
    };

    let flat = run_flat();
    let serial = run_stratified(1);
    let parallel = run_stratified(threads.max(2));
    let ratio = (serial.std_error / flat.std_error).powi(2);

    StratifiedBenchReport {
        probe: "LR-LBS-AGG COUNT over a Zipf-hotspot dataset, 8 density strata vs flat".to_string(),
        partition: "density".to_string(),
        count: count as u64,
        allocation: "neyman".to_string(),
        budget,
        stratified_std_error: serial.std_error,
        unstratified_std_error: flat.std_error,
        variance_ratio: ratio,
        deterministic: serial.value == parallel.value
            && serial.ci95 == parallel.ci95
            && serial.samples == parallel.samples
            && serial.query_cost == parallel.query_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Row;

    #[test]
    fn record_captures_result_metrics() {
        let mut result = ExperimentResult::new("fig14", "COUNT(schools)");
        result.push(
            Row::new()
                .with("budget", 600)
                .with("LR cost", 640)
                .with("LR-LBS-AGG rel err", "0.2"),
        );
        let record = BenchRecord::from_result(&result, 1.5);
        assert_eq!(record.id, "fig14");
        assert_eq!(record.rows, 1);
        assert_eq!(record.max_query_cost, Some(640));
        assert!((record.mean_rel_error.unwrap() - 0.2).abs() < 1e-12);
        assert!((record.wall_time_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new(Scale::Tiny, 2015, 4);
        report.experiments.push(BenchRecord {
            id: "fig11".into(),
            title: "Voronoi".into(),
            wall_time_s: 0.25,
            rows: 7,
            max_query_cost: None,
            mean_rel_error: None,
            engine: None,
            cache_hit_rate: None,
            mean_clips_per_cell: None,
        });
        let json = report.to_json();
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("fig11"));
        let back: BenchReport = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.experiments.len(), 1);
        assert_eq!(back.seed, 2015);
        assert!(back.speedup.is_none());
    }

    fn record(id: &str, err: Option<f64>, cost: Option<u64>) -> BenchRecord {
        BenchRecord {
            id: id.into(),
            title: id.into(),
            wall_time_s: 1.0,
            rows: 1,
            max_query_cost: cost,
            mean_rel_error: err,
            engine: None,
            cache_hit_rate: None,
            mean_clips_per_cell: None,
        }
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        let violations = gate_against(&reference, &reference);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn gate_flags_error_and_cost_regressions_and_missing_experiments() {
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        reference.experiments.push(record("fig15", Some(0.2), None));
        let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
        // Error way above 0.3 * 1.5 + 0.08, cost way above 4200 * 1.15 + 50.
        fresh
            .experiments
            .push(record("fig14", Some(0.9), Some(9000)));
        let violations = gate_against(&fresh, &reference);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("relative error")));
        assert!(violations.iter().any(|v| v.contains("query cost")));
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn gate_zero_reference_uses_absolute_tolerance() {
        // A reference with mean relative error exactly 0 (a scenario the
        // estimator nails) must not produce a 0-sized or NaN bound: fresh
        // runs within the absolute slack pass, runs beyond it fail.
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("scenario_exact", Some(0.0), Some(100)));

        let mut within = BenchReport::new(Scale::Small, 2015, 1);
        within.experiments.push(record(
            "scenario_exact",
            Some(GATE_REL_ERROR_SLACK * 0.5),
            Some(100),
        ));
        assert!(gate_against(&within, &reference).is_empty());

        let mut beyond = BenchReport::new(Scale::Small, 2015, 1);
        beyond.experiments.push(record(
            "scenario_exact",
            Some(GATE_REL_ERROR_SLACK * 2.0),
            Some(100),
        ));
        let violations = gate_against(&beyond, &reference);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("regressed"));
    }

    #[test]
    fn gate_flags_non_finite_fresh_metrics() {
        // `NaN > bound` is false, so a naive comparison would silently pass
        // a fresh run whose error collapsed to NaN/inf; the gate must flag
        // it instead.
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        for bad in [f64::NAN, f64::INFINITY] {
            let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
            fresh
                .experiments
                .push(record("fig14", Some(bad), Some(4200)));
            let violations = gate_against(&fresh, &reference);
            assert_eq!(violations.len(), 1, "{bad}: {violations:?}");
            assert!(violations[0].contains("not finite"), "{bad}");
        }
        // A NaN *reference* degrades to the absolute tolerance rather than
        // silently passing everything.
        let mut nan_ref = BenchReport::new(Scale::Small, 2015, 1);
        nan_ref
            .experiments
            .push(record("fig14", Some(f64::NAN), Some(4200)));
        let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
        fresh
            .experiments
            .push(record("fig14", Some(1.0), Some(4200)));
        assert!(!gate_against(&fresh, &nan_ref).is_empty());
    }

    #[test]
    fn gate_flags_metrics_lost_by_the_fresh_run() {
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
        fresh.experiments.push(record("fig14", None, None));
        let violations = gate_against(&fresh, &reference);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| v.contains("missing from fresh run")));
    }

    #[test]
    fn gate_rejects_incomparable_runs_and_broken_determinism() {
        let reference = BenchReport::new(Scale::Small, 2015, 1);
        let other_scale = BenchReport::new(Scale::Tiny, 2015, 1);
        assert!(gate_against(&other_scale, &reference)[0].contains("scale mismatch"));
        let other_seed = BenchReport::new(Scale::Small, 7, 1);
        assert!(gate_against(&other_seed, &reference)[0].contains("seed mismatch"));
        let mut broken = BenchReport::new(Scale::Small, 2015, 2);
        broken.speedup = Some(SpeedupReport {
            probe: "probe".into(),
            threads: 2,
            query_budget: 100,
            serial_wall_s: 1.0,
            parallel_wall_s: 0.6,
            speedup: 1.6,
            deterministic: false,
            available_parallelism: 2,
        });
        assert!(gate_against(&broken, &reference)
            .iter()
            .any(|v| v.contains("determinism")));
    }

    #[test]
    fn gate_checks_the_cache_probe() {
        let reference = BenchReport::new(Scale::Small, 2015, 1);
        let probe = |hits: u64, deterministic: bool| CacheBenchReport {
            hits,
            misses: 40,
            invalidations: 0,
            evictions: 0,
            hit_rate: hits as f64 / (hits + 40) as f64,
            deterministic,
        };
        let mut healthy = BenchReport::new(Scale::Small, 2015, 1);
        healthy.cache = Some(probe(40, true));
        assert!(gate_against(&healthy, &reference).is_empty());

        let mut nondeterministic = BenchReport::new(Scale::Small, 2015, 1);
        nondeterministic.cache = Some(probe(40, false));
        assert!(gate_against(&nondeterministic, &reference)
            .iter()
            .any(|v| v.contains("cache probe") && v.contains("determinism")));

        let mut cold = BenchReport::new(Scale::Small, 2015, 1);
        cold.cache = Some(probe(0, true));
        assert!(gate_against(&cold, &reference)
            .iter()
            .any(|v| v.contains("zero cache hits")));
    }

    #[test]
    fn gate_checks_the_loadtest_probe() {
        let reference = BenchReport::new(Scale::Small, 2015, 1);
        let probe = |dropped: usize, queue_429: u64, high_water: usize, identical: bool| {
            LoadtestBenchReport {
                clients: 4,
                jobs_per_client: 3,
                completed_jobs: 12 - dropped,
                dropped_jobs: dropped,
                wall_s: 1.0,
                jobs_per_s: 12.0,
                p50_first_estimate_ms: 5.0,
                p95_first_estimate_ms: 9.0,
                p99_first_estimate_ms: 9.5,
                http_requests: 60,
                connections: 4,
                keep_alive_reuse: 1.0 - 4.0 / 60.0,
                queue_429,
                quota_429: 0,
                queue_depth: 8,
                queue_high_water: high_water,
                check_batch: true,
                batch_identical: identical,
            }
        };
        let mut healthy = BenchReport::new(Scale::Small, 2015, 1);
        healthy.loadtest = Some(probe(0, 5, 8, true));
        assert!(gate_against(&healthy, &reference).is_empty());

        let mut dropped = BenchReport::new(Scale::Small, 2015, 1);
        dropped.loadtest = Some(probe(2, 0, 8, true));
        assert!(gate_against(&dropped, &reference)
            .iter()
            .any(|v| v.contains("dropped")));

        // 429s without the queue ever filling: the server pushed back
        // before it had to.
        let mut premature = BenchReport::new(Scale::Small, 2015, 1);
        premature.loadtest = Some(probe(0, 5, 3, true));
        assert!(gate_against(&premature, &reference)
            .iter()
            .any(|v| v.contains("premature backpressure")));

        let mut divergent = BenchReport::new(Scale::Small, 2015, 1);
        divergent.loadtest = Some(probe(0, 0, 0, false));
        assert!(gate_against(&divergent, &reference)
            .iter()
            .any(|v| v.contains("determinism regression under concurrent load")));
    }

    #[test]
    fn gate_checks_the_stratified_probe() {
        let reference = BenchReport::new(Scale::Small, 2015, 1);
        let probe = |ratio: f64, deterministic: bool| StratifiedBenchReport {
            probe: "probe".into(),
            partition: "density".into(),
            count: 6,
            allocation: "proportional".into(),
            budget: 500,
            stratified_std_error: ratio.sqrt(),
            unstratified_std_error: 1.0,
            variance_ratio: ratio,
            deterministic,
        };
        let mut healthy = BenchReport::new(Scale::Small, 2015, 1);
        healthy.stratified = Some(probe(0.7, true));
        assert!(gate_against(&healthy, &reference).is_empty());

        let mut worse = BenchReport::new(Scale::Small, 2015, 1);
        worse.stratified = Some(probe(1.2, true));
        assert!(gate_against(&worse, &reference)
            .iter()
            .any(|v| v.contains("increased the variance")));

        let mut broken = BenchReport::new(Scale::Small, 2015, 1);
        broken.stratified = Some(probe(f64::NAN, true));
        assert!(gate_against(&broken, &reference)
            .iter()
            .any(|v| v.contains("not a positive finite number")));

        let mut nondeterministic = BenchReport::new(Scale::Small, 2015, 1);
        nondeterministic.stratified = Some(probe(0.7, false));
        assert!(gate_against(&nondeterministic, &reference)
            .iter()
            .any(|v| v.contains("stratified combiner")));
    }

    #[test]
    fn stratified_probe_reduces_variance_and_stays_deterministic() {
        let probe = run_stratified_probe(Scale::Micro, 2015, 2);
        assert!(
            probe.deterministic,
            "1-thread and 2-thread stratified runs must agree bitwise"
        );
        assert!(
            probe.variance_ratio.is_finite() && probe.variance_ratio > 0.0,
            "variance ratio {} must be positive finite",
            probe.variance_ratio
        );
        assert!(
            probe.variance_ratio < 1.0,
            "stratification must not inflate variance at equal budget (ratio {})",
            probe.variance_ratio
        );
    }

    #[test]
    fn speedup_probe_is_deterministic_across_thread_counts() {
        let probe = run_speedup_probe(Scale::Micro, 7, 2);
        assert!(
            probe.deterministic,
            "1-thread and 2-thread probe runs must agree bitwise"
        );
        assert!(probe.serial_wall_s > 0.0 && probe.parallel_wall_s > 0.0);
        assert_eq!(probe.threads, 2);
    }
}
