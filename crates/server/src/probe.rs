//! Session-throughput probe: the serving layer's entry in
//! `BENCH_repro.json`.
//!
//! Builds a fixed bundle of small single-tenant estimation jobs, runs them
//! through the [`Scheduler`] once in submission order (timed)
//! and once with the submission order shuffled (deterministically, from the
//! probe seed), and compares every job's final estimate bitwise. The timed
//! run yields the throughput metrics (jobs/s, mean time-to-first-estimate);
//! the comparison yields the `deterministic` flag the bench gate checks.

use std::collections::BTreeMap;

use lbs_bench::{CacheBenchReport, Scenario, SessionBenchReport};
use serde::Deserialize;

use crate::scheduler::{Scheduler, SchedulerConfig};

/// Number of jobs in the probe bundle.
const PROBE_JOBS: usize = 6;

/// Builds the `i`-th probe scenario: tiny uniform COUNT workloads with
/// distinct seeds and budgets so the bundle exercises interleaving of jobs
/// of different lengths.
fn probe_scenario(i: usize, seed: u64) -> Scenario {
    let toml = format!(
        "id = \"probe_{i}\"\nseed = {}\n\n[dataset]\nmodel = \"uniform\"\nsize = {}\n\n\
         [interface]\nkind = \"lr\"\nk = 5\n\n[aggregate]\nkind = \"count\"\n\n\
         [estimator]\nalgorithm = \"lr\"\nbudget = {}\n\n[session]\nwave_size = 8\n",
        seed ^ (77 + i as u64),
        40 + 20 * i,
        80 + 40 * i,
    );
    let value = lbs_bench::toml_lite::parse(&toml).expect("probe scenario TOML is well-formed");
    let scenario = Scenario::from_value(&value).expect("probe scenario deserializes");
    scenario.validate().expect("probe scenario validates");
    scenario
}

/// Runs the bundle in the given submission order and returns per-scenario
/// `(estimate bits, query cost)` plus the throughput numbers of the run.
fn run_bundle(
    order: &[usize],
    seed: u64,
    threads: usize,
) -> (BTreeMap<String, (u64, u64)>, SessionBenchReport) {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        threads,
        seed,
        smoke: false,
    });
    // Build every workload (TOML parse + dataset generation) before the
    // clock starts: the probe measures the *serving* layer, not scenario
    // construction — and pre-building keeps one job's time-to-first-estimate
    // from absorbing the builds of later submissions.
    let ctx = scheduler.scenario_context();
    let workloads: Vec<(usize, lbs_bench::Workload)> = order
        .iter()
        .map(|&i| {
            let scenario = probe_scenario(i, seed);
            let workload =
                lbs_bench::build_workload(&scenario, &ctx).expect("probe workloads build");
            (i, workload)
        })
        .collect();
    let started = std::time::Instant::now();
    let ids: Vec<(usize, u64)> = workloads
        .into_iter()
        .map(|(i, workload)| {
            let id = scheduler
                .submit_workload(workload, Some("probe"))
                .expect("probe scenarios submit cleanly");
            (i, id)
        })
        .collect();
    let ticks = scheduler.run_until_idle();
    let wall_s = started.elapsed().as_secs_f64();

    let mut estimates = BTreeMap::new();
    let mut first_estimate_ms_sum = 0.0;
    for &(i, id) in &ids {
        let estimate = scheduler
            .result(id)
            .expect("probe jobs finish with results");
        estimates.insert(
            format!("probe_{i}"),
            (estimate.value.to_bits(), estimate.query_cost),
        );
        first_estimate_ms_sum += scheduler
            .poll(id)
            .and_then(|s| s.time_to_first_estimate_ms)
            .unwrap_or(0) as f64;
    }
    let report = SessionBenchReport {
        jobs: ids.len(),
        wall_s,
        jobs_per_s: ids.len() as f64 / wall_s.max(1e-9),
        mean_time_to_first_estimate_ms: first_estimate_ms_sum / ids.len().max(1) as f64,
        ticks,
        deterministic: false, // filled by the caller after the comparison
    };
    (estimates, report)
}

/// Runs the probe and returns the `sessions` record of `BENCH_repro.json`.
pub fn run_session_probe(seed: u64, threads: usize) -> SessionBenchReport {
    let in_order: Vec<usize> = (0..PROBE_JOBS).collect();
    // A fixed derangement-ish shuffle keyed only to the job count: the
    // point is a *different* arrival order, not a random one.
    let shuffled: Vec<usize> = (0..PROBE_JOBS).map(|i| (i + 3) % PROBE_JOBS).collect();

    let (estimates_a, mut report) = run_bundle(&in_order, seed, threads);
    let (estimates_b, _) = run_bundle(&shuffled, seed, threads);
    report.deterministic = estimates_a == estimates_b;
    report
}

/// Builds the shared-cache probe scenario: a small uniform COUNT workload
/// with `cache = "shared"`.
fn cache_probe_scenario(seed: u64) -> Scenario {
    let toml = format!(
        "id = \"cache_probe\"\nseed = {}\n\n[dataset]\nmodel = \"uniform\"\nsize = 60\n\n\
         [interface]\nkind = \"lr\"\nk = 5\n\n[backend]\ncache = \"shared\"\n\n\
         [aggregate]\nkind = \"count\"\n\n[estimator]\nalgorithm = \"lr\"\nbudget = 120\n",
        seed ^ 0xCAC4E,
    );
    let value = lbs_bench::toml_lite::parse(&toml).expect("cache probe TOML is well-formed");
    let scenario = Scenario::from_value(&value).expect("cache probe scenario deserializes");
    scenario.validate().expect("cache probe scenario validates");
    scenario
}

/// Runs the shared answer-cache probe: the same `cache = "shared"` scenario
/// is submitted twice, under two different tenants, through one scheduler.
/// The first run populates the cross-tenant cache (all misses); the second
/// must be served from it (hits > 0) while reproducing the first estimate
/// bit for bit — the `deterministic` flag the bench gate checks. Returns the
/// `cache` record of `BENCH_repro.json`.
pub fn run_cache_probe(seed: u64, threads: usize) -> CacheBenchReport {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        threads,
        seed,
        smoke: false,
    });
    let ctx = scheduler.scenario_context();
    let scenario = cache_probe_scenario(seed);
    let ids: Vec<u64> = ["tenant-a", "tenant-b"]
        .iter()
        .map(|tenant| {
            let workload =
                lbs_bench::build_workload(&scenario, &ctx).expect("cache probe workload builds");
            let id = scheduler
                .submit_workload(workload, Some(tenant))
                .expect("cache probe submits cleanly");
            scheduler.run_until_idle();
            id
        })
        .collect();
    let first = scheduler.result(ids[0]).expect("cache probe jobs finish");
    let second = scheduler.result(ids[1]).expect("cache probe jobs finish");
    let stats = scheduler.shared_cache().stats();
    CacheBenchReport {
        hits: stats.hits,
        misses: stats.misses,
        invalidations: stats.invalidations,
        evictions: stats.evictions,
        hit_rate: stats.hit_rate(),
        deterministic: first.value.to_bits() == second.value.to_bits()
            && first.ci95 == second.ci95
            && first.samples == second.samples
            && first.query_cost == second.query_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_probe_hits_and_stays_deterministic() {
        let report = run_cache_probe(2015, 1);
        assert!(report.deterministic, "warm replay changed bits");
        assert!(report.hits > 0, "replay produced no cache hits");
        assert!(report.misses > 0);
        assert!(report.hit_rate > 0.0 && report.hit_rate < 1.0);
        assert_eq!(report.invalidations, 0);
        assert_eq!(report.evictions, 0);
    }

    #[test]
    fn probe_is_deterministic_and_reports_throughput() {
        let report = run_session_probe(2015, 1);
        assert!(report.deterministic, "scheduler interleave changed bits");
        assert_eq!(report.jobs, PROBE_JOBS);
        assert!(report.jobs_per_s > 0.0);
        assert!(report.wall_s > 0.0);
        assert!(report.ticks >= PROBE_JOBS as u64);
    }
}
