//! `lr-batch` and `lnr-batch`: a closed loop of back-to-back estimation
//! jobs in process, each on a fresh service over one shared database and
//! on its own repetition seed.

use lbs_bench::{build_workload, Workload};

use crate::clock;
use crate::job::{self, JobOutcome, Traced};
use crate::layers;
use crate::report::{digest, overhead_notes, relative, RunResult};
use crate::served;
use crate::stats;
use crate::trace::{write_spans, Tracer};
use crate::workloads::{self, Spec};

/// Database builds timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Spacing of the in-process status requests behind `control_ms`.
pub const STATUS_PERIOD_S: f64 = 0.025;

/// Which batch workload.
#[derive(Clone, Copy)]
pub enum Kind {
    /// LR-LBS-AGG over the paper-size POI table.
    Lr,
    /// LNR-LBS-AGG over the paper-size user table.
    Lnr,
}

/// Runs one batch workload for `seconds` and reports its end-to-end
/// metrics, or (`traced`) its per-layer metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let spec = match kind {
        Kind::Lr => workloads::lr_batch(seed),
        Kind::Lnr => workloads::lnr_batch(seed),
    };
    let ctx = workloads::server_context();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous copy first so peak memory holds one database.
        drop(built.take());
        let start = clock::now();
        built = Some(build_workload(&spec.scenario, &ctx)?);
        setup_s.push(clock::secs_since(start));
    }
    let workload = built.expect("at least one build");
    let mut result = RunResult::default();
    if traced {
        run_traced(&mut result, &spec, &workload, seconds, &setup_s)?;
    } else {
        let jobs = run_plain(&workload, seconds)?;
        check(&mut result, &jobs);
        end_to_end(&mut result, &jobs, &setup_s, spec.budget);
        result.push("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
        result.note(format!(
            "{} jobs; estimate digest {:016x}",
            jobs.len(),
            digest(jobs.iter().map(JobOutcome::bits))
        ));
        let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
        if let (Some((q1, q3)), Some(lo), Some(hi)) = (
            stats::quartiles(&job_s),
            stats::percentile(&job_s, 0.0),
            stats::percentile(&job_s, 100.0),
        ) {
            result.note(format!(
                "job_s: min {lo:.3}, q1 {q1:.3}, q3 {q3:.3}, max {hi:.3}"
            ));
        }
    }
    Ok(result)
}

/// Untraced jobs back to back until `seconds` have passed.
fn run_plain(workload: &Workload, seconds: f64) -> Result<Vec<JobOutcome>, String> {
    let start = clock::now();
    let mut jobs = Vec::new();
    while jobs.is_empty() || clock::secs_since(start) < seconds {
        jobs.push(job::run(workload, jobs.len(), 1, None, false)?);
    }
    Ok(jobs)
}

fn check(result: &mut RunResult, jobs: &[JobOutcome]) {
    result.attempted += jobs.len() as u64;
    for (rep, job) in jobs.iter().enumerate() {
        if let Err(e) = job.check() {
            result.failed += 1;
            result.fail(format!("job {rep}: {e}"));
        }
    }
}

/// The end-to-end metrics of a set of jobs (all but `peak_rss_mb`).
fn end_to_end(result: &mut RunResult, jobs: &[JobOutcome], setup_s: &[f64], budget: u64) {
    let job_s: Vec<f64> = jobs.iter().map(|j| j.job_s).collect();
    let first: Vec<f64> = jobs
        .iter()
        .map(|j| j.first_estimate_s.unwrap_or(f64::INFINITY))
        .collect();
    let waits: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.status_waits_ms(STATUS_PERIOD_S))
        .collect();
    let samples: u64 = jobs.iter().map(|j| j.snapshot.samples).sum();
    let overshoot: Vec<f64> = jobs
        .iter()
        .map(|j| j.snapshot.queries as f64 / budget as f64)
        .collect();
    let pct = |v: &[f64], p| stats::percentile(v, p).unwrap_or(f64::NAN);
    result.push("setup_s", stats::median(setup_s).unwrap_or(f64::NAN), "s");
    result.push("job_s.p50", pct(&job_s, 50.0), "s");
    result.push("first_estimate_s.p50", pct(&first, 50.0), "s");
    result.push(
        "samples_per_s",
        samples as f64 / job_s.iter().sum::<f64>(),
        "1/s",
    );
    result.push(
        "budget_overshoot",
        stats::mean(&overshoot).unwrap_or(f64::NAN),
        "ratio",
    );
    result.push("control_ms.p50", pct(&waits, 50.0), "ms");
    result.push("control_ms.p90", pct(&waits, 90.0), "ms");
}

/// The traced run: untraced jobs for half the time, the same jobs again
/// with the service decorator and step spans, then the layer replays and
/// one job served over loopback.
fn run_traced(
    result: &mut RunResult,
    spec: &Spec,
    workload: &Workload,
    seconds: f64,
    setup_s: &[f64],
) -> Result<(), String> {
    let plain = run_plain(workload, seconds / 2.0)?;
    check(result, &plain);
    let tracer = Tracer::new();
    let mut jobs = Vec::with_capacity(plain.len());
    for rep in 0..plain.len() {
        let traced = Traced {
            tracer: &tracer,
            job: rep as u64,
        };
        let job = job::run(workload, rep, 1, Some(traced), rep + 1 == plain.len())?;
        if job.bits() != plain[rep].bits() {
            result.fail(format!(
                "job {rep}: traced estimate {:016x} differs from untraced {:016x}",
                job.bits(),
                plain[rep].bits()
            ));
        }
        jobs.push(job);
    }
    check(result, &jobs);

    let mut untraced_e2e = RunResult::default();
    end_to_end(&mut untraced_e2e, &plain, setup_s, spec.budget);
    let mut traced_e2e = RunResult::default();
    end_to_end(&mut traced_e2e, &jobs, setup_s, spec.budget);
    overhead_notes(result, &untraced_e2e, &traced_e2e);
    result.note(format!(
        "{} jobs per pass; estimate digest {:016x}",
        jobs.len(),
        digest(jobs.iter().map(JobOutcome::bits))
    ));

    let refs: Vec<&JobOutcome> = jobs.iter().collect();
    layers::sessions(result, &refs, &tracer);
    let reports: Vec<_> = jobs.iter().map(|j| j.snapshot.engine).collect();
    layers::engine(result, &reports);
    let last = jobs.last_mut().expect("at least one job");
    let seen = last.seen.take().unwrap_or_default();
    layers::index(
        result,
        &workload.dataset,
        &seen.points,
        workload.service_config.k,
    );
    let mut history = last
        .history
        .take()
        .unwrap_or_else(|| layers::history_of_answers(&workload.dataset, &seen.ids));
    drop(seen);
    layers::geometry(
        result,
        &mut history,
        &workload.dataset,
        &workload.region,
        last.snapshot.samples,
    );
    drop(history);
    result.push(
        "scenario.build_ms",
        stats::median(setup_s).unwrap_or(f64::NAN) * 1e3,
        "ms",
    );
    result.push(
        "trace.overhead_share",
        relative(&untraced_e2e, &traced_e2e, "job_s.p50"),
        "ratio",
    );
    served::serve_one(result, spec, plain[0].bits())?;
    write_spans(result, &tracer, &workload.id);
    Ok(())
}
