//! One estimation job driven through the public session API, timed from
//! outside: `Workload::backend` → `Workload::start_session` →
//! `EstimationSession::step` until finished → `finalize`.

use std::sync::Arc;

use lbs_bench::Workload;
use lbs_core::lr::History;
use lbs_core::{AnytimeSnapshot, EstimationSession, StopReason};
use lbs_service::LbsBackend;

use crate::clock;
use crate::trace::{JobTrace, Seen, TimedBackend, Tracer, ROOT};

/// What one job produced and how long each part took. Offsets are seconds
/// from the start of the job (service construction).
pub struct JobOutcome {
    /// Service construction to final estimate.
    pub job_s: f64,
    /// When the session existed and could first be polled.
    pub ready_s: f64,
    /// Offset of the end of the first step whose snapshot had a sample.
    pub first_estimate_s: Option<f64>,
    /// `(start, end)` offset of every step.
    pub steps: Vec<(f64, f64)>,
    /// The snapshot after the last step.
    pub snapshot: AnytimeSnapshot,
    /// The final estimate's value, or why there is none.
    pub value: Result<f64, String>,
    /// Queries the timing decorator counted (traced jobs only).
    pub decorator_queries: Option<u64>,
    /// Query locations and answered ids (traced jobs only).
    pub seen: Option<Seen>,
    /// The final History of an LR job, when asked for.
    pub history: Option<History>,
}

impl JobOutcome {
    /// The checks every job must pass: a finite estimate, a spent budget,
    /// and (traced) a decorator count equal to the snapshot's.
    pub fn check(&self) -> Result<(), String> {
        let value = self.value.clone()?;
        if !value.is_finite() {
            return Err(format!("estimate {value} is not finite"));
        }
        if self.snapshot.stop != Some(StopReason::BudgetSpent) {
            return Err(format!(
                "stopped with {} instead of BudgetSpent",
                stop_name(self.snapshot.stop)
            ));
        }
        if let Some(counted) = self.decorator_queries {
            if counted != self.snapshot.queries {
                return Err(format!(
                    "the service decorator counted {counted} queries, the snapshot {}",
                    self.snapshot.queries
                ));
            }
        }
        Ok(())
    }

    /// Bits of the final estimate (0 when there is none).
    pub fn bits(&self) -> u64 {
        self.value.as_ref().map_or(0, |v| v.to_bits())
    }

    /// Waits of in-process status requests due every `period_s` from the
    /// job's start, in milliseconds: a session answers only between steps,
    /// so a request due inside a step waits for that step to end.
    pub fn status_waits_ms(&self, period_s: f64) -> Vec<f64> {
        let end = self.steps.last().map_or(self.ready_s, |s| s.1);
        let mut waits = Vec::new();
        let mut k = 0u32;
        loop {
            let due = f64::from(k) * period_s;
            if due >= end {
                return waits;
            }
            let answer = if due < self.ready_s {
                self.ready_s
            } else {
                self.steps
                    .iter()
                    .find(|(s, e)| *s <= due && due < *e)
                    .map_or(due, |s| s.1)
            };
            waits.push((answer - due) * 1e3);
            k += 1;
        }
    }
}

fn stop_name(stop: Option<StopReason>) -> &'static str {
    match stop {
        None => "no stop reason",
        Some(StopReason::BudgetSpent) => "BudgetSpent",
        Some(StopReason::ServiceExhausted) => "ServiceExhausted",
        Some(StopReason::TargetPrecision) => "TargetPrecision",
        Some(StopReason::WallClock) => "WallClock",
        Some(StopReason::NoProgress) => "NoProgress",
        Some(StopReason::Cancelled) => "Cancelled",
    }
}

/// Tracing switched on for one job: the span store and the job's id in it.
pub struct Traced<'a> {
    /// Span store of the run.
    pub tracer: &'a Arc<Tracer>,
    /// Job id the spans carry.
    pub job: u64,
}

/// Runs repetition `rep` of `workload` on `threads` worker threads.
/// With `traced`, the backend is wrapped in the timing decorator and every
/// step gets a span; with `keep_history`, an LR job hands back its History.
pub fn run(
    workload: &Workload,
    rep: usize,
    threads: usize,
    traced: Option<Traced<'_>>,
    keep_history: bool,
) -> Result<JobOutcome, String> {
    let start = clock::now();
    let job_span = traced
        .as_ref()
        .map(|t| t.tracer.open("job", t.job, ROOT, start));
    let job_trace = traced.as_ref().map(|t| JobTrace::new(t.tracer, t.job));
    let backend: Box<dyn LbsBackend> = match &job_trace {
        Some(jt) => Box::new(TimedBackend::new(workload.backend(), Arc::clone(jt))),
        None => workload.backend(),
    };
    let mut session = workload.start_session(backend, workload.session_config(threads, rep))?;
    let ready = clock::now();
    if let (Some(t), Some(parent)) = (&traced, job_span) {
        t.tracer
            .record("service.build", t.job, parent, start, ready);
    }

    let mut steps = Vec::new();
    let mut first_estimate_s = None;
    let mut snapshot = session.snapshot();
    while !session.is_finished() {
        let step_start = clock::now();
        let step_span = match (&traced, job_span, &job_trace) {
            (Some(t), Some(parent), Some(jt)) => {
                let id = t.tracer.open("step", t.job, parent, step_start);
                jt.enter_step(id);
                Some(id)
            }
            _ => None,
        };
        session.step();
        let step_end = clock::now();
        if let (Some(t), Some(id)) = (&traced, step_span) {
            t.tracer.close(id, step_end);
        }
        steps.push((
            clock::secs_between(start, step_start),
            clock::secs_between(start, step_end),
        ));
        snapshot = session.snapshot();
        if first_estimate_s.is_none() && snapshot.samples > 0 {
            first_estimate_s = Some(clock::secs_between(start, step_end));
        }
    }
    let value = session
        .finalize()
        .map(|e| e.value)
        .map_err(|e| e.to_string());
    let end = clock::now();
    if let (Some(t), Some(id)) = (&traced, job_span) {
        t.tracer.close(id, end);
    }
    let history = match session {
        EstimationSession::Lr(lr) if keep_history => Some(lr.into_history()),
        _ => None,
    };
    Ok(JobOutcome {
        job_s: clock::secs_between(start, end),
        ready_s: clock::secs_between(start, ready),
        first_estimate_s,
        steps,
        snapshot,
        value,
        decorator_queries: job_trace.as_ref().map(|jt| jt.queries()),
        seen: job_trace.as_ref().map(|jt| jt.take_seen()),
        history,
    })
}
