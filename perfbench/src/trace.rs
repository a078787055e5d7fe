//! In-memory spans recorded from outside the system, and the timing
//! `LbsBackend` decorator that puts a span around every service query.
//!
//! A span has a name, a start, an end, the span that caused it, and the id
//! of the job (or episode) it belongs to. Spans stay in memory during the
//! run and are written out once, after it.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lbs_data::TupleId;
use lbs_geom::{Point, Rect};
use lbs_service::{LbsBackend, QueryError, QueryResponse, ServiceConfig};

use crate::clock;
use crate::report::RunResult;

/// No parent span.
pub const ROOT: usize = usize::MAX;

struct Span {
    name: &'static str,
    job: u64,
    parent: usize,
    start: Instant,
    end: Option<Instant>,
}

/// The span store of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty store whose times count from now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: clock::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span that ends later ([`Tracer::close`]); returns its id.
    pub fn open(&self, name: &'static str, job: u64, parent: usize, start: Instant) -> usize {
        let mut spans = self.spans();
        spans.push(Span {
            name,
            job,
            parent,
            start,
            end: None,
        });
        spans.len() - 1
    }

    /// Ends an open span.
    pub fn close(&self, id: usize, end: Instant) {
        if let Some(span) = self.spans().get_mut(id) {
            span.end = Some(end);
        }
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        job: u64,
        parent: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.open(name, job, parent, start);
        self.close(id, end);
        id
    }

    /// Self time of every closed span named `name`, in seconds: its
    /// duration minus the time its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut child = vec![0.0; spans.len()];
        for span in spans.iter() {
            if let (Some(end), Some(slot)) = (span.end, child.get_mut(span.parent)) {
                *slot += clock::secs_between(span.start, end);
            }
        }
        spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.name == name)
            .filter_map(|(s, c)| s.end.map(|end| clock::secs_between(s.start, end) - c))
            .collect()
    }

    /// Durations of every closed span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|end| clock::secs_between(s.start, end)))
            .collect()
    }

    /// Writes every span as one tab-separated line: id, name, job, parent
    /// (`-` for none), start and end in microseconds since the run began.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tjob\tparent\tstart_us\tend_us")?;
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_micros();
        for (id, span) in self.spans().iter().enumerate() {
            let parent = if span.parent == ROOT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            let end = span
                .end
                .map_or_else(|| "-".to_string(), |e| us(e).to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{end}",
                span.name,
                span.job,
                us(span.start)
            )?;
        }
        out.flush()
    }
}

/// What the timing decorator saw during one job.
pub struct JobTrace {
    tracer: Arc<Tracer>,
    job: u64,
    /// The step span in progress, the parent of every query span.
    step: AtomicUsize,
    queries: AtomicU64,
    seen: Mutex<Seen>,
}

/// Query locations and the tuple ids the answers named.
#[derive(Default)]
pub struct Seen {
    /// Every query location, in issue order.
    pub points: Vec<Point>,
    /// Every returned tuple id (with repeats).
    pub ids: Vec<TupleId>,
}

impl JobTrace {
    /// A fresh record for job `job`.
    pub fn new(tracer: &Arc<Tracer>, job: u64) -> Arc<JobTrace> {
        Arc::new(JobTrace {
            tracer: Arc::clone(tracer),
            job,
            step: AtomicUsize::new(ROOT),
            queries: AtomicU64::new(0),
            seen: Mutex::new(Seen::default()),
        })
    }

    /// Makes `span` the parent of the queries that follow.
    pub fn enter_step(&self, span: usize) {
        self.step.store(span, Ordering::Relaxed);
    }

    /// Queries the decorator saw.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Takes the recorded query locations and answered ids.
    pub fn take_seen(&self) -> Seen {
        std::mem::take(&mut *self.seen.lock().expect("seen lock"))
    }
}

/// An `LbsBackend` decorator that records a `query` span per call and the
/// query locations; answers pass through unchanged.
pub struct TimedBackend<B> {
    inner: B,
    trace: Arc<JobTrace>,
}

impl<B: LbsBackend> TimedBackend<B> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: B, trace: Arc<JobTrace>) -> Self {
        TimedBackend { inner, trace }
    }
}

impl<B: LbsBackend> LbsBackend for TimedBackend<B> {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        let start = clock::now();
        let answer = self.inner.query(location);
        let end = clock::now();
        let trace = &self.trace;
        trace.tracer.record(
            "query",
            trace.job,
            trace.step.load(Ordering::Relaxed),
            start,
            end,
        );
        trace.queries.fetch_add(1, Ordering::Relaxed);
        let mut seen = trace.seen.lock().expect("seen lock");
        seen.points.push(*location);
        if let Ok(response) = &answer {
            seen.ids.extend(response.results.iter().map(|t| t.id));
        }
        answer
    }

    fn config(&self) -> &ServiceConfig {
        self.inner.config()
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn bbox(&self) -> Rect {
        self.inner.bbox()
    }
}

/// Writes the run's spans under `perfbench/out/`.
pub fn write_spans(result: &mut RunResult, tracer: &Tracer, name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{name}.spans.tsv"));
    match tracer.write(&path) {
        Ok(()) => result.note(format!("spans written to {}", path.display())),
        Err(e) => result.note(format!("could not write spans: {e}")),
    }
}
