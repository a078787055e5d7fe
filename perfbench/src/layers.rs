//! Replays that time single layers from outside, on inputs a traced job
//! produced: the spatial index over the job's database and query points,
//! and the cell geometry and History search over the job's final History.

use std::hint::black_box;

use lbs_core::lr::History;
use lbs_core::EngineReport;
use lbs_data::{Dataset, TupleId};
use lbs_geom::{Point, Rect};
use lbs_index::{GridIndex, SpatialIndex};

use crate::clock;
use crate::job::JobOutcome;
use crate::report::RunResult;
use crate::stats;
use crate::trace::Tracer;

/// Index builds per replay (the median is reported).
const INDEX_BUILDS: usize = 3;
/// History sites whose neighbour search and top-h cells are replayed.
const GEOM_SITES: usize = 128;
/// Candidate neighbours per replayed cell (what the estimator asks for).
const GEOM_NEIGHBORS: usize = 32;
/// Samples per driver chunk: the driver forks and absorbs one History per
/// chunk.
const CHUNK_SAMPLES: u64 = 8;

/// `index.build_ms` and `index.knn_us`: `GridIndex::build` over the
/// database's locations and `k_nearest` at every query point of a job.
pub fn index(result: &mut RunResult, dataset: &Dataset, points: &[Point], k: usize) {
    let locations: Vec<Point> = dataset.locations().collect();
    let mut builds = Vec::with_capacity(INDEX_BUILDS);
    let mut index = None;
    for _ in 0..INDEX_BUILDS {
        let start = clock::now();
        index = Some(black_box(GridIndex::build(black_box(&locations))));
        builds.push(clock::secs_since(start) * 1e3);
    }
    let index = index.expect("at least one build");
    let start = clock::now();
    for p in points {
        black_box(index.k_nearest(black_box(p), k));
    }
    let knn_us = clock::secs_since(start) * 1e6 / points.len().max(1) as f64;
    result.push(
        "index.build_ms",
        stats::median(&builds).unwrap_or(0.0),
        "ms",
    );
    result.push("index.knn_us", knn_us, "us");
}

/// A History that knows the true location of every tuple a job's answers
/// named: the geometry input of a job whose interface returns no
/// locations.
pub fn history_of_answers(dataset: &Dataset, ids: &[TupleId]) -> History {
    let mut history = History::new();
    for &id in ids {
        if let Some(tuple) = dataset.get(id) {
            history.insert(id, tuple.location);
        }
    }
    history
}

/// The `geom.topk_us.*` and `core.history.*` replays on `history`:
/// `neighbors_of(site, 32)` and `build_topk_cell` at h = 1, 2, 3 for up to
/// [`GEOM_SITES`] known sites, and one `fork` + `absorb` pair per 8-sample
/// chunk of a job of `samples` samples.
pub fn geometry(
    result: &mut RunResult,
    history: &mut History,
    dataset: &Dataset,
    region: &Rect,
    samples: u64,
) {
    let known: Vec<Point> = dataset
        .tuples()
        .iter()
        .filter(|t| history.contains(t.id))
        .map(|t| t.location)
        .collect();
    let stride = (known.len() / GEOM_SITES).max(1);
    let mut neighbors_s = 0.0;
    let mut topk_s = [0.0f64; 3];
    let mut sites = 0usize;
    for site in known.iter().step_by(stride).take(GEOM_SITES) {
        let start = clock::now();
        // Each result is dropped before the next: it keeps the capacity of
        // the whole known set.
        let neighbors = history.neighbors_of(site, GEOM_NEIGHBORS);
        neighbors_s += clock::secs_since(start);
        for (h, total) in topk_s.iter_mut().enumerate() {
            let start = clock::now();
            black_box(history.build_topk_cell(site, &neighbors, h + 1, region, true));
            *total += clock::secs_since(start);
        }
        sites += 1;
    }
    let per_site_us = |total: f64| total * 1e6 / sites.max(1) as f64;
    let pairs = samples.div_ceil(CHUNK_SAMPLES).max(1);
    let start = clock::now();
    for _ in 0..pairs {
        let fork = history.fork();
        history.absorb(&fork);
    }
    let fork_absorb_us = clock::secs_since(start) * 1e6 / pairs as f64;

    result.push("geom.topk_us.h1", per_site_us(topk_s[0]), "us");
    result.push("geom.topk_us.h2", per_site_us(topk_s[1]), "us");
    result.push("geom.topk_us.h3", per_site_us(topk_s[2]), "us");
    result.push("core.history.known", history.len() as f64, "count");
    result.push("core.history.neighbors_us", per_site_us(neighbors_s), "us");
    result.push("core.history.fork_absorb_us", fork_absorb_us, "us");
}

/// Per-job cell-engine counts and cache hit rates from the jobs'
/// `AnytimeSnapshot::engine` reports.
pub fn engine(result: &mut RunResult, reports: &[EngineReport]) {
    let mut total = EngineReport::default();
    for report in reports {
        total.add(report);
    }
    let jobs = reports.len().max(1) as f64;
    let rate = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    result.push("geom.cells_built", total.cells_built as f64 / jobs, "count");
    result.push("geom.clips", total.clips as f64 / jobs, "count");
    result.push("geom.pruned", total.pruned as f64 / jobs, "count");
    result.push(
        "core.cache.cell_hit_rate",
        rate(total.cache_hits, total.cache_misses),
        "ratio",
    );
    result.push(
        "core.cache.lambda_hit_rate",
        rate(total.lambda_hits, total.lambda_misses),
        "ratio",
    );
}

/// Service and session metrics of traced jobs: the decorator's query
/// spans against each job's wall time, and the step spans.
pub fn sessions(result: &mut RunResult, jobs: &[&JobOutcome], tracer: &Tracer) {
    let n = jobs.len().max(1) as f64;
    let job_s: f64 = jobs.iter().map(|j| j.job_s).sum();
    let query_s = tracer.durations("query");
    let step_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.steps.iter().map(|(s, e)| (e - s) * 1e3))
        .collect();
    let samples: u64 = jobs.iter().map(|j| j.snapshot.samples).sum();
    let queries: u64 = jobs.iter().map(|j| j.snapshot.queries).sum();
    let counted: u64 = jobs.iter().filter_map(|j| j.decorator_queries).sum();
    let step_self_s: f64 = tracer.self_times("step").iter().sum();
    let query_total_s: f64 = query_s.iter().sum();

    result.push("service.queries", counted as f64 / n, "count");
    result.push(
        "service.query_us",
        stats::mean(&query_s).unwrap_or(0.0) * 1e6,
        "us",
    );
    result.push(
        "service.busy_share",
        query_total_s / job_s.max(1e-12),
        "ratio",
    );
    result.push(
        "core.session.step_ms.p50",
        stats::percentile(&step_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    result.push(
        "core.session.step_ms.max",
        stats::percentile(&step_ms, 100.0).unwrap_or(0.0),
        "ms",
    );
    result.push(
        "core.session.self_share",
        step_self_s / job_s.max(1e-12),
        "ratio",
    );
    result.push(
        "core.session.waves",
        jobs.iter().map(|j| j.snapshot.waves as f64).sum::<f64>() / n,
        "count",
    );
    result.push("core.session.samples", samples as f64 / n, "count");
    result.push(
        "core.queries_per_sample",
        queries as f64 / samples.max(1) as f64,
        "ratio",
    );
}
