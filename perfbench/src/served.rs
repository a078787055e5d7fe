//! `served-mix`: repeated episodes against an in-process `lbs-server` over
//! loopback, one scheduler worker thread, default `ServerConfig`.
//!
//! In each episode connection A (closed loop) submits one heavy LR job and
//! long-polls its result. Connection B (open loop) is phase-locked to A's
//! `201`: it sends control requests and small interactive jobs at fixed
//! offsets from it and times each from its due time, so a stall also
//! counts against the requests queued behind it. The next episode starts
//! when both connections are done, which fixes every episode's timeline.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lbs_bench::{build_workload, Scenario, Workload};
use lbs_server::{HttpClient, HttpStats, Scheduler, SchedulerConfig, Server, ServerState};
use serde::Value;

use crate::clock;
use crate::job::{self, JobOutcome, Traced};
use crate::layers;
use crate::report::{digest, overhead_notes, relative, RunResult};
use crate::stats;
use crate::trace::{write_spans, Tracer, ROOT};
use crate::workloads::{self, Spec};

/// Server start-ups (each with its warm-up episode) timed per run;
/// `setup_s` is their median.
const SETUP_REPEATS: u64 = 3;
/// Episode index of the first warm-up episode (disjoint from measured
/// episode indices).
const WARMUP_EPISODE: u64 = 1 << 32;
/// How often B re-polls an interactive job.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// A's long-poll wait per request.
const LONG_POLL_MS: u64 = 20_000;
/// Longest any one job may take before it counts as failed.
const JOB_DEADLINE_S: f64 = 60.0;
/// Socket timeout of both connections.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
/// Period of the scheduler-lock probe of the traced run.
const PROBE_PERIOD: Duration = Duration::from_millis(5);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Control {
    Healthz,
    HeavyStatus,
    Stats,
    HeavyResultNow,
}

#[derive(Clone, Copy)]
enum Item {
    Control(Control),
    Interactive(usize),
}

/// B's schedule: offsets in ms from A's `201`. Twelve control requests
/// and four interactive jobs per episode, all due while the heavy job
/// runs, so that ~30 episodes give ten control samples beyond p95 and ten
/// interactive jobs beyond p90.
const SCHEDULE: &[(u64, Item)] = &[
    (0, Item::Control(Control::Healthz)),
    (30, Item::Control(Control::HeavyStatus)),
    (60, Item::Control(Control::Stats)),
    (90, Item::Control(Control::HeavyResultNow)),
    (120, Item::Interactive(0)),
    (150, Item::Control(Control::Healthz)),
    (180, Item::Control(Control::HeavyStatus)),
    (210, Item::Interactive(1)),
    (240, Item::Control(Control::Stats)),
    (270, Item::Control(Control::HeavyResultNow)),
    (300, Item::Interactive(2)),
    (330, Item::Control(Control::Healthz)),
    (360, Item::Control(Control::HeavyStatus)),
    (390, Item::Interactive(3)),
    (420, Item::Control(Control::Stats)),
    (450, Item::Control(Control::HeavyResultNow)),
];

/// The schedule of a single served batch job: control requests only.
const CONTROL_ONLY: &[(u64, Item)] = &[
    (0, Item::Control(Control::Healthz)),
    (30, Item::Control(Control::HeavyStatus)),
    (60, Item::Control(Control::Stats)),
    (90, Item::Control(Control::HeavyResultNow)),
    (150, Item::Control(Control::Healthz)),
    (180, Item::Control(Control::HeavyStatus)),
    (240, Item::Control(Control::Stats)),
    (270, Item::Control(Control::HeavyResultNow)),
];

/// HTTP routes whose client-side spans are reported.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Route {
    PostJobs,
    GetJob,
    GetResult,
    Healthz,
    Stats,
}

const ROUTES: [(Route, &str, &str, &str); 5] = [
    (
        Route::PostJobs,
        "http.post_jobs",
        "http.post_jobs_ms.p50",
        "http.post_jobs_ms.p95",
    ),
    (
        Route::GetJob,
        "http.get_job",
        "http.get_job_ms.p50",
        "http.get_job_ms.p95",
    ),
    (
        Route::GetResult,
        "http.get_result",
        "http.get_result_ms.p50",
        "http.get_result_ms.p95",
    ),
    (
        Route::Healthz,
        "http.healthz",
        "http.healthz_ms.p50",
        "http.healthz_ms.p95",
    ),
    (
        Route::Stats,
        "http.stats",
        "http.stats_ms.p50",
        "http.stats_ms.p95",
    ),
];

/// The jobs of one episode.
struct Plan {
    heavy: Spec,
    interactive: Vec<(Spec, &'static str)>,
}

impl Plan {
    fn episode(seed: u64, episode: u64) -> Plan {
        Plan {
            heavy: workloads::heavy(seed, episode),
            interactive: (0..workloads::INTERACTIVE_KINDS)
                .map(|kind| workloads::interactive(seed, episode, kind))
                .collect(),
        }
    }
}

/// A served job that settled: what the local batch check and the cost
/// metrics need.
struct Settled {
    scenario: Scenario,
    key: String,
    bits: u64,
    samples: u64,
    queries: u64,
    budget: u64,
}

/// Everything one episode measured.
#[derive(Default)]
struct Episode {
    heavy_s: Vec<f64>,
    control_ms: Vec<f64>,
    first_s: Vec<f64>,
    job_s: Vec<f64>,
    late_ms: Vec<f64>,
    spans: Vec<(Route, Instant, Instant)>,
    settled: Vec<Settled>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Episode {
    fn merge(&mut self, other: Episode) {
        self.heavy_s.extend(other.heavy_s);
        self.control_ms.extend(other.control_ms);
        self.first_s.extend(other.first_s);
        self.job_s.extend(other.job_s);
        self.late_ms.extend(other.late_ms);
        self.spans.extend(other.spans);
        self.settled.extend(other.settled);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    fn failure(&mut self, error: String) {
        self.failed += 1;
        self.errors.push(error);
    }

    /// One timed request; its client-side span is kept under `route`.
    fn request(
        &mut self,
        client: &mut HttpClient,
        route: Option<Route>,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> (Result<(u16, Value), String>, Instant) {
        let sent = clock::now();
        let reply = client.request(method, path, body);
        let replied = clock::now();
        if let Some(route) = route {
            self.spans.push((route, sent, replied));
        }
        let parsed = reply.and_then(|(status, text)| {
            serde_json::from_str::<Value>(&text)
                .map(|v| (status, v))
                .map_err(|e| format!("{method} {path}: bad JSON reply: {e}"))
        });
        (parsed, replied)
    }
}

fn field_u64(value: &Value, path: &[&str]) -> Option<u64> {
    let mut v = value;
    for key in path {
        v = v.get(key)?;
    }
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        Value::F64(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn state_of(status: &Value) -> &str {
    match status.get("state").or_else(|| status.get("status")) {
        Some(Value::Str(s)) => s,
        _ => "Failed",
    }
}

/// Reads a settled job's final estimate and cost out of a `200` result.
fn settled(spec: &Spec, reply: &Value) -> Result<Settled, String> {
    if state_of(reply) != "Done" {
        return Err(format!(
            "{} settled as {}",
            spec.scenario.id,
            state_of(reply)
        ));
    }
    let value = reply
        .get("estimate")
        .and_then(|e| e.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{}: result without an estimate", spec.scenario.id))?;
    Ok(Settled {
        scenario: spec.scenario.clone(),
        key: spec.toml.clone(),
        bits: value.to_bits(),
        samples: field_u64(reply, &["snapshot", "samples"]).unwrap_or(0),
        queries: field_u64(reply, &["snapshot", "queries"]).unwrap_or(0),
        budget: spec.budget,
    })
}

/// Connection A: submit the heavy job, hand its id and `201` time to B,
/// long-poll its result.
fn run_a(client: &mut HttpClient, plan: &Plan, to_b: mpsc::Sender<(u64, Instant)>) -> Episode {
    let mut ep = Episode {
        attempted: 1,
        ..Episode::default()
    };
    let due = clock::now();
    let body = plan.heavy.submission("heavy");
    let (reply, replied) = ep.request(client, Some(Route::PostJobs), "POST", "/jobs", Some(&body));
    let id = match reply {
        Ok((201, v)) => field_u64(&v, &["job_id"]),
        _ => None,
    };
    let Some(id) = id else {
        ep.failure("heavy job was not admitted".to_string());
        return ep;
    };
    // B may already have given up on a dead episode; nothing to tell then.
    let _ = to_b.send((id, replied));
    let path = format!("/jobs/{id}/result?wait_ms={LONG_POLL_MS}");
    loop {
        let (reply, replied) = ep.request(client, None, "GET", &path, None);
        match reply {
            Ok((200, v)) => {
                match settled(&plan.heavy, &v) {
                    Ok(s) => {
                        ep.heavy_s.push(clock::secs_between(due, replied));
                        ep.settled.push(s);
                    }
                    Err(e) => ep.failure(e),
                }
                return ep;
            }
            Ok((202, _)) if clock::secs_between(due, replied) < JOB_DEADLINE_S => {}
            Ok((status, _)) => {
                ep.failure(format!("heavy result: HTTP {status}"));
                return ep;
            }
            Err(e) => {
                ep.failure(format!("heavy result: {e}"));
                return ep;
            }
        }
    }
}

/// Submits one interactive job and polls it until it settles. Returns
/// `(first estimate, settled, job id)` with times from `due`.
fn interactive_job(
    ep: &mut Episode,
    client: &mut HttpClient,
    spec: &Spec,
    tenant: &str,
    due: Instant,
) -> Result<(f64, f64, u64), String> {
    let body = spec.submission(tenant);
    let (reply, _) = ep.request(client, Some(Route::PostJobs), "POST", "/jobs", Some(&body));
    let id = match reply? {
        (201, v) => field_u64(&v, &["job_id"]).ok_or("submit reply without job_id")?,
        (status, _) => return Err(format!("{} not admitted: HTTP {status}", spec.scenario.id)),
    };
    let path = format!("/jobs/{id}");
    let mut first = None;
    loop {
        let (reply, replied) = ep.request(client, Some(Route::GetJob), "GET", &path, None);
        let status = match reply? {
            (200, v) => v,
            (status, _) => return Err(format!("poll of job {id}: HTTP {status}")),
        };
        let elapsed = clock::secs_between(due, replied);
        if first.is_none() && field_u64(&status, &["snapshot", "samples"]).unwrap_or(0) > 0 {
            first = Some(elapsed);
        }
        if state_of(&status) != "Running" {
            let first = first.ok_or_else(|| format!("job {id} settled without a sample"))?;
            return Ok((first, elapsed, id));
        }
        if elapsed > JOB_DEADLINE_S {
            return Err(format!("job {id} did not settle in time"));
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// Connection B: the phase-locked open-loop schedule.
fn run_b(
    client: &mut HttpClient,
    plan: &Plan,
    schedule: &[(u64, Item)],
    from_a: mpsc::Receiver<(u64, Instant)>,
) -> Episode {
    let mut ep = Episode::default();
    let Ok((heavy, admitted)) = from_a.recv() else {
        // No heavy job: every scheduled request fails.
        ep.attempted += schedule.len() as u64;
        ep.failed += schedule.len() as u64;
        return ep;
    };
    let mut submitted = Vec::new();
    for &(offset_ms, item) in schedule {
        let due = admitted + Duration::from_millis(offset_ms);
        let now = clock::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        ep.late_ms
            .push(clock::secs_between(due, clock::now()) * 1e3);
        ep.attempted += 1;
        match item {
            Item::Control(control) => {
                let (route, path) = match control {
                    Control::Healthz => (Route::Healthz, "/healthz".to_string()),
                    Control::HeavyStatus => (Route::GetJob, format!("/jobs/{heavy}")),
                    Control::Stats => (Route::Stats, "/stats".to_string()),
                    Control::HeavyResultNow => {
                        (Route::GetResult, format!("/jobs/{heavy}/result?wait_ms=0"))
                    }
                };
                let (reply, replied) = ep.request(client, Some(route), "GET", &path, None);
                let ok = match &reply {
                    Ok((200, _)) => true,
                    Ok((202, _)) => control == Control::HeavyResultNow,
                    _ => false,
                };
                if ok {
                    ep.control_ms.push(clock::secs_between(due, replied) * 1e3);
                } else {
                    // A failed request misses every latency limit.
                    ep.control_ms.push(f64::INFINITY);
                    ep.failure(format!("GET {path} failed"));
                }
            }
            Item::Interactive(kind) => {
                let (spec, tenant) = &plan.interactive[kind];
                match interactive_job(&mut ep, client, spec, tenant, due) {
                    Ok((first, settled_s, id)) => {
                        ep.first_s.push(first);
                        ep.job_s.push(settled_s);
                        submitted.push((kind, id));
                    }
                    Err(e) => {
                        ep.first_s.push(f64::INFINITY);
                        ep.job_s.push(f64::INFINITY);
                        ep.failure(e);
                    }
                }
            }
        }
    }
    for (kind, id) in submitted {
        let spec = &plan.interactive[kind].0;
        let path = format!("/jobs/{id}/result?wait_ms=0");
        match ep.request(client, None, "GET", &path, None).0 {
            Ok((200, v)) => match settled(spec, &v) {
                Ok(s) => ep.settled.push(s),
                Err(e) => ep.failure(e),
            },
            _ => ep.failure(format!("no result for settled job {id}")),
        }
    }
    ep
}

/// Runs one episode on the two connections.
fn episode(
    a: &mut HttpClient,
    b: &mut HttpClient,
    plan: &Plan,
    schedule: &[(u64, Item)],
) -> Episode {
    let (to_b, from_a) = mpsc::channel();
    std::thread::scope(|scope| {
        let b_side = scope.spawn(|| run_b(b, plan, schedule, from_a));
        let mut ep = run_a(a, plan, to_b);
        ep.merge(b_side.join().expect("connection B panicked"));
        ep
    })
}

/// Takes `ServerState::scheduler.lock()` at fixed due times every
/// [`PROBE_PERIOD`] until `stop`; returns each acquisition's delay from its
/// due time in ms, so a long hold counts once per due time it covers.
fn lock_probe(state: &ServerState, stop: &AtomicBool) -> Vec<f64> {
    let start = clock::now();
    let mut waits = Vec::new();
    let mut due = start;
    while !stop.load(Ordering::Relaxed) {
        let now = clock::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        drop(state.scheduler.lock().expect("scheduler lock poisoned"));
        waits.push(clock::secs_between(due, clock::now()) * 1e3);
        due += PROBE_PERIOD;
    }
    waits
}

/// A running server and its two client connections.
struct Rig {
    server: Server,
    a: HttpClient,
    b: HttpClient,
}

impl Rig {
    fn start() -> Result<Rig, String> {
        let scheduler = Scheduler::new(SchedulerConfig {
            threads: 1,
            seed: workloads::SERVER_SEED,
            smoke: false,
        });
        let server = Server::start("127.0.0.1:0", ServerState::new(scheduler))
            .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
        let addr = server.addr().to_string();
        Ok(Rig {
            server,
            a: HttpClient::with_timeout(&addr, SOCKET_TIMEOUT),
            b: HttpClient::with_timeout(&addr, SOCKET_TIMEOUT),
        })
    }

    fn episode(&mut self, plan: &Plan, schedule: &[(u64, Item)]) -> Episode {
        episode(&mut self.a, &mut self.b, plan, schedule)
    }

    /// Runs the episodes `next` plans — it gets the episodes done and the
    /// seconds spent, and returns `None` to stop — optionally with the lock
    /// probe. Returns the merged episodes, their count, the wall time and
    /// the probe's waits.
    fn measure(
        &mut self,
        next: &mut dyn FnMut(u64, f64) -> Option<Plan>,
        schedule: &[(u64, Item)],
        probe: bool,
    ) -> (Episode, u64, f64, Vec<f64>) {
        let stop = AtomicBool::new(false);
        let state = self.server.state();
        std::thread::scope(|scope| {
            let prober = probe.then(|| scope.spawn(|| lock_probe(&state, &stop)));
            let start = clock::now();
            let mut all = Episode::default();
            let mut count = 0u64;
            while let Some(plan) = next(count, clock::secs_since(start)) {
                all.merge(self.episode(&plan, schedule));
                count += 1;
            }
            let wall = clock::secs_since(start);
            stop.store(true, Ordering::Relaxed);
            let waits = prober
                .map(|h| h.join().expect("lock probe panicked"))
                .unwrap_or_default();
            (all, count, wall, waits)
        })
    }

    /// Scheduler ticks (`GET /stats`) and wire counters, then shutdown.
    fn stop(mut self) -> (u64, HttpStats) {
        let ticks = match self.a.request("GET", "/stats", None) {
            Ok((200, text)) => serde_json::from_str::<Value>(&text)
                .ok()
                .and_then(|v| field_u64(&v, &["ticks"]))
                .unwrap_or(0),
            _ => 0,
        };
        let http = self.server.http_stats();
        self.server.state().request_shutdown();
        self.server.join();
        (ticks, http)
    }
}

/// Plans episodes `0, 1, …` of the mix while `more(done, elapsed)` holds.
fn episodes(seed: u64, more: impl Fn(u64, f64) -> bool) -> impl FnMut(u64, f64) -> Option<Plan> {
    move |done, elapsed| more(done, elapsed).then(|| Plan::episode(seed, done))
}

/// Starts the server [`SETUP_REPEATS`] times, each through one untimed
/// warm-up episode; keeps the last. Returns the rig, the set-up times and
/// the warm-up episodes.
fn set_up(seed: u64) -> Result<(Rig, Vec<f64>, Episode), String> {
    let mut setup_s = Vec::new();
    let mut warmups = Episode::default();
    let mut rig = None;
    for r in 0..SETUP_REPEATS {
        if let Some(old) = rig.take() {
            Rig::stop(old);
        }
        let start = clock::now();
        let mut fresh = Rig::start()?;
        warmups.merge(fresh.episode(&Plan::episode(seed, WARMUP_EPISODE + r), SCHEDULE));
        setup_s.push(clock::secs_since(start));
        rig = Some(fresh);
    }
    Ok((rig.expect("at least one set-up"), setup_s, warmups))
}

/// What the local batch runs of the served scenarios leave for the layer
/// metrics.
struct LocalRuns {
    /// Outcomes of the traced heavy runs.
    heavy: Vec<JobOutcome>,
    /// `build_workload` time of every distinct scenario, ms.
    build_ms: Vec<f64>,
    /// The workload of the first traced heavy run.
    first_heavy: Option<Workload>,
}

/// Runs every distinct served scenario through the local batch path and
/// checks each served estimate against it bit for bit. With `tracer`, the
/// heavy scenarios run traced and their outcomes are returned.
fn check_against_batch(
    result: &mut RunResult,
    served: &[&Settled],
    tracer: Option<&Arc<Tracer>>,
) -> Result<LocalRuns, String> {
    let ctx = workloads::server_context();
    let mut local: BTreeMap<&str, u64> = BTreeMap::new();
    let mut traced_jobs = Vec::new();
    let mut build_ms = Vec::new();
    let mut first_heavy = None;
    for s in served {
        if let Some(&bits) = local.get(s.key.as_str()) {
            if bits != s.bits {
                result.fail(format!(
                    "served {} differs from its batch run",
                    s.scenario.id
                ));
            }
            continue;
        }
        let start = clock::now();
        let workload = build_workload(&s.scenario, &ctx)?;
        build_ms.push(clock::secs_since(start) * 1e3);
        let is_heavy = s.scenario.id == "heavy";
        let traced = match tracer {
            Some(t) if is_heavy => Some(Traced {
                tracer: t,
                job: traced_jobs.len() as u64,
            }),
            _ => None,
        };
        let keep = traced.is_some() && first_heavy.is_none();
        // Traced runs mirror the server's one worker thread, since their
        // step times stand in for its scheduling quantum; the rest check
        // on both cores (estimates are bit-identical at any thread count).
        let threads = if traced.is_some() { 1 } else { 2 };
        let outcome = job::run(&workload, 0, threads, traced, keep)?;
        if outcome.bits() != s.bits {
            result.fail(format!(
                "served {} estimate {:016x} differs from its batch run {:016x}",
                s.scenario.id,
                s.bits,
                outcome.bits()
            ));
        }
        local.insert(&s.key, outcome.bits());
        if tracer.is_some() && is_heavy {
            if first_heavy.is_none() {
                first_heavy = Some(workload);
            }
            traced_jobs.push(outcome);
        }
    }
    Ok(LocalRuns {
        heavy: traced_jobs,
        build_ms,
        first_heavy,
    })
}

fn route_ms(spans: &[(Route, Instant, Instant)], route: Route) -> Vec<f64> {
    spans
        .iter()
        .filter(|(r, _, _)| *r == route)
        .map(|(_, s, e)| clock::secs_between(*s, *e) * 1e3)
        .collect()
}

/// The end-to-end metrics of a set of measured episodes (all but
/// `peak_rss_mb`).
fn end_to_end(result: &mut RunResult, ep: &Episode, wall_s: f64, setup_s: &[f64]) {
    let pct = |v: &[f64], p| stats::percentile(v, p).unwrap_or(f64::NAN);
    let samples: u64 = ep.settled.iter().map(|s| s.samples).sum();
    let overshoot: Vec<f64> = ep
        .settled
        .iter()
        .map(|s| s.queries as f64 / s.budget as f64)
        .collect();
    result.push("setup_s", stats::median(setup_s).unwrap_or(f64::NAN), "s");
    result.push("job_s.p50", pct(&ep.job_s, 50.0), "s");
    result.push("first_estimate_s.p50", pct(&ep.first_s, 50.0), "s");
    result.push("samples_per_s", samples as f64 / wall_s, "1/s");
    result.push(
        "budget_overshoot",
        stats::mean(&overshoot).unwrap_or(f64::NAN),
        "ratio",
    );
    result.push("control_ms.p50", pct(&ep.control_ms, 50.0), "ms");
    result.push("control_ms.p90", pct(&ep.control_ms, 90.0), "ms");
}

/// The server-side per-layer metrics of measured episodes.
fn server_layers(
    result: &mut RunResult,
    ep: &Episode,
    lock_waits: &[f64],
    ticks: u64,
    http: &HttpStats,
) {
    let pct = |v: &[f64], p| stats::percentile(v, p).unwrap_or(0.0);
    for (route, _, p50, p95) in ROUTES {
        let ms = route_ms(&ep.spans, route);
        result.push(p50, pct(&ms, 50.0), "ms");
        result.push(p95, pct(&ms, 95.0), "ms");
    }
    result.push("scheduler.lock_wait_ms.p50", pct(lock_waits, 50.0), "ms");
    result.push("scheduler.lock_wait_ms.p95", pct(lock_waits, 95.0), "ms");
    result.push("scheduler.ticks", ticks as f64, "count");
    result.push("scheduler.heavy_job_s.p50", pct(&ep.heavy_s, 50.0), "s");
    result.push("queue.high_water", http.queue_high_water as f64, "count");
    result.push("http.queue_429", http.queue_429 as f64, "count");
    result.push("http.quota_429", http.quota_429 as f64, "count");
    result.push("generator.late_ms.max", pct(&ep.late_ms, 100.0), "ms");
}

fn record_spans(tracer: &Tracer, ep: &Episode) {
    for &(route, start, end) in &ep.spans {
        let name = ROUTES.iter().find(|r| r.0 == route).map_or("http", |r| r.1);
        tracer.record(name, 0, ROOT, start, end);
    }
}

fn count_ops(result: &mut RunResult, ep: &Episode) {
    result.attempted += ep.attempted;
    result.failed += ep.failed;
    for e in &ep.errors {
        result.fail(e.clone());
    }
}

/// Runs the served mix for `seconds` and reports its end-to-end metrics,
/// or (`traced`) its per-layer metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let (mut rig, setup_s, warmups) = set_up(seed)?;
    if !traced {
        let mut next = episodes(seed, |done, elapsed| done == 0 || elapsed < seconds);
        let (ep, count, wall, _) = rig.measure(&mut next, SCHEDULE, false);
        rig.stop();
        count_ops(&mut result, &ep);
        end_to_end(&mut result, &ep, wall, &setup_s);
        result.push("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
        result.note(format!(
            "{count} episodes; estimate digest {:016x}",
            digest(ep.settled.iter().map(|s| s.bits))
        ));
        if let (Some((q1, q3)), Some(p90)) = (
            stats::quartiles(&ep.heavy_s),
            stats::percentile(&ep.first_s, 90.0),
        ) {
            result.note(format!(
                "heavy job_s: q1 {q1:.3}, q3 {q3:.3}; interactive first_estimate_s.p90 {p90:.3}"
            ));
        }
        let served: Vec<&Settled> = warmups.settled.iter().chain(&ep.settled).collect();
        check_against_batch(&mut result, &served, None)?;
        return Ok(result);
    }

    // Traced: untraced episodes for half the time, then the same episodes
    // on a fresh server (so the answer cache starts equally cold) with the
    // lock probe and request spans.
    let mut next = episodes(seed, |done, elapsed| done == 0 || elapsed < seconds / 2.0);
    let (plain, count, plain_wall, _) = rig.measure(&mut next, SCHEDULE, false);
    rig.stop();
    let (mut rig, _, traced_warmups) = set_up(seed)?;
    let mut next = episodes(seed, |done, _| done < count);
    let (ep, _, wall, waits) = rig.measure(&mut next, SCHEDULE, true);
    let (ticks, http) = rig.stop();
    count_ops(&mut result, &plain);
    count_ops(&mut result, &ep);
    for (p, t) in plain.settled.iter().zip(&ep.settled) {
        if p.bits != t.bits {
            result.fail(format!(
                "traced {} estimate {:016x} differs from untraced {:016x}",
                t.scenario.id, t.bits, p.bits
            ));
        }
    }
    let mut untraced_e2e = RunResult::default();
    end_to_end(&mut untraced_e2e, &plain, plain_wall, &setup_s);
    let mut traced_e2e = RunResult::default();
    end_to_end(&mut traced_e2e, &ep, wall, &setup_s);
    overhead_notes(&mut result, &untraced_e2e, &traced_e2e);
    result.note(format!(
        "{count} episodes per pass; estimate digest {:016x}",
        digest(ep.settled.iter().map(|s| s.bits))
    ));

    server_layers(&mut result, &ep, &waits, ticks, &http);
    let tracer = Tracer::new();
    record_spans(&tracer, &ep);
    let served: Vec<&Settled> = warmups
        .settled
        .iter()
        .chain(&plain.settled)
        .chain(&traced_warmups.settled)
        .chain(&ep.settled)
        .collect();
    let LocalRuns {
        heavy: mut heavy_jobs,
        build_ms,
        first_heavy,
    } = check_against_batch(&mut result, &served, Some(&tracer))?;
    let refs: Vec<&JobOutcome> = heavy_jobs.iter().collect();
    layers::sessions(&mut result, &refs, &tracer);
    let reports: Vec<_> = heavy_jobs.iter().map(|j| j.snapshot.engine).collect();
    layers::engine(&mut result, &reports);
    let first = heavy_jobs.first_mut().ok_or("no heavy job was served")?;
    let heavy = first_heavy.ok_or("no heavy job was served")?;
    let seen = first.seen.take().unwrap_or_default();
    layers::index(
        &mut result,
        &heavy.dataset,
        &seen.points,
        heavy.service_config.k,
    );
    let mut history = first.history.take().ok_or("heavy job kept no History")?;
    layers::geometry(
        &mut result,
        &mut history,
        &heavy.dataset,
        &heavy.region,
        first.snapshot.samples,
    );
    result.push(
        "scenario.build_ms",
        stats::median(&build_ms).unwrap_or(0.0),
        "ms",
    );
    result.push(
        "trace.overhead_share",
        relative(&untraced_e2e, &traced_e2e, "control_ms.p50"),
        "ratio",
    );
    write_spans(&mut result, &tracer, "served_mix");
    Ok(result)
}

/// Serves one job of a batch workload (repetition 0 of `spec`) with
/// connection B sending control requests while it runs, checks the served
/// estimate against `expected_bits`, and reports the server layers.
pub fn serve_one(result: &mut RunResult, spec: &Spec, expected_bits: u64) -> Result<(), String> {
    let mut rig = Rig::start()?;
    let mut plan = Some(Plan {
        heavy: spec.clone(),
        interactive: Vec::new(),
    });
    let (ep, _, _, waits) = rig.measure(&mut |_, _| plan.take(), CONTROL_ONLY, true);
    let (ticks, http) = rig.stop();
    count_ops(result, &ep);
    match ep.settled.first() {
        Some(s) if s.bits == expected_bits => {}
        Some(s) => result.fail(format!(
            "served {} estimate {:016x} differs from its batch run {expected_bits:016x}",
            s.scenario.id, s.bits
        )),
        None => result.fail("the served job did not settle"),
    }
    server_layers(result, &ep, &waits, ticks, &http);
    Ok(())
}
