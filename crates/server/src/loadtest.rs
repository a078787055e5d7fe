//! Concurrent-load probe of the event-driven serving layer (`repro
//! loadtest`).
//!
//! Starts an in-process [`Server`] on an ephemeral loopback port with a
//! deliberately small submission queue, then hammers it from N concurrent
//! [`HttpClient`]s, each submitting a stream of distinct seed-pinned
//! scenarios over one keep-alive connection. Backpressure (`429 Too Many
//! Requests`) is retried — never counted as a drop — and every served
//! result can be verified bitwise against a local batch run of the same
//! scenario (`check_batch`), which is the determinism contract under
//! concurrent load: admission order may vary run to run, but each job's
//! estimate may not.
//!
//! The outcome is a [`LoadtestBenchReport`], which `repro loadtest` writes
//! to `BENCH_loadtest.json`: p50/p95/p99 submit→first-estimate latency,
//! jobs/s, keep-alive reuse rate and the `429` split, checked by
//! [`LoadtestBenchReport::violations`].
//!
//! This module measures wall-clock latencies by design; it is the one
//! module allowlisted for the `ambient-time` lint. No served estimate
//! depends on any clock read here.

use std::time::{Duration, Instant};

use lbs_bench::{Scale, Scenario, ScenarioContext};
use serde::{Deserialize, Serialize, Value};

use crate::event_loop::{Server, ServerConfig, ServerState};
use crate::http::{value_u64, HttpClient};
use crate::scheduler::{Scheduler, SchedulerConfig};

/// Knobs of [`run_loadtest`], mirroring the `repro loadtest` flags.
///
/// ```
/// use lbs_server::LoadtestOptions;
///
/// let options = LoadtestOptions {
///     clients: 8,                  // --clients
///     jobs_per_client: 2,          // --jobs
///     queue_depth: 4,              // --queue-depth
///     check_batch: true,           // --check-batch
///     ..LoadtestOptions::default()
/// };
/// assert_eq!(options.budget, 120); // --budget
/// assert_eq!(options.seed, 2015);  // --seed
/// assert_eq!(options.threads, 1);  // --threads
/// ```
#[derive(Clone, Debug)]
pub struct LoadtestOptions {
    /// Concurrent client threads (`--clients`).
    pub clients: usize,
    /// Jobs each client submits (`--jobs`).
    pub jobs_per_client: usize,
    /// Submission-queue bound of the probed server (`--queue-depth`) —
    /// small on purpose, so saturation and `429` retries are reachable.
    pub queue_depth: usize,
    /// Query budget of each probe scenario (`--budget`).
    pub budget: u64,
    /// Root seed; every scenario pins a seed derived from it (`--seed`).
    pub seed: u64,
    /// Scheduler worker threads (`--threads`; never changes bits).
    pub threads: usize,
    /// Verify every served result bitwise against a local batch run
    /// (`--check-batch`).
    pub check_batch: bool,
}

impl Default for LoadtestOptions {
    fn default() -> Self {
        LoadtestOptions {
            clients: 4,
            jobs_per_client: 3,
            queue_depth: 8,
            budget: 120,
            seed: 2015,
            threads: 1,
            check_batch: true,
        }
    }
}

/// Concurrent-load probe of the event-driven serving layer: N keep-alive
/// clients hammer a loopback server with job submissions (retrying on
/// `429` backpressure), and every admitted job's served result is compared
/// bitwise against a local batch run of the same scenario.
#[derive(Clone, Debug, Serialize)]
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

impl LoadtestBenchReport {
    /// The conditions `repro loadtest` exits non-zero on:
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

/// Builds the scenario client `c` submits as its `j`-th job: a tiny uniform
/// COUNT workload with a pinned per-job seed, so the expected estimate is a
/// pure function of `(c, j, root seed, budget)` — reproducible by the batch
/// check no matter the admission order.
fn loadtest_scenario(c: usize, j: usize, options: &LoadtestOptions) -> (Value, Scenario) {
    let toml = format!(
        "id = \"lt_{c}_{j}\"\nseed = {}\n\n[dataset]\nmodel = \"uniform\"\nsize = {}\n\n\
         [interface]\nkind = \"lr\"\nk = 5\n\n[aggregate]\nkind = \"count\"\n\n\
         [estimator]\nalgorithm = \"lr\"\nbudget = {}\n\n[session]\nwave_size = 8\n",
        options.seed ^ (0x10AD + 97 * c as u64 + j as u64),
        40 + 10 * ((c + j) % 4),
        options.budget + 20 * (j as u64 % 3),
    );
    let value = lbs_bench::toml_lite::parse(&toml).expect("loadtest scenario TOML is well-formed");
    let scenario = Scenario::from_value(&value).expect("loadtest scenario deserializes");
    scenario.validate().expect("loadtest scenario validates");
    (value, scenario)
}

/// What one client thread brings home.
struct ClientOutcome {
    /// Submit→first-estimate latency of each completed job, milliseconds.
    first_estimate_ms: Vec<f64>,
    /// `(job index, served estimate)` of each completed job.
    served: Vec<(usize, f64)>,
    requests: u64,
    connections: u64,
    /// Errors of jobs that never completed (each one is a dropped job).
    errors: Vec<String>,
}

fn run_client(addr: &str, c: usize, options: &LoadtestOptions) -> ClientOutcome {
    let mut client = HttpClient::new(addr);
    let mut outcome = ClientOutcome {
        first_estimate_ms: Vec::new(),
        served: Vec::new(),
        requests: 0,
        connections: 0,
        errors: Vec::new(),
    };
    for j in 0..options.jobs_per_client {
        match run_job(&mut client, c, j, options) {
            Ok((latency_ms, served_value)) => {
                outcome.first_estimate_ms.push(latency_ms);
                outcome.served.push((j, served_value));
            }
            Err(e) => outcome.errors.push(format!("client {c} job {j}: {e}")),
        }
    }
    outcome.requests = client.requests_sent();
    outcome.connections = client.connections_opened();
    outcome
}

/// Submits one job (retrying `429` backpressure), waits for its first
/// anytime estimate and then its final result. Returns
/// `(submit→first-estimate ms, served estimate)`.
fn run_job(
    client: &mut HttpClient,
    c: usize,
    j: usize,
    options: &LoadtestOptions,
) -> Result<(f64, f64), String> {
    let (scenario_value, _) = loadtest_scenario(c, j, options);
    let body = serde_json::to_string(&Value::Map(vec![
        ("tenant".to_string(), Value::Str(format!("lt_{c}"))),
        ("scenario".to_string(), scenario_value),
    ]))
    .map_err(|e| e.to_string())?;

    let submitted = Instant::now();
    let deadline = submitted + Duration::from_secs(120);
    // Admission: `429 Too Many Requests` is the server saying "not now",
    // not "no" — honour it with a short back-off and retry until admitted.
    let job_id = loop {
        let (status, reply) = client.request("POST", "/jobs", Some(&body))?;
        match status {
            201 => {
                let reply: Value =
                    serde_json::from_str(&reply).map_err(|e| format!("bad submit reply: {e}"))?;
                break value_u64(&reply, "job_id")
                    .ok_or_else(|| "submit reply without job_id".to_string())?;
            }
            429 => {
                if Instant::now() >= deadline {
                    return Err("still backpressured at the deadline".to_string());
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            other => return Err(format!("submit failed (HTTP {other}): {reply}")),
        }
    };

    // First anytime estimate: the first snapshot with ≥ 1 completed sample.
    let first_estimate_ms = loop {
        let (status, reply) = client.request("GET", &format!("/jobs/{job_id}"), None)?;
        if status != 200 {
            return Err(format!("poll failed (HTTP {status}): {reply}"));
        }
        let parsed: Value =
            serde_json::from_str(&reply).map_err(|e| format!("bad poll reply: {e}"))?;
        let samples = parsed
            .get("snapshot")
            .and_then(|s| value_u64(s, "samples"))
            .unwrap_or(0);
        if samples > 0 {
            break submitted.elapsed().as_secs_f64() * 1e3;
        }
        let running = matches!(parsed.get("state"), Some(Value::Str(s)) if s == "Running");
        if !running {
            return Err("job settled without a single sample".to_string());
        }
        if Instant::now() >= deadline {
            return Err("no first estimate before the deadline".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    };

    // Final result (long-poll; tiny jobs settle in milliseconds).
    loop {
        let (status, reply) =
            client.request("GET", &format!("/jobs/{job_id}/result?wait_ms=2000"), None)?;
        match status {
            200 => {
                let result: Value =
                    serde_json::from_str(&reply).map_err(|e| format!("bad result reply: {e}"))?;
                let value = result
                    .get("estimate")
                    .and_then(|e| e.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| "job settled without an estimate".to_string())?;
                return Ok((first_estimate_ms, value));
            }
            202 => {
                if Instant::now() >= deadline {
                    return Err("job never settled before the deadline".to_string());
                }
            }
            other => return Err(format!("result fetch failed (HTTP {other}): {reply}")),
        }
    }
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.saturating_sub(1).min(sorted_ms.len() - 1)]
}

/// Runs the concurrent-load probe and returns its report. Errors only on
/// setup failure (e.g. no loopback port); client-side job failures are
/// reported as `dropped_jobs` so [`LoadtestBenchReport::violations`] — not
/// an early return — judges them.
pub fn run_loadtest(options: &LoadtestOptions) -> Result<LoadtestBenchReport, String> {
    let scheduler = Scheduler::new(SchedulerConfig {
        threads: options.threads,
        seed: options.seed,
        smoke: false,
    });
    let state = ServerState::new(scheduler);
    let config = ServerConfig {
        queue_depth: options.queue_depth,
        ..ServerConfig::default()
    };
    let server = Server::start_with_config("127.0.0.1:0", state, config)
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    let addr = server.addr().to_string();

    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || run_client(&addr, c, options))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadtest client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let http = server.http_stats();
    let state = server.state();
    state.request_shutdown();
    server.join();

    let mut latencies: Vec<f64> = Vec::new();
    let mut requests = 0u64;
    let mut connections = 0u64;
    let mut completed = 0usize;
    let mut batch_identical = true;
    for (c, outcome) in outcomes.iter().enumerate() {
        latencies.extend_from_slice(&outcome.first_estimate_ms);
        requests += outcome.requests;
        connections += outcome.connections;
        completed += outcome.served.len();
        for error in &outcome.errors {
            eprintln!("loadtest: {error}");
        }
        if options.check_batch {
            // Re-run each served scenario through the local batch path and
            // require bitwise equality. The context mirrors the server's
            // `scenario_context()`; the pinned per-scenario seed makes the
            // root seed irrelevant, and thread count never changes bits.
            let ctx = ScenarioContext {
                scale: Scale::Small,
                seed: options.seed,
                threads: 1,
                smoke: false,
            };
            for &(j, served_value) in &outcome.served {
                let (_, scenario) = loadtest_scenario(c, j, options);
                let workload = lbs_bench::build_workload(&scenario, &ctx)?;
                let backend = workload.backend();
                let mut session = workload.start_session(backend, workload.session_config(1, 0))?;
                while !session.is_finished() {
                    session.run_wave();
                }
                let local = session
                    .finalize()
                    .map_err(|e| format!("local batch run of lt_{c}_{j} failed: {e}"))?;
                if local.value.to_bits() != served_value.to_bits() {
                    eprintln!(
                        "loadtest: lt_{c}_{j} served {served_value} but batch produced {} \
                         (bitwise comparison)",
                        local.value
                    );
                    batch_identical = false;
                }
            }
        }
    }
    latencies.sort_by(|a, b| a.total_cmp(b));

    let expected = options.clients * options.jobs_per_client;
    Ok(LoadtestBenchReport {
        clients: options.clients,
        jobs_per_client: options.jobs_per_client,
        completed_jobs: completed,
        dropped_jobs: expected.saturating_sub(completed),
        wall_s,
        jobs_per_s: completed as f64 / wall_s.max(1e-9),
        p50_first_estimate_ms: percentile(&latencies, 50.0),
        p95_first_estimate_ms: percentile(&latencies, 95.0),
        p99_first_estimate_ms: percentile(&latencies, 99.0),
        http_requests: requests,
        connections,
        keep_alive_reuse: if requests > 0 {
            1.0 - connections as f64 / requests as f64
        } else {
            0.0
        },
        queue_429: http.queue_429,
        quota_429: http.quota_429,
        queue_depth: http.queue_capacity,
        queue_high_water: http.queue_high_water,
        check_batch: options.check_batch,
        batch_identical: options.check_batch && batch_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loadtest_probe_completes_and_matches_batch() {
        let report = run_loadtest(&LoadtestOptions {
            clients: 2,
            jobs_per_client: 2,
            queue_depth: 2,
            budget: 60,
            ..LoadtestOptions::default()
        })
        .expect("loadtest runs");
        assert_eq!(report.completed_jobs, 4);
        assert_eq!(report.dropped_jobs, 0);
        assert!(
            report.batch_identical,
            "served estimates diverged from batch"
        );
        assert!(report.jobs_per_s > 0.0);
        assert!(report.p95_first_estimate_ms >= report.p50_first_estimate_ms);
        assert!(report.p99_first_estimate_ms >= report.p95_first_estimate_ms);
        // One keep-alive connection per client unless a retry reconnected.
        assert!(report.connections >= 2);
        assert!(report.http_requests > report.connections);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
    }

    #[test]
    fn violations_flag_dropped_premature_and_divergent_runs() {
        let report = |dropped: usize, queue_429: u64, high_water: usize, identical: bool| {
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
        assert!(report(0, 5, 8, true).violations().is_empty());
        assert!(report(2, 0, 8, true)
            .violations()
            .iter()
            .any(|v| v.contains("dropped")));
        // 429s without the queue ever filling: the server pushed back
        // before it had to.
        assert!(report(0, 5, 3, true)
            .violations()
            .iter()
            .any(|v| v.contains("premature backpressure")));
        assert!(report(0, 0, 0, false)
            .violations()
            .iter()
            .any(|v| v.contains("determinism regression under concurrent load")));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 95.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }
}
