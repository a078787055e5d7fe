//! End-to-end test of the HTTP front-end: a real `TcpListener` server on an
//! ephemeral loopback port, driven through the same [`http_request`] client
//! that `repro client` uses.

use std::time::{Duration, Instant};

use lbs_server::{http_request, Scheduler, SchedulerConfig, Server, ServerState};
use serde::Value;

/// Longest a request may take while a job's chunk round runs.
const RESPONSIVE: Duration = Duration::from_millis(250);

fn scenario_json(id: &str, seed: u64, budget: u64) -> String {
    scenario_json_with(id, seed, budget, "")
}

/// A scenario with extra top-level sections (e.g. a `backend` block).
fn scenario_json_with(id: &str, seed: u64, budget: u64, extra: &str) -> String {
    format!(
        r#"{{"id":"{id}","seed":{seed},{extra}
            "dataset":{{"model":"uniform","size":50}},
            "interface":{{"kind":"lr","k":5}},
            "aggregate":{{"kind":"count"}},
            "estimator":{{"algorithm":"lr","budget":{budget}}}}}"#
    )
}

/// The test's clock: request latencies and a give-up deadline.
fn now() -> Instant {
    // lbs-lint: allow(ambient-time, reason = "test-harness latency bound and deadline; no estimate depends on it")
    Instant::now()
}

/// Sends one request and asserts that the reply came within [`RESPONSIVE`].
fn timed_request(addr: &str, method: &str, path: &str) -> (u16, String) {
    let start = now();
    let reply = http_request(addr, method, path, None).unwrap();
    let took = start.elapsed();
    assert!(
        took < RESPONSIVE,
        "{method} {path} took {took:?} while a job was running"
    );
    reply
}

fn get_u64(value: &Value, key: &str) -> u64 {
    match value.get(key) {
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) => *n as u64,
        Some(Value::F64(n)) => *n as u64,
        other => panic!("field {key} missing or non-numeric: {other:?}"),
    }
}

#[test]
fn submit_poll_result_cancel_over_real_sockets() {
    let state = ServerState::new(Scheduler::new(SchedulerConfig::default()));
    let server = Server::start("127.0.0.1:0", state).expect("bind ephemeral port");
    let addr = server.addr().to_string();

    // Health check.
    let (status, body) = http_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("true"));

    // Submit a small job and long-poll its result.
    let body = format!(
        r#"{{"tenant":"e2e","scenario":{}}}"#,
        scenario_json("http_roundtrip", 3, 120)
    );
    let (status, reply) = http_request(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201, "{reply}");
    let reply: Value = serde_json::from_str(&reply).unwrap();
    let job_id = get_u64(&reply, "job_id");

    let (status, result) = http_request(
        &addr,
        "GET",
        &format!("/jobs/{job_id}/result?wait_ms=60000"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{result}");
    let result: Value = serde_json::from_str(&result).unwrap();
    assert_eq!(
        result.get("status"),
        Some(&Value::Str("Done".to_string())),
        "{result:?}"
    );
    let estimate = result.get("estimate").expect("final estimate present");
    assert!(get_u64(estimate, "query_cost") >= 120);
    assert!(get_u64(estimate, "samples") > 0);

    // Poll endpoint agrees.
    let (status, poll) = http_request(&addr, "GET", &format!("/jobs/{job_id}"), None).unwrap();
    assert_eq!(status, 200);
    let poll: Value = serde_json::from_str(&poll).unwrap();
    assert_eq!(poll.get("tenant"), Some(&Value::Str("e2e".to_string())));
    let snapshot = poll.get("snapshot").expect("snapshot present");
    assert!(get_u64(snapshot, "samples") > 0);

    // Submit a long job whose every query takes 5 ms, so one chunk round
    // runs for a while. Every request must still be answered promptly,
    // and the cancel must land while the job runs.
    let body = format!(
        r#"{{"scenario":{}}}"#,
        scenario_json_with(
            "http_cancel",
            5,
            1_000_000,
            r#""backend":{"latency_ms":5},"#
        )
    );
    let (status, reply) = http_request(&addr, "POST", "/jobs", Some(&body)).unwrap();
    assert_eq!(status, 201);
    let reply: Value = serde_json::from_str(&reply).unwrap();
    let cancel_id = get_u64(&reply, "job_id");
    let job_path = format!("/jobs/{cancel_id}");
    let deadline = now() + Duration::from_secs(60);
    loop {
        let (status, poll) = timed_request(&addr, "GET", &job_path);
        assert_eq!(status, 200, "{poll}");
        let poll: Value = serde_json::from_str(&poll).unwrap();
        assert_eq!(poll.get("state"), Some(&Value::Str("Running".to_string())));
        if get_u64(poll.get("snapshot").expect("snapshot present"), "samples") > 0 {
            break;
        }
        assert!(now() < deadline, "no chunk round completed");
        std::thread::sleep(Duration::from_millis(10));
    }
    for path in [
        "/healthz".to_string(),
        "/stats".to_string(),
        job_path.clone(),
        format!("{job_path}/result?wait_ms=0"),
    ] {
        let (status, reply) = timed_request(&addr, "GET", &path);
        assert!(status == 200 || status == 202, "{path}: {status} {reply}");
    }
    let (status, reply) = timed_request(&addr, "DELETE", &job_path);
    assert_eq!(status, 200);
    assert!(reply.contains(r#""cancelled":true"#), "{reply}");
    let (status, result) = http_request(
        &addr,
        "GET",
        &format!("{job_path}/result?wait_ms=60000"),
        None,
    )
    .unwrap();
    assert_eq!(status, 200, "{result}");
    let result: Value = serde_json::from_str(&result).unwrap();
    assert_eq!(
        result.get("status"),
        Some(&Value::Str("Cancelled".to_string())),
        "{result:?}"
    );
    let snapshot = result.get("snapshot").expect("snapshot present");
    assert!(get_u64(snapshot, "samples") > 0);

    // Stats reflect both jobs.
    let (status, stats) = http_request(&addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    let stats: Value = serde_json::from_str(&stats).unwrap();
    assert_eq!(get_u64(&stats, "submitted"), 2);

    // Error paths: bad body, unknown job, unknown route.
    let (status, _) = http_request(&addr, "POST", "/jobs", Some("{not json")).unwrap();
    assert_eq!(status, 400);
    let (status, _) = http_request(&addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);

    // Clean shutdown over the wire.
    let (status, _) = http_request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    server.join();
}
