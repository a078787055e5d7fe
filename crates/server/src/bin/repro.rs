//! `repro` — regenerate the paper's tables and figures from the command
//! line, and drive the aggregate-serving layer.
//!
//! ```text
//! repro [--experiment <id>|all] [--scale tiny|small|paper] [--seed N]
//!       [--threads N] [--out DIR] [--gate REFERENCE.json]
//!       [--scenario FILE]... [--scenario-dir DIR] [--smoke]
//! repro serve  [--addr 127.0.0.1:4157] [--threads N] [--seed N] [--smoke]
//!              [--quota TENANT=LIMIT]...
//! repro client --scenario FILE [--addr 127.0.0.1:4157] [--tenant NAME]
//!              [--poll-ms N] [--timeout-s N] [--check-batch] [--shutdown]
//! repro loadtest [--clients N] [--jobs N] [--queue-depth N] [--budget N]
//!                [--seed N] [--threads N] [--no-check-batch] [--out DIR]
//! ```
//!
//! Results are printed as text tables and written as CSV files under the
//! output directory (default `bench-results/`). Every run also writes
//! `BENCH_repro.json` there: the accuracy record, with per-experiment wall
//! time, the deepest query cost exercised, the mean relative error and the
//! cell-engine counters (see `EXPERIMENTS.md` for the field-by-field
//! description). `--gate REFERENCE.json` diffs it against a committed
//! reference and exits non-zero on an accuracy or cost regression.
//!
//! `--scenario FILE` (repeatable) and `--scenario-dir DIR` switch the run
//! from the built-in experiment list to declarative scenario specs
//! (TOML/JSON, schema in `EXPERIMENTS.md`); report rows are then keyed by
//! scenario id. `--smoke` shrinks every scenario to a fast CI-sized sweep.
//!
//! `--threads N` fans the estimator samples of every experiment across `N`
//! worker threads (`0` = all cores). Results are **bit-identical for every
//! thread count** — the flag only changes wall-clock time.
//!
//! `repro serve` starts the multi-tenant HTTP front-end (`lbs-server`);
//! `repro client` submits a scenario to a running server, streams its
//! anytime estimates while polling, fetches the final result, and — with
//! `--check-batch` — re-runs the same scenario locally through the batch
//! path and asserts the served estimate matches bit for bit. `repro
//! loadtest` hammers an in-process server from concurrent keep-alive
//! clients and writes the outcome to `BENCH_loadtest.json`.

#![forbid(unsafe_code)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use lbs_bench::{
    all_experiment_ids, report::gate_against, run_experiment_threaded, BenchRecord, BenchReport,
    Scale, Scenario, ScenarioContext,
};
use lbs_server::{
    http_request, run_loadtest, value_u64, LoadtestBenchReport, LoadtestOptions, Scheduler,
    SchedulerConfig, Server, ServerState,
};

struct Options {
    experiments: Vec<String>,
    scale: Scale,
    seed: u64,
    threads: usize,
    out_dir: PathBuf,
    gate: Option<PathBuf>,
    scenarios: Vec<PathBuf>,
    scenario_dir: Option<PathBuf>,
    smoke: bool,
}

struct ServeOptions {
    addr: String,
    threads: usize,
    seed: u64,
    smoke: bool,
    quotas: Vec<(String, u64)>,
}

struct ClientOptions {
    addr: String,
    scenario: PathBuf,
    tenant: Option<String>,
    poll_ms: u64,
    timeout_s: u64,
    check_batch: bool,
    shutdown: bool,
}

struct LoadtestCliOptions {
    probe: LoadtestOptions,
    out_dir: PathBuf,
}

enum Command {
    Run(Options),
    Serve(ServeOptions),
    Client(ClientOptions),
    Loadtest(LoadtestCliOptions),
    Help,
}

fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut options = ServeOptions {
        addr: "127.0.0.1:4157".to_string(),
        threads: 1,
        seed: 2015,
        smoke: false,
        quotas: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => options.addr = args.next().ok_or("--addr needs a value")?,
            "--threads" | "-t" => {
                let value = args.next().ok_or("--threads needs a value")?;
                options.threads = value
                    .parse()
                    .map_err(|_| format!("bad thread count `{value}`"))?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                options.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--smoke" => options.smoke = true,
            "--quota" => {
                let value = args.next().ok_or("--quota needs TENANT=LIMIT")?;
                let (tenant, limit) = value
                    .split_once('=')
                    .ok_or(format!("bad quota `{value}` (want TENANT=LIMIT)"))?;
                let limit: u64 = limit
                    .parse()
                    .map_err(|_| format!("bad quota limit `{limit}`"))?;
                options.quotas.push((tenant.to_string(), limit));
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown serve argument `{other}`\n{}", usage())),
        }
    }
    Ok(Command::Serve(options))
}

fn parse_client_args(args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut addr = "127.0.0.1:4157".to_string();
    let mut scenario: Option<PathBuf> = None;
    let mut tenant: Option<String> = None;
    let mut poll_ms = 100u64;
    let mut timeout_s = 300u64;
    let mut check_batch = false;
    let mut shutdown = false;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().ok_or("--addr needs a value")?,
            "--scenario" => {
                scenario = Some(PathBuf::from(
                    args.next().ok_or("--scenario needs a file path")?,
                ))
            }
            "--tenant" => tenant = Some(args.next().ok_or("--tenant needs a value")?),
            "--poll-ms" => {
                let value = args.next().ok_or("--poll-ms needs a value")?;
                poll_ms = value
                    .parse()
                    .map_err(|_| format!("bad poll interval `{value}`"))?;
            }
            "--timeout-s" => {
                let value = args.next().ok_or("--timeout-s needs a value")?;
                timeout_s = value
                    .parse()
                    .map_err(|_| format!("bad timeout `{value}`"))?;
            }
            "--check-batch" => check_batch = true,
            "--shutdown" => shutdown = true,
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown client argument `{other}`\n{}", usage())),
        }
    }
    Ok(Command::Client(ClientOptions {
        addr,
        scenario: scenario.ok_or("client needs --scenario FILE")?,
        tenant,
        poll_ms: poll_ms.max(1),
        timeout_s,
        check_batch,
        shutdown,
    }))
}

fn parse_loadtest_args(args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut probe = LoadtestOptions::default();
    let mut out_dir = PathBuf::from("bench-results");
    fn parse_usize(flag: &str, value: Option<String>) -> Result<usize, String> {
        let value = value.ok_or(format!("{flag} needs a value"))?;
        value
            .parse()
            .map_err(|_| format!("bad {flag} value `{value}`"))
    }
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => probe.clients = parse_usize("--clients", args.next())?.max(1),
            "--jobs" => probe.jobs_per_client = parse_usize("--jobs", args.next())?.max(1),
            "--queue-depth" => probe.queue_depth = parse_usize("--queue-depth", args.next())?,
            "--threads" | "-t" => probe.threads = parse_usize("--threads", args.next())?,
            "--budget" => {
                let value = args.next().ok_or("--budget needs a value")?;
                probe.budget = value.parse().map_err(|_| format!("bad budget `{value}`"))?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                probe.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--check-batch" => probe.check_batch = true,
            "--no-check-batch" => probe.check_batch = false,
            "--out" | "-o" => out_dir = PathBuf::from(args.next().ok_or("--out needs a value")?),
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown loadtest argument `{other}`\n{}", usage())),
        }
    }
    Ok(Command::Loadtest(LoadtestCliOptions { probe, out_dir }))
}

fn parse_args() -> Result<Command, String> {
    let mut experiments: Vec<String> = Vec::new();
    let mut scale = Scale::Small;
    let mut seed = 2015u64; // the paper's publication year, for determinism
    let mut threads = 1usize;
    let mut out_dir = PathBuf::from("bench-results");
    let mut gate: Option<PathBuf> = None;
    let mut scenarios: Vec<PathBuf> = Vec::new();
    let mut scenario_dir: Option<PathBuf> = None;
    let mut smoke = false;

    let mut args = env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("serve") => {
            args.next();
            return parse_serve_args(args);
        }
        Some("client") => {
            args.next();
            return parse_client_args(args);
        }
        Some("loadtest") => {
            args.next();
            return parse_loadtest_args(args);
        }
        _ => {}
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                let value = args.next().ok_or("--experiment needs a value")?;
                if value == "all" {
                    experiments = all_experiment_ids().iter().map(|s| s.to_string()).collect();
                } else {
                    experiments.push(value);
                }
            }
            "--scale" | "-s" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&value).ok_or(format!("unknown scale `{value}`"))?;
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a value")?;
                seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--threads" | "-t" => {
                let value = args.next().ok_or("--threads needs a value")?;
                threads = value
                    .parse()
                    .map_err(|_| format!("bad thread count `{value}`"))?;
            }
            "--out" | "-o" => {
                out_dir = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--gate" | "-g" => {
                gate = Some(PathBuf::from(args.next().ok_or("--gate needs a value")?));
            }
            "--scenario" => {
                scenarios.push(PathBuf::from(
                    args.next().ok_or("--scenario needs a file path")?,
                ));
            }
            "--scenario-dir" => {
                scenario_dir = Some(PathBuf::from(
                    args.next().ok_or("--scenario-dir needs a directory")?,
                ));
            }
            "--smoke" => {
                smoke = true;
            }
            "--help" | "-h" => {
                return Ok(Command::Help);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if experiments.is_empty() {
        experiments = all_experiment_ids().iter().map(|s| s.to_string()).collect();
    }
    Ok(Command::Run(Options {
        experiments,
        scale,
        seed,
        threads,
        out_dir,
        gate,
        scenarios,
        scenario_dir,
        smoke,
    }))
}

fn usage() -> String {
    format!(
        "usage: repro [--experiment <id>|all] [--scale tiny|small|paper] [--seed N]\n\
         \x20            [--threads N] [--out DIR] [--gate REFERENCE.json]\n\
         \x20            [--scenario FILE]... [--scenario-dir DIR] [--smoke]\n\
         \x20      repro serve  [--addr HOST:PORT] [--threads N] [--seed N] [--smoke]\n\
         \x20                   [--quota TENANT=LIMIT]...\n\
         \x20      repro client --scenario FILE [--addr HOST:PORT] [--tenant NAME]\n\
         \x20                   [--poll-ms N] [--timeout-s N] [--check-batch] [--shutdown]\n\
         \x20      repro loadtest [--clients N] [--jobs N] [--queue-depth N] [--budget N]\n\
         \x20                   [--seed N] [--threads N] [--no-check-batch] [--out DIR]\n\
         --threads N       run estimator samples on N worker threads (0 = all cores);\n\
         \x20                 results are bit-identical for every N\n\
         --gate FILE       after the run, diff the fresh BENCH_repro.json against the\n\
         \x20                 reference JSON and exit non-zero on a bench regression\n\
         --scenario FILE   run a declarative scenario spec (TOML/JSON) instead of the\n\
         \x20                 built-in experiment list; repeatable\n\
         --scenario-dir D  run every .toml/.json scenario in a directory (sorted)\n\
         --smoke           shrink scenarios to a fast smoke sweep (micro scale /\n\
         \x20                 capped sizes and budgets)\n\
         serve             start the multi-tenant aggregate-serving HTTP front-end\n\
         client            submit a scenario to a running server, stream its anytime\n\
         \x20                 estimates, fetch the result; --check-batch verifies the\n\
         \x20                 served estimate against a local batch run bit for bit;\n\
         \x20                 --shutdown stops the server afterwards\n\
         loadtest          start an in-process server on a loopback port and hammer it\n\
         \x20                 from N concurrent keep-alive clients; records latency\n\
         \x20                 percentiles, jobs/s, reuse rate and the 429 split to\n\
         \x20                 BENCH_loadtest.json and exits non-zero on dropped jobs,\n\
         \x20                 premature backpressure or a served!=batch divergence\n\
         experiments: {}",
        all_experiment_ids().join(", ")
    )
}

/// Prints a finished result, records it in the report, and writes its CSV.
/// Shared by the scenario and experiment paths so their output handling
/// cannot drift apart.
fn emit_result(
    result: &lbs_bench::ExperimentResult,
    wall_time_s: f64,
    out_dir: &std::path::Path,
    report: &mut BenchReport,
) -> Result<(), String> {
    println!("{}", result.to_table());
    if let Some(line) = result.engine_summary_line() {
        println!("  engine: {line}");
    }
    println!("  ({wall_time_s:.1}s)\n");
    report
        .experiments
        .push(BenchRecord::from_result(result, wall_time_s));
    let path = out_dir.join(format!("{}.csv", result.id));
    fs::write(&path, result.to_csv()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(Command::Run(o)) => o,
        Ok(Command::Serve(o)) => return run_serve(o),
        Ok(Command::Client(o)) => return run_client(o),
        Ok(Command::Loadtest(o)) => return run_loadtest_cmd(o),
        Ok(Command::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = fs::create_dir_all(&options.out_dir) {
        eprintln!("cannot create {}: {e}", options.out_dir.display());
        return ExitCode::FAILURE;
    }
    let scenario_mode = !options.scenarios.is_empty() || options.scenario_dir.is_some();
    let mut report = BenchReport::new(options.scale, options.seed, options.threads);

    if scenario_mode {
        let mut scenarios: Vec<Scenario> = Vec::new();
        for path in &options.scenarios {
            match lbs_bench::load_scenario(path) {
                Ok(s) => scenarios.push(s),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
        if let Some(dir) = &options.scenario_dir {
            match lbs_bench::load_scenario_dir(dir) {
                Ok(mut from_dir) => scenarios.append(&mut from_dir),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
        // Ids must be unique across --scenario files and --scenario-dir
        // combined: the id keys both the CSV file name and the report
        // record, so a duplicate would silently overwrite its twin.
        let mut seen_ids = std::collections::BTreeSet::new();
        for scenario in &scenarios {
            if !seen_ids.insert(scenario.id.as_str()) {
                eprintln!(
                    "duplicate scenario id `{}` across --scenario/--scenario-dir inputs",
                    scenario.id
                );
                return ExitCode::from(2);
            }
        }
        // lbs-lint: allow(nondet-debug-fmt, reason = "Scale is a fieldless enum; Debug prints a fixed variant name")
        println!(
            "Running {} scenario(s) at {:?} scale (seed {}, {} thread(s){})\n",
            scenarios.len(),
            options.scale,
            options.seed,
            options.threads,
            if options.smoke { ", smoke" } else { "" },
        );
        let ctx = ScenarioContext {
            scale: options.scale,
            seed: options.seed,
            threads: options.threads,
            smoke: options.smoke,
        };
        for scenario in &scenarios {
            // lbs-lint: allow(ambient-time, reason = "CLI wall-time reporting only; no estimate depends on it")
            let started = std::time::Instant::now();
            let result = match lbs_bench::run_scenario(scenario, &ctx) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("scenario failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let wall_time_s = started.elapsed().as_secs_f64();
            if let Err(e) = emit_result(&result, wall_time_s, &options.out_dir, &mut report) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let valid = all_experiment_ids();
        for id in &options.experiments {
            if !valid.contains(&id.as_str()) {
                eprintln!("unknown experiment `{id}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
        // lbs-lint: allow(nondet-debug-fmt, reason = "Scale is a fieldless enum; Debug prints a fixed variant name")
        println!(
            "Reproducing {} experiment(s) at {:?} scale (seed {}, {} thread(s))\n",
            options.experiments.len(),
            options.scale,
            options.seed,
            options.threads,
        );
        for id in &options.experiments {
            // lbs-lint: allow(ambient-time, reason = "CLI wall-time reporting only; no estimate depends on it")
            let started = std::time::Instant::now();
            let result = run_experiment_threaded(id, options.scale, options.seed, options.threads);
            let wall_time_s = started.elapsed().as_secs_f64();
            if let Err(e) = emit_result(&result, wall_time_s, &options.out_dir, &mut report) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let json_path = options.out_dir.join("BENCH_repro.json");
    if let Err(e) = fs::write(&json_path, report.to_json()) {
        eprintln!("cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "CSV files and BENCH_repro.json written to {}",
        options.out_dir.display()
    );

    if let Some(reference_path) = &options.gate {
        let reference: BenchReport = match fs::read_to_string(reference_path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        {
            Ok(reference) => reference,
            Err(e) => {
                eprintln!(
                    "cannot load gate reference {}: {e}",
                    reference_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let violations = gate_against(&report, &reference);
        if violations.is_empty() {
            println!(
                "bench gate PASSED against {} ({} experiments compared)",
                reference_path.display(),
                reference.experiments.len()
            );
        } else {
            eprintln!("bench gate FAILED against {}:", reference_path.display());
            for violation in &violations {
                eprintln!("  - {violation}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Prints the human-readable summary of a loadtest report.
fn print_loadtest(report: &LoadtestBenchReport) {
    println!(
        "  {} clients x {} jobs: {} completed, {} dropped in {:.2}s -> {:.1} jobs/s",
        report.clients,
        report.jobs_per_client,
        report.completed_jobs,
        report.dropped_jobs,
        report.wall_s,
        report.jobs_per_s,
    );
    println!(
        "  submit->first-estimate p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
        report.p50_first_estimate_ms, report.p95_first_estimate_ms, report.p99_first_estimate_ms,
    );
    println!(
        "  {} requests over {} connections ({:.0}% keep-alive reuse), \
         429s: {} queue / {} quota (queue high water {}/{})",
        report.http_requests,
        report.connections,
        report.keep_alive_reuse * 100.0,
        report.queue_429,
        report.quota_429,
        report.queue_high_water,
        report.queue_depth,
    );
    if report.check_batch {
        println!(
            "  served == batch bitwise: {}\n",
            if report.batch_identical { "yes" } else { "NO" }
        );
    } else {
        println!("  (batch check skipped)\n");
    }
}

/// `repro loadtest` — the concurrent-load probe with operator-chosen knobs,
/// written to `BENCH_loadtest.json` and gated on its own violations.
fn run_loadtest_cmd(options: LoadtestCliOptions) -> ExitCode {
    if let Err(e) = fs::create_dir_all(&options.out_dir) {
        eprintln!("cannot create {}: {e}", options.out_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "Load-testing the event-loop server ({} clients x {} jobs, queue depth {})...",
        options.probe.clients, options.probe.jobs_per_client, options.probe.queue_depth,
    );
    let loadtest = match run_loadtest(&options.probe) {
        Ok(loadtest) => loadtest,
        Err(e) => {
            eprintln!("loadtest failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_loadtest(&loadtest);
    let violations = loadtest.violations();

    let json_path = options.out_dir.join("BENCH_loadtest.json");
    let json = serde_json::to_string_pretty(&loadtest).expect("report serialisation cannot fail");
    if let Err(e) = fs::write(&json_path, json) {
        eprintln!("cannot write {}: {e}", json_path.display());
        return ExitCode::FAILURE;
    }
    println!("loadtest report written to {}", json_path.display());

    if violations.is_empty() {
        println!("loadtest gate PASSED");
        ExitCode::SUCCESS
    } else {
        eprintln!("loadtest gate FAILED:");
        for violation in &violations {
            eprintln!("  - {violation}");
        }
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// `repro serve` / `repro client`
// ---------------------------------------------------------------------------

fn run_serve(options: ServeOptions) -> ExitCode {
    use std::io::Write as _;

    let mut scheduler = Scheduler::new(SchedulerConfig {
        threads: options.threads,
        seed: options.seed,
        smoke: options.smoke,
    });
    for (tenant, limit) in &options.quotas {
        if let Err(e) = scheduler.register_tenant(tenant, Some(*limit)) {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        println!("tenant `{tenant}`: quota {limit} queries");
    }
    let state = ServerState::new(scheduler);
    let server = match Server::start(&options.addr, state) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("lbs-server listening on http://{}", server.addr());
    println!(
        "  POST /jobs | GET /jobs/<id> | GET /jobs/<id>/result?wait_ms=N | \
         DELETE /jobs/<id> | GET /stats | POST /shutdown"
    );
    // The smoke harness greps for the listening line from a redirected
    // stdout; make sure it is on disk before the first client connects.
    let _ = std::io::stdout().flush();
    server.join();
    println!("server stopped");
    ExitCode::SUCCESS
}

fn run_client(options: ClientOptions) -> ExitCode {
    match client_inner(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn client_inner(options: &ClientOptions) -> Result<(), String> {
    use serde::{Deserialize as _, Value};

    // Parse the spec to its raw Value (that is what ships over the wire)
    // and validate it locally for a friendly error before submitting.
    let text = fs::read_to_string(&options.scenario)
        .map_err(|e| format!("cannot read {}: {e}", options.scenario.display()))?;
    let is_json = options
        .scenario
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("json"));
    let scenario_value: Value = if is_json {
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", options.scenario.display()))?
    } else {
        lbs_bench::toml_lite::parse(&text)
            .map_err(|e| format!("{}: {e}", options.scenario.display()))?
    };
    let scenario = Scenario::from_value(&scenario_value)
        .map_err(|e| format!("{}: {e}", options.scenario.display()))?;
    scenario
        .validate()
        .map_err(|e| format!("{}: {e}", options.scenario.display()))?;

    let mut fields = Vec::new();
    if let Some(tenant) = &options.tenant {
        fields.push(("tenant".to_string(), Value::Str(tenant.clone())));
    }
    fields.push(("scenario".to_string(), scenario_value));
    let body = serde_json::to_string(&Value::Map(fields)).map_err(|e| e.to_string())?;

    let (status, reply) = http_request(&options.addr, "POST", "/jobs", Some(&body))?;
    let reply: Value =
        serde_json::from_str(&reply).map_err(|e| format!("bad submit reply: {e} ({reply})"))?;
    if status != 201 {
        // lbs-lint: allow(nondet-debug-fmt, reason = "error path; vendored Value's Debug is deterministic (ordered map)")
        return Err(format!("submit failed (HTTP {status}): {reply:?}"));
    }
    let job_id =
        value_u64(&reply, "job_id").ok_or_else(|| "submit reply without job_id".to_string())?;
    println!("submitted `{}` as job {job_id}", scenario.id);

    // Poll the anytime estimate until the job settles.
    // lbs-lint: allow(ambient-time, reason = "client-side poll deadline; served results are unaffected")
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(options.timeout_s);
    let final_state = loop {
        let (status, reply) = http_request(&options.addr, "GET", &format!("/jobs/{job_id}"), None)?;
        if status != 200 {
            return Err(format!("poll failed (HTTP {status}): {reply}"));
        }
        let parsed: Value =
            serde_json::from_str(&reply).map_err(|e| format!("bad poll reply: {e}"))?;
        let snapshot = parsed
            .get("snapshot")
            .ok_or_else(|| "poll reply without snapshot".to_string())?;
        let samples = value_u64(snapshot, "samples").unwrap_or(0);
        let queries = value_u64(snapshot, "queries").unwrap_or(0);
        let estimate = snapshot.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let std_error = snapshot
            .get("std_error")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        println!(
            "  anytime: samples {samples:>5}  queries {queries:>7}  \
             estimate {estimate:>12.2} ± {:.2}",
            1.96 * std_error
        );
        let running = matches!(parsed.get("state"), Some(Value::Str(s)) if s == "Running");
        if !running {
            break parsed;
        }
        // lbs-lint: allow(ambient-time, reason = "client-side poll deadline; served results are unaffected")
        if std::time::Instant::now() >= deadline {
            return Err(format!("timed out after {}s", options.timeout_s));
        }
        std::thread::sleep(std::time::Duration::from_millis(options.poll_ms));
    };

    let (status, reply) = http_request(
        &options.addr,
        "GET",
        &format!("/jobs/{job_id}/result?wait_ms=1000"),
        None,
    )?;
    if status != 200 {
        return Err(format!("result fetch failed (HTTP {status}): {reply}"));
    }
    let result: Value =
        serde_json::from_str(&reply).map_err(|e| format!("bad result reply: {e}"))?;
    let estimate = result
        .get("estimate")
        // lbs-lint: allow(nondet-debug-fmt, reason = "error path; vendored Value's Debug is deterministic (ordered map)")
        .ok_or_else(|| format!("job settled without an estimate: {final_state:?}"))?;
    let served_value = estimate
        .get("value")
        .and_then(Value::as_f64)
        .ok_or_else(|| "estimate without a value".to_string())?;
    let query_cost = value_u64(estimate, "query_cost").unwrap_or(0);
    let samples = value_u64(estimate, "samples").unwrap_or(0);
    println!("result: estimate {served_value:.4} ({samples} samples, {query_cost} queries)");

    if options.check_batch {
        // Re-run the same scenario locally through the batch-equivalent
        // session path and require a bit-exact match with the served
        // estimate. The server's actual job-construction config (seed,
        // smoke caps) comes from /stats so a non-default `repro serve
        // --seed`/`--smoke` cannot produce a spurious divergence; the
        // thread count never changes bits.
        let (status, stats) = http_request(&options.addr, "GET", "/stats", None)?;
        if status != 200 {
            return Err(format!("stats fetch failed (HTTP {status}): {stats}"));
        }
        let stats: Value =
            serde_json::from_str(&stats).map_err(|e| format!("bad stats reply: {e}"))?;
        let ctx = ScenarioContext {
            scale: Scale::Small,
            seed: value_u64(&stats, "seed").unwrap_or(2015),
            threads: 1,
            smoke: matches!(stats.get("smoke"), Some(Value::Bool(true))),
        };
        let workload = lbs_bench::build_workload(&scenario, &ctx)?;
        let backend = workload.backend();
        let mut session = workload.start_session(backend, workload.session_config(1, 0))?;
        while !session.is_finished() {
            session.run_wave();
        }
        let local = session
            .finalize()
            .map_err(|e| format!("local batch run failed: {e}"))?;
        if local.value.to_bits() != served_value.to_bits() {
            return Err(format!(
                "SERVED ESTIMATE DIVERGES FROM BATCH PATH: served {served_value} \
                 vs batch {} (bitwise comparison)",
                local.value
            ));
        }
        println!(
            "check-batch: served estimate matches the local batch path bit for bit \
             ({served_value})"
        );
    }

    if options.shutdown {
        let (status, _) = http_request(&options.addr, "POST", "/shutdown", None)?;
        if status != 200 {
            return Err(format!("shutdown request failed (HTTP {status})"));
        }
        println!("server shutdown requested");
    }
    Ok(())
}
