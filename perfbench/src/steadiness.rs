//! The steadiness report: every workload run several times in alternating
//! order, each end-to-end metric summarised by its median, quartiles and
//! relative spread against the bound `BENCHMARK.json` fixes for it, with
//! the host's steal time and load average beside each run.

use std::process::{Command, ExitCode};

use serde::Value;

use crate::stats;
use crate::WORKLOADS;

/// One end-to-end metric as `BENCHMARK.json` lists it.
struct Bounded {
    name: String,
    unit: String,
    bound: f64,
}

fn read_manifest() -> Result<(Vec<Bounded>, f64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root: cannot read BENCHMARK.json: {e}"))?;
    let manifest: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = manifest
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let Some(Value::Seq(metrics)) = manifest.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".to_string());
    };
    let text_of = |m: &Value, key: &str| match m.get(key) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let bounded = metrics
        .iter()
        .map(|m| Bounded {
            name: text_of(m, "name"),
            unit: text_of(m, "unit"),
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect();
    Ok((bounded, run_seconds))
}

/// The metrics of a run's JSON result line, by name.
fn parse_result(stdout: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty())?;
    let result: Value = serde_json::from_str(line).ok()?;
    let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        return None;
    };
    let values = metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some((correct, values))
}

/// Runs the report; exits non-zero when any run failed or was incorrect.
pub fn run(runs: usize, seconds: Option<f64>, base_seed: u64) -> ExitCode {
    let (bounded, run_seconds) = match read_manifest() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = seconds.unwrap_or(run_seconds);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    // results[w] holds one metric list per successful run of workload w.
    let mut results: Vec<Vec<Vec<(String, f64)>>> = vec![Vec::new(); WORKLOADS.len()];
    for r in 0..runs {
        let seed = base_seed + r as u64;
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let steal_before = stats::host_steal_s();
            let output = Command::new(&exe)
                .args(["--workload", WORKLOADS[w], "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let steal = match (steal_before, stats::host_steal_s()) {
                (Some(a), Some(b)) => format!("{:.2}", b - a),
                _ => "n/a".to_string(),
            };
            let load = stats::load_average().map_or("n/a".to_string(), |l| format!("{l:.2}"));
            let parsed = output
                .as_ref()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| parse_result(&String::from_utf8_lossy(&o.stdout)));
            let (verdict, summary) = match parsed {
                Some((true, values)) => {
                    let summary: Vec<String> = values
                        .iter()
                        .map(|(name, value)| format!("{name}={value:.4}"))
                        .collect();
                    results[w].push(values);
                    ("ok", summary.join(" "))
                }
                _ => {
                    ok = false;
                    ("FAILED", String::new())
                }
            };
            println!(
                "run {r} {:<10} seed {seed}: {verdict}; host steal {steal} s, load {load}; {summary}",
                WORKLOADS[w]
            );
        }
    }
    println!();
    println!(
        "{:<10} {:<24} {:>12} {:>12} {:>12} {:>8} {:>6} {:>8}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "/bound"
    );
    for (w, runs) in results.iter().enumerate() {
        for metric in &bounded {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| *n == metric.name).map(|(_, v)| *v))
                .collect();
            let (Some(median), Some((q1, q3))) =
                (stats::median(&values), stats::quartiles(&values))
            else {
                continue;
            };
            let spread = (q3 - q1) / median;
            println!(
                "{:<10} {:<24} {q1:>12.6} {median:>12.6} {q3:>12.6} {spread:>8.4} {:>6.3} {:>8.3} {}",
                WORKLOADS[w],
                metric.name,
                metric.bound,
                spread / metric.bound,
                metric.unit
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
