//! The repository's benchmark: paper-scale LR and LNR batch jobs and a
//! phase-locked served mix, each reporting end-to-end metrics untraced and
//! per-layer metrics traced. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <lr-batch|lnr-batch|served-mix> --seed N --seconds S --trace 0|1
//! perfbench --steadiness [--runs N] [--seconds S] [--seed N]
//! ```
//!
//! A run prints a readable report and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; it exits non-zero
//! when a correctness check fails.

#![forbid(unsafe_code)]

mod batch;
mod clock;
mod job;
mod layers;
mod report;
mod served;
mod stats;
mod steadiness;
mod trace;
mod workloads;

use std::process::ExitCode;

/// The workloads, in the order the steadiness report runs them.
pub const WORKLOADS: [&str; 3] = ["lr-batch", "lnr-batch", "served-mix"];

const USAGE: &str = "usage: perfbench --workload <lr-batch|lnr-batch|served-mix> --seed N \
                     --seconds S --trace 0|1\n       perfbench --steadiness [--runs N] \
                     [--seconds S] [--seed N]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    steadiness: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        steadiness: false,
        runs: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--steadiness" {
            args.steadiness = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--runs" => args.runs = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.steadiness {
        return steadiness::run(args.runs, args.seconds, args.seed);
    }
    let Some(workload) = args.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let seconds = args.seconds.unwrap_or(10.0);
    let outcome = match workload.as_str() {
        "lr-batch" => batch::run(batch::Kind::Lr, args.seed, seconds, args.trace),
        "lnr-batch" => batch::run(batch::Kind::Lnr, args.seed, seconds, args.trace),
        "served-mix" => served::run(args.seed, seconds, args.trace),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(result) => {
            result.print(&workload);
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
