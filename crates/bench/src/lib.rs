//! # lbs-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section (§6) on the simulated substrates of this workspace.
//!
//! Each experiment is a function in [`experiments`] returning an
//! [`ExperimentResult`]: a set of rows shaped like the series the paper
//! plots (query cost versus relative error, estimate traces, ablation
//! ladders, …). The `repro` binary (in `lbs-server`) runs them from the
//! command line and writes CSV files; `repro --smoke` runs every scenario
//! at a reduced scale.
//!
//! Absolute numbers differ from the paper — the substrate is a simulator,
//! not Google Maps or WeChat — but the *shape* of each result (which
//! algorithm wins, roughly by how much, how cost scales with k, database
//! size or precision) is the reproduction target. `EXPERIMENTS.md` at the
//! repository root maps every paper artefact to its function in
//! [`experiments`], explains how to read the transposed cost/accuracy
//! tables, and documents `BENCH_repro.json` (see [`report`]): the
//! per-experiment accuracy and cost record that every `repro` run emits and
//! `repro --gate` diffs against the committed reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod result;
pub mod scale;
pub mod scenario;
pub mod toml_lite;

pub use experiments::{all_experiment_ids, run_experiment_threaded};
pub use report::{BenchRecord, BenchReport};
pub use result::{ExperimentResult, Row};
pub use scale::Scale;
pub use scenario::{
    build_workload, load_scenario, load_scenario_dir, run_scenario, BackendSpec, CacheMode,
    MutationSpec, Scenario, ScenarioContext, SessionSpec, StrataSpec, Workload,
};
