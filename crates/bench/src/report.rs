//! Machine-readable run reports (`BENCH_repro.json`).
//!
//! Every `repro` invocation writes one [`BenchReport`] next to its CSV
//! output: per experiment, the wall time, the deepest query cost exercised,
//! the mean relative error and the cell-engine counters. The file is the
//! accuracy record of the reproduction: [`gate_against`] diffs a fresh run
//! against the committed reference, and successive runs can be diffed to
//! spot accuracy or cost regressions.
//!
//! `EXPERIMENTS.md` at the repository root documents every field.

use serde::{Deserialize, Serialize};

use lbs_core::EngineReport;

use crate::result::ExperimentResult;
use crate::scale::Scale;

/// Summary of one experiment run, as recorded in `BENCH_repro.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Experiment identifier (`fig11` … `table1`).
    pub id: String,
    /// Human-readable title (matches the paper artefact).
    pub title: String,
    /// Wall-clock seconds the experiment took.
    pub wall_time_s: f64,
    /// Number of result rows produced.
    pub rows: usize,
    /// Deepest query cost reported by any row
    /// ([`ExperimentResult::max_reported_cost`]); `None` for experiments
    /// without a cost axis.
    pub max_query_cost: Option<u64>,
    /// Mean of the reported relative errors
    /// ([`ExperimentResult::mean_reported_rel_error`]); `None` for
    /// experiments without an error axis.
    pub mean_rel_error: Option<f64>,
    /// Cell-engine counters summed over the experiment's estimator runs.
    pub engine: Option<EngineReport>,
    /// Cell-cache hit rate over all lookups, if any estimator ran.
    pub cache_hit_rate: Option<f64>,
    /// Mean incorporated candidates (clips) per constructed cell.
    pub mean_clips_per_cell: Option<f64>,
}

impl BenchRecord {
    /// Builds a record from a finished experiment and its measured wall
    /// time.
    pub fn from_result(result: &ExperimentResult, wall_time_s: f64) -> Self {
        BenchRecord {
            id: result.id.clone(),
            title: result.title.clone(),
            wall_time_s,
            rows: result.rows.len(),
            max_query_cost: result.max_reported_cost(),
            mean_rel_error: result.mean_reported_rel_error(),
            engine: result.engine,
            cache_hit_rate: result.engine.as_ref().and_then(|e| e.cache_hit_rate()),
            mean_clips_per_cell: result.engine.as_ref().and_then(|e| e.mean_clips_per_cell()),
        }
    }
}

/// The complete content of `BENCH_repro.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// Format version of this file.
    pub schema_version: u32,
    /// Scale preset the run used.
    pub scale: Scale,
    /// Root seed of the run.
    pub seed: u64,
    /// Worker threads of the run.
    pub threads: usize,
    /// Per-experiment summaries, in run order.
    pub experiments: Vec<BenchRecord>,
}

impl BenchReport {
    /// Creates an empty report shell.
    pub fn new(scale: Scale, seed: u64, threads: usize) -> Self {
        BenchReport {
            schema_version: 1,
            scale,
            seed,
            threads,
            experiments: Vec::new(),
        }
    }

    /// Serialises the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

/// Relative-error headroom of [`gate_against`]: the fresh error may exceed
/// the reference by half of itself plus this absolute slack before the gate
/// trips (seeded runs are deterministic, but legitimate numeric changes —
/// e.g. a different clip order — shift low-sample errors a little).
pub const GATE_REL_ERROR_FACTOR: f64 = 1.5;
/// Absolute relative-error slack of [`gate_against`].
pub const GATE_REL_ERROR_SLACK: f64 = 0.08;
/// Query-cost headroom factor of [`gate_against`].
pub const GATE_COST_FACTOR: f64 = 1.15;
/// Absolute query-cost slack of [`gate_against`].
pub const GATE_COST_SLACK: u64 = 50;

/// Compares a fresh `BENCH_repro.json` against a committed reference and
/// returns the list of regressions (empty = gate passes).
///
/// Checks, per experiment present in the reference:
///
/// * the mean relative error must stay within
///   `ref × GATE_REL_ERROR_FACTOR + GATE_REL_ERROR_SLACK`,
/// * the deepest query cost must stay within
///   `ref × GATE_COST_FACTOR + GATE_COST_SLACK`,
///
/// Wall times are machine-dependent and deliberately not gated; the
/// bench-regression CI job uploads the fresh JSON as an artifact so they can
/// be eyeballed.
pub fn gate_against(fresh: &BenchReport, reference: &BenchReport) -> Vec<String> {
    let mut violations = Vec::new();
    if fresh.scale != reference.scale {
        // lbs-lint: allow(nondet-debug-fmt, reason = "Scale is a fieldless enum; Debug prints a fixed variant name")
        violations.push(format!(
            "scale mismatch: fresh {:?} vs reference {:?} — not comparable",
            fresh.scale, reference.scale
        ));
        return violations;
    }
    if fresh.seed != reference.seed {
        violations.push(format!(
            "seed mismatch: fresh {} vs reference {} — not comparable",
            fresh.seed, reference.seed
        ));
        return violations;
    }
    for reference_record in &reference.experiments {
        let Some(record) = fresh
            .experiments
            .iter()
            .find(|r| r.id == reference_record.id)
        else {
            violations.push(format!(
                "experiment {} missing from fresh run",
                reference_record.id
            ));
            continue;
        };
        match (record.mean_rel_error, reference_record.mean_rel_error) {
            (Some(fresh_err), Some(ref_err)) => {
                // A zero or non-finite reference (e.g. a scenario whose mean
                // relative error is exactly 0) makes the multiplicative
                // headroom meaningless; fall back to the absolute slack
                // alone instead of comparing against a 0/NaN/inf bound.
                let bound = if ref_err.is_finite() && ref_err > 0.0 {
                    ref_err * GATE_REL_ERROR_FACTOR + GATE_REL_ERROR_SLACK
                } else {
                    GATE_REL_ERROR_SLACK
                };
                // `NaN > bound` is false, so a NaN fresh metric would slip
                // through a plain comparison; treat it as a regression.
                if !fresh_err.is_finite() {
                    violations.push(format!(
                        "{}: mean relative error is not finite ({fresh_err}) — reference {ref_err:.3}",
                        record.id
                    ));
                } else if fresh_err > bound {
                    violations.push(format!(
                        "{}: mean relative error regressed: {fresh_err:.3} > bound {bound:.3} (reference {ref_err:.3})",
                        record.id
                    ));
                }
            }
            // A metric the reference has but the fresh run lost (e.g. every
            // estimate went non-finite) is itself a regression, not a pass.
            (None, Some(ref_err)) => violations.push(format!(
                "{}: mean relative error missing from fresh run (reference {ref_err:.3})",
                record.id
            )),
            _ => {}
        }
        match (record.max_query_cost, reference_record.max_query_cost) {
            (Some(fresh_cost), Some(ref_cost)) => {
                let bound = (ref_cost as f64 * GATE_COST_FACTOR) as u64 + GATE_COST_SLACK;
                if fresh_cost > bound {
                    violations.push(format!(
                        "{}: max query cost regressed: {fresh_cost} > bound {bound} (reference {ref_cost})",
                        record.id
                    ));
                }
            }
            (None, Some(ref_cost)) => violations.push(format!(
                "{}: max query cost missing from fresh run (reference {ref_cost})",
                record.id
            )),
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Row;

    #[test]
    fn record_captures_result_metrics() {
        let mut result = ExperimentResult::new("fig14", "COUNT(schools)");
        result.push(
            Row::new()
                .with("budget", 600)
                .with("LR cost", 640)
                .with("LR-LBS-AGG rel err", "0.2"),
        );
        let record = BenchRecord::from_result(&result, 1.5);
        assert_eq!(record.id, "fig14");
        assert_eq!(record.rows, 1);
        assert_eq!(record.max_query_cost, Some(640));
        assert!((record.mean_rel_error.unwrap() - 0.2).abs() < 1e-12);
        assert!((record.wall_time_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = BenchReport::new(Scale::Tiny, 2015, 4);
        report.experiments.push(BenchRecord {
            id: "fig11".into(),
            title: "Voronoi".into(),
            wall_time_s: 0.25,
            rows: 7,
            max_query_cost: None,
            mean_rel_error: None,
            engine: None,
            cache_hit_rate: None,
            mean_clips_per_cell: None,
        });
        let json = report.to_json();
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("fig11"));
        let back: BenchReport = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.experiments.len(), 1);
        assert_eq!(back.seed, 2015);
        let serde::Value::Map(fields) = serde_json::from_str(&json).expect("a JSON object") else {
            panic!("the report is not a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            ["schema_version", "scale", "seed", "threads", "experiments"]
        );
    }

    fn record(id: &str, err: Option<f64>, cost: Option<u64>) -> BenchRecord {
        BenchRecord {
            id: id.into(),
            title: id.into(),
            wall_time_s: 1.0,
            rows: 1,
            max_query_cost: cost,
            mean_rel_error: err,
            engine: None,
            cache_hit_rate: None,
            mean_clips_per_cell: None,
        }
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        let violations = gate_against(&reference, &reference);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn gate_flags_error_and_cost_regressions_and_missing_experiments() {
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        reference.experiments.push(record("fig15", Some(0.2), None));
        let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
        // Error way above 0.3 * 1.5 + 0.08, cost way above 4200 * 1.15 + 50.
        fresh
            .experiments
            .push(record("fig14", Some(0.9), Some(9000)));
        let violations = gate_against(&fresh, &reference);
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("relative error")));
        assert!(violations.iter().any(|v| v.contains("query cost")));
        assert!(violations.iter().any(|v| v.contains("missing")));
    }

    #[test]
    fn gate_zero_reference_uses_absolute_tolerance() {
        // A reference with mean relative error exactly 0 (a scenario the
        // estimator nails) must not produce a 0-sized or NaN bound: fresh
        // runs within the absolute slack pass, runs beyond it fail.
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("scenario_exact", Some(0.0), Some(100)));

        let mut within = BenchReport::new(Scale::Small, 2015, 1);
        within.experiments.push(record(
            "scenario_exact",
            Some(GATE_REL_ERROR_SLACK * 0.5),
            Some(100),
        ));
        assert!(gate_against(&within, &reference).is_empty());

        let mut beyond = BenchReport::new(Scale::Small, 2015, 1);
        beyond.experiments.push(record(
            "scenario_exact",
            Some(GATE_REL_ERROR_SLACK * 2.0),
            Some(100),
        ));
        let violations = gate_against(&beyond, &reference);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("regressed"));
    }

    #[test]
    fn gate_flags_non_finite_fresh_metrics() {
        // `NaN > bound` is false, so a naive comparison would silently pass
        // a fresh run whose error collapsed to NaN/inf; the gate must flag
        // it instead.
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        for bad in [f64::NAN, f64::INFINITY] {
            let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
            fresh
                .experiments
                .push(record("fig14", Some(bad), Some(4200)));
            let violations = gate_against(&fresh, &reference);
            assert_eq!(violations.len(), 1, "{bad}: {violations:?}");
            assert!(violations[0].contains("not finite"), "{bad}");
        }
        // A NaN *reference* degrades to the absolute tolerance rather than
        // silently passing everything.
        let mut nan_ref = BenchReport::new(Scale::Small, 2015, 1);
        nan_ref
            .experiments
            .push(record("fig14", Some(f64::NAN), Some(4200)));
        let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
        fresh
            .experiments
            .push(record("fig14", Some(1.0), Some(4200)));
        assert!(!gate_against(&fresh, &nan_ref).is_empty());
    }

    #[test]
    fn gate_flags_metrics_lost_by_the_fresh_run() {
        let mut reference = BenchReport::new(Scale::Small, 2015, 1);
        reference
            .experiments
            .push(record("fig14", Some(0.3), Some(4200)));
        let mut fresh = BenchReport::new(Scale::Small, 2015, 1);
        fresh.experiments.push(record("fig14", None, None));
        let violations = gate_against(&fresh, &reference);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| v.contains("missing from fresh run")));
    }

    #[test]
    fn gate_rejects_incomparable_runs() {
        let reference = BenchReport::new(Scale::Small, 2015, 1);
        let other_scale = BenchReport::new(Scale::Tiny, 2015, 1);
        assert!(gate_against(&other_scale, &reference)[0].contains("scale mismatch"));
        let other_seed = BenchReport::new(Scale::Small, 7, 1);
        assert!(gate_against(&other_seed, &reference)[0].contains("seed mismatch"));
    }
}
