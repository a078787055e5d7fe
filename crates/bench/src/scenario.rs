//! Declarative scenario layer: workload specs loadable from TOML/JSON.
//!
//! A [`Scenario`] describes one complete estimation workload — dataset
//! (spatial model, size, planted truths), interface (LR/LNR, k,
//! restrictions), optional backend decorators (rate limiting, latency,
//! truncation), aggregate (COUNT/SUM/AVG plus selection), and estimator
//! configuration (algorithm, budget, error-reduction toggles) — so that the
//! evaluation matrix of the paper's §6 can be swept from committed spec
//! files (`repro --scenario FILE`, `repro --scenario-dir DIR`) instead of
//! hard-coded Rust.
//!
//! Two forms exist:
//!
//! * **Built-in**: `experiment = "fig14"` delegates to the corresponding
//!   [`crate::experiments`] function. The output is bit-identical to
//!   `repro --experiment fig14` at the same scale/seed/threads — the
//!   scenario file is just a declarative name for the hard-coded path.
//! * **Declarative**: `[dataset]`/`[interface]`/`[aggregate]`/`[estimator]`
//!   (plus optional `[backend]`) assemble a workload from parts, including
//!   configurations no built-in experiment covers (grid/Zipf-hotspot
//!   datasets, decorated backends, prominence ranking, …).
//!
//! Specs are deserialized strictly: unknown keys are rejected with the
//! offending name, so typos cannot silently disable a knob.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Error as SerdeError, Value};

use lbs_core::{
    Aggregate, AllocationPolicy, Estimate, EstimateError, EstimationSession, EstimatorKind,
    LnrLbsAggConfig, LrLbsAggConfig, NnoConfig, Selection, SessionConfig, StratifiedSession,
};
use lbs_data::{Dataset, DensityGrid, ScenarioBuilder, Stratifier, Tuple};
use lbs_geom::Rect;
use lbs_service::{
    backend_fingerprint, AnswerCache, CacheStats, CachingBackend, LatencyBackend, LbsBackend,
    QueryBudget, Ranking, RateLimitedBackend, ServiceConfig, SimulatedLbs, TruncatingBackend,
};

use crate::experiments::{all_experiment_ids, lnr_delta, run_experiment_threaded};
use crate::result::{ExperimentResult, Row};
use crate::scale::Scale;
use crate::toml_lite;

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// A complete scenario specification (one TOML/JSON file).
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario identifier: used as the CSV file name and as the key of the
    /// scenario's row in `BENCH_repro.json`.
    pub id: String,
    /// Human-readable title (defaults to the id).
    pub title: Option<String>,
    /// Pinned root seed; defaults to the CLI `--seed`.
    pub seed: Option<u64>,
    /// Pinned scale (`micro`/`tiny`/`small`/`paper`) for built-in
    /// experiments; defaults to the CLI `--scale`.
    pub scale: Option<String>,
    /// Built-in form: the experiment id (`fig11` … `table1`) to delegate to.
    pub experiment: Option<String>,
    /// Declarative form: the dataset to generate.
    pub dataset: Option<DatasetSpec>,
    /// Declarative form: the service interface.
    pub interface: Option<InterfaceSpec>,
    /// Declarative form: optional backend decorators.
    pub backend: Option<BackendSpec>,
    /// Declarative form: the aggregate to estimate.
    pub aggregate: Option<AggregateSpec>,
    /// Declarative form: the estimator and its budget.
    pub estimator: Option<EstimatorSpec>,
    /// Declarative form: the stratification of the region (required when —
    /// and only when — `estimator.strategy = "stratified"`).
    pub strata: Option<StrataSpec>,
    /// Declarative form: anytime-session knobs. Every repetition runs in a
    /// resumable [`EstimationSession`]; when present, these override its
    /// adaptive waves and add early-stop rules, and the report rows gain
    /// `waves` and `stop` columns.
    pub session: Option<SessionSpec>,
    /// Declarative form: a deterministic insert/delete stream applied to the
    /// dataset between repetitions, exercising the answer cache's versioned
    /// invalidation (ground truth is recomputed per repetition).
    pub mutations: Option<MutationSpec>,
}

/// Dataset section of a declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Spatial model: `usa_pois`, `wechat_users`, `weibo_users`, `uniform`,
    /// `grid`, or `zipf_hotspot`.
    pub model: String,
    /// Number of tuples.
    pub size: usize,
    /// Planted Starbucks count (POI models only).
    pub starbucks: Option<usize>,
    /// Bounding box override `[min_x, min_y, max_x, max_y]`.
    pub bbox: Option<[f64; 4]>,
    /// Lattice columns (`grid` model).
    pub cols: Option<usize>,
    /// Lattice rows (`grid` model).
    pub rows: Option<usize>,
    /// Jitter fraction in `[0, 1]` (`grid` model; 0 stacks tuples).
    pub jitter: Option<f64>,
    /// Hotspot count (`zipf_hotspot` model).
    pub hotspots: Option<usize>,
    /// Zipf popularity exponent (`zipf_hotspot` model).
    pub exponent: Option<f64>,
}

/// Interface section of a declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct InterfaceSpec {
    /// `lr` (locations returned) or `lnr` (rank only).
    pub kind: String,
    /// Top-k limit (default 10).
    pub k: Option<usize>,
    /// Maximum coverage radius in km.
    pub max_radius: Option<f64>,
    /// WeChat-style location-obfuscation grid size in km.
    pub obfuscation_grid: Option<f64>,
    /// Hard server-side query limit.
    pub query_limit: Option<u64>,
    /// Enables prominence ranking with this distance-per-prominence weight.
    pub prominence_weight: Option<f64>,
}

/// Session section of a declarative scenario: anytime-run knobs consumed by
/// the [`EstimationSession`] path (and by `lbs-server` jobs built from the
/// same spec).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionSpec {
    /// Fixed samples per wave (default: the adaptive sizing of the batch
    /// path, which keeps results byte-identical to a spec without
    /// `[session]`).
    pub wave_size: Option<u64>,
    /// Stop early once the 95 % confidence-interval half-width drops to
    /// this value.
    pub target_ci_halfwidth: Option<f64>,
    /// Stop early after this much wall-clock time (not deterministic).
    pub max_wall_ms: Option<u64>,
}

impl SessionSpec {
    /// Applies the spec's overrides to a base [`SessionConfig`].
    pub fn apply(&self, mut cfg: SessionConfig) -> SessionConfig {
        if let Some(wave) = self.wave_size {
            cfg = cfg.with_wave_size(wave);
        }
        if let Some(target) = self.target_ci_halfwidth {
            cfg = cfg.with_target_ci_halfwidth(target);
        }
        if let Some(ms) = self.max_wall_ms {
            cfg = cfg.with_max_wall_ms(ms);
        }
        cfg
    }
}

/// Backend-decorator section of a declarative scenario. Decorators are
/// applied innermost-to-outermost as: truncation, latency, rate limit, with
/// the answer cache placed by `cache_order` (outermost by default).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackendSpec {
    /// Pause after every this many queries (rate-limiter decorator).
    pub rate_limit_burst: Option<u64>,
    /// Pause duration in milliseconds (default 1 when a burst is set).
    pub rate_limit_pause_ms: Option<u64>,
    /// Fixed per-query latency in milliseconds (latency decorator).
    pub latency_ms: Option<u64>,
    /// Truncate every n-th answer ("flaky" decorator).
    pub truncate_every: Option<u64>,
    /// How many tuples a truncated answer keeps (default 1).
    pub truncate_to: Option<usize>,
    /// Answer cache: `"off"` (default), `"private"` (one cache per
    /// repetition — per-tenant on the server), or `"shared"` (one cache
    /// across repetitions — cross-tenant on the server).
    pub cache: Option<String>,
    /// Whether cache hits charge the service ledger like real queries
    /// (default `true`, which keeps cached runs bit-identical to uncached
    /// ones in estimates, traces, and the ledger).
    pub cache_hits_metered: Option<bool>,
    /// Placement of the cache relative to the rate limiter:
    /// `"cache_outside"` (hits skip the throttle) or `"cache_inside"`
    /// (every call is throttled). Required — and only allowed — when both
    /// `cache` and `rate_limit_burst` are set; the stack is ambiguous
    /// otherwise.
    pub cache_order: Option<String>,
}

/// How a workload's answers are cached, parsed from `[backend] cache`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// No answer cache.
    #[default]
    Off,
    /// One fresh cache per repetition (per-tenant cache on the server).
    Private,
    /// One cache shared across repetitions (cross-tenant on the server).
    Shared,
}

impl BackendSpec {
    /// Parses the `cache` knob (`Off` when absent).
    pub fn cache_mode(&self, id: &str) -> Result<CacheMode, String> {
        match self.cache.as_deref() {
            None | Some("off") => Ok(CacheMode::Off),
            Some("private") => Ok(CacheMode::Private),
            Some("shared") => Ok(CacheMode::Shared),
            Some(other) => Err(format!(
                "{id}: unknown backend cache `{other}` (off, private, shared)"
            )),
        }
    }

    /// Structural validation of the cache knobs: values, applicability, and
    /// the composition-order rules (see [`lbs_service::CachingBackend`]).
    fn validate(&self, id: &str) -> Result<(), String> {
        let cache_on = self.cache_mode(id)? != CacheMode::Off;
        if let Some(order) = self.cache_order.as_deref() {
            if !matches!(order, "cache_outside" | "cache_inside") {
                return Err(format!(
                    "{id}: unknown backend cache_order `{order}` (cache_outside, cache_inside)"
                ));
            }
            if !cache_on {
                return Err(format!(
                    "{id}: backend key `cache_order` does not apply without an enabled `cache`"
                ));
            }
            if self.rate_limit_burst.is_none() {
                return Err(format!(
                    "{id}: backend key `cache_order` does not apply without `rate_limit_burst`"
                ));
            }
        }
        if self.cache_hits_metered.is_some() && !cache_on {
            return Err(format!(
                "{id}: backend key `cache_hits_metered` does not apply without an enabled `cache`"
            ));
        }
        if cache_on {
            if self.truncate_every.is_some() {
                return Err(format!(
                    "{id}: ambiguous backend stack: `cache` cannot combine with \
                     `truncate_every` — caching an ordinal-truncated answer would replay \
                     the degraded page to every later query"
                ));
            }
            if self.rate_limit_burst.is_some() && self.cache_order.is_none() {
                return Err(format!(
                    "{id}: ambiguous backend stack: both `cache` and `rate_limit_burst` \
                     are set — add `cache_order = \"cache_outside\"` (hits skip the \
                     throttle) or `cache_order = \"cache_inside\"` (every call is \
                     throttled)"
                ));
            }
        }
        Ok(())
    }
}

/// Mutation section of a declarative scenario: between consecutive
/// repetitions, this many seeded-random inserts and deletes are applied to
/// the dataset. Each mutation bumps the dataset fingerprint; a shared answer
/// cache is migrated across the bump with certificate-bounded invalidation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutationSpec {
    /// Tuples inserted (at seeded-uniform points in the region) between
    /// repetitions.
    pub inserts_per_rep: Option<u64>,
    /// Tuples deleted (seeded-random existing ids) between repetitions.
    pub deletes_per_rep: Option<u64>,
}

impl MutationSpec {
    fn validate(&self, id: &str) -> Result<(), String> {
        if self.inserts_per_rep.unwrap_or(0) == 0 && self.deletes_per_rep.unwrap_or(0) == 0 {
            return Err(format!(
                "{id}: [mutations] needs `inserts_per_rep` or `deletes_per_rep` > 0"
            ));
        }
        Ok(())
    }
}

/// Aggregate section of a declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateSpec {
    /// `count`, `sum`, or `avg`.
    pub kind: String,
    /// Attribute to SUM/AVG over (required for those kinds).
    pub attr: Option<String>,
    /// Text-equality selection conditions (attribute → required value),
    /// conjoined.
    pub equals: Option<std::collections::BTreeMap<String, String>>,
    /// Boolean selection conditions (attribute → required flag), conjoined.
    pub flags: Option<std::collections::BTreeMap<String, bool>>,
    /// Numeric at-least conditions (attribute → inclusive minimum).
    pub at_least: Option<std::collections::BTreeMap<String, f64>>,
    /// Spatial selection `[min_x, min_y, max_x, max_y]`.
    pub region: Option<[f64; 4]>,
}

/// Estimator section of a declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct EstimatorSpec {
    /// `lr` (LR-LBS-AGG), `lnr` (LNR-LBS-AGG), or `nno` (LR-LBS-NNO).
    pub algorithm: String,
    /// Soft query budget per repetition.
    pub budget: u64,
    /// Independent repetitions (default 1); the report averages their
    /// relative errors.
    pub repetitions: Option<usize>,
    /// Fixed top-h level instead of the adaptive rule (LR only).
    pub fixed_h: Option<usize>,
    /// Figure-20 ablation level 0–4 (LR only).
    pub ablation_level: Option<usize>,
    /// Density-weighted sampling: `[cols, rows]` histogram resolution of the
    /// §5.2 external-knowledge grid (built from the dataset itself).
    pub weighted_grid: Option<[u64; 2]>,
    /// Pseudo-count smoothing of the weighted grid (default 0.1).
    pub weighted_smoothing: Option<f64>,
    /// `flat` (default) runs one session over the whole region;
    /// `stratified` splits the region per the `[strata]` section and merges
    /// per-stratum child sessions with the stratified Horvitz–Thompson
    /// combiner.
    pub strategy: Option<String>,
}

/// Stratification section of a declarative scenario (`[strata]`).
#[derive(Clone, Debug, PartialEq)]
pub struct StrataSpec {
    /// Partitioner: `grid` (near-square uniform tiling) or `density`
    /// (equal-mass vertical slabs cut from a density grid built over the
    /// dataset).
    pub partition: String,
    /// Number of strata (`1` is the bitwise-passthrough degenerate case).
    pub count: u64,
    /// Budget allocation across strata: `proportional` (default) or
    /// `neyman` (pilot half, then budget ∝ stratum weight × observed
    /// standard deviation).
    pub allocation: Option<String>,
}

impl StrataSpec {
    fn validate(&self, id: &str) -> Result<(), String> {
        if !matches!(self.partition.as_str(), "grid" | "density") {
            return Err(format!(
                "{id}: unknown strata partition `{}` (grid, density)",
                self.partition
            ));
        }
        if self.count == 0 {
            return Err(format!("{id}: strata count must be at least 1"));
        }
        if let Some(allocation) = &self.allocation {
            if !matches!(allocation.as_str(), "proportional" | "neyman") {
                return Err(format!(
                    "{id}: unknown strata allocation `{allocation}` (proportional, neyman)"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Strict deserialization helpers (the vendored serde has no derive attrs)
// ---------------------------------------------------------------------------

fn as_map<'a>(value: &'a Value, ty: &str) -> Result<&'a [(String, Value)], SerdeError> {
    match value {
        Value::Map(entries) => Ok(entries),
        // lbs-lint: allow(nondet-debug-fmt, reason = "vendored Value's Debug is deterministic; its map keeps insertion order")
        other => Err(SerdeError::custom(format!(
            "{ty}: expected a table, got {other:?}"
        ))),
    }
}

fn reject_unknown(
    entries: &[(String, Value)],
    ty: &str,
    allowed: &[&str],
) -> Result<(), SerdeError> {
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(SerdeError::custom(format!(
                "{ty}: unknown key `{key}` (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn opt<T: Deserialize>(
    entries: &[(String, Value)],
    ty: &str,
    key: &str,
) -> Result<Option<T>, SerdeError> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v)
            .map(Some)
            .map_err(|e| SerdeError::custom(format!("{ty}.{key}: {e}"))),
        None => Ok(None),
    }
}

fn req<T: Deserialize>(entries: &[(String, Value)], ty: &str, key: &str) -> Result<T, SerdeError> {
    opt(entries, ty, key)?
        .ok_or_else(|| SerdeError::custom(format!("{ty}: missing required key `{key}`")))
}

impl Deserialize for Scenario {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "scenario")?;
        reject_unknown(
            m,
            "scenario",
            &[
                "id",
                "title",
                "seed",
                "scale",
                "experiment",
                "dataset",
                "interface",
                "backend",
                "aggregate",
                "estimator",
                "strata",
                "session",
                "mutations",
            ],
        )?;
        Ok(Scenario {
            id: req(m, "scenario", "id")?,
            title: opt(m, "scenario", "title")?,
            seed: opt(m, "scenario", "seed")?,
            scale: opt(m, "scenario", "scale")?,
            experiment: opt(m, "scenario", "experiment")?,
            dataset: opt(m, "scenario", "dataset")?,
            interface: opt(m, "scenario", "interface")?,
            backend: opt(m, "scenario", "backend")?,
            aggregate: opt(m, "scenario", "aggregate")?,
            estimator: opt(m, "scenario", "estimator")?,
            strata: opt(m, "scenario", "strata")?,
            session: opt(m, "scenario", "session")?,
            mutations: opt(m, "scenario", "mutations")?,
        })
    }
}

impl Deserialize for StrataSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "strata")?;
        reject_unknown(m, "strata", &["partition", "count", "allocation"])?;
        Ok(StrataSpec {
            partition: req(m, "strata", "partition")?,
            count: req(m, "strata", "count")?,
            allocation: opt(m, "strata", "allocation")?,
        })
    }
}

impl Deserialize for SessionSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "session")?;
        reject_unknown(
            m,
            "session",
            &["wave_size", "target_ci_halfwidth", "max_wall_ms"],
        )?;
        Ok(SessionSpec {
            wave_size: opt(m, "session", "wave_size")?,
            target_ci_halfwidth: opt(m, "session", "target_ci_halfwidth")?,
            max_wall_ms: opt(m, "session", "max_wall_ms")?,
        })
    }
}

impl Deserialize for DatasetSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "dataset")?;
        reject_unknown(
            m,
            "dataset",
            &[
                "model",
                "size",
                "starbucks",
                "bbox",
                "cols",
                "rows",
                "jitter",
                "hotspots",
                "exponent",
            ],
        )?;
        Ok(DatasetSpec {
            model: req(m, "dataset", "model")?,
            size: req(m, "dataset", "size")?,
            starbucks: opt(m, "dataset", "starbucks")?,
            bbox: opt(m, "dataset", "bbox")?,
            cols: opt(m, "dataset", "cols")?,
            rows: opt(m, "dataset", "rows")?,
            jitter: opt(m, "dataset", "jitter")?,
            hotspots: opt(m, "dataset", "hotspots")?,
            exponent: opt(m, "dataset", "exponent")?,
        })
    }
}

impl Deserialize for InterfaceSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "interface")?;
        reject_unknown(
            m,
            "interface",
            &[
                "kind",
                "k",
                "max_radius",
                "obfuscation_grid",
                "query_limit",
                "prominence_weight",
            ],
        )?;
        Ok(InterfaceSpec {
            kind: req(m, "interface", "kind")?,
            k: opt(m, "interface", "k")?,
            max_radius: opt(m, "interface", "max_radius")?,
            obfuscation_grid: opt(m, "interface", "obfuscation_grid")?,
            query_limit: opt(m, "interface", "query_limit")?,
            prominence_weight: opt(m, "interface", "prominence_weight")?,
        })
    }
}

impl Deserialize for BackendSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "backend")?;
        reject_unknown(
            m,
            "backend",
            &[
                "rate_limit_burst",
                "rate_limit_pause_ms",
                "latency_ms",
                "truncate_every",
                "truncate_to",
                "cache",
                "cache_hits_metered",
                "cache_order",
            ],
        )?;
        Ok(BackendSpec {
            rate_limit_burst: opt(m, "backend", "rate_limit_burst")?,
            rate_limit_pause_ms: opt(m, "backend", "rate_limit_pause_ms")?,
            latency_ms: opt(m, "backend", "latency_ms")?,
            truncate_every: opt(m, "backend", "truncate_every")?,
            truncate_to: opt(m, "backend", "truncate_to")?,
            cache: opt(m, "backend", "cache")?,
            cache_hits_metered: opt(m, "backend", "cache_hits_metered")?,
            cache_order: opt(m, "backend", "cache_order")?,
        })
    }
}

impl Deserialize for MutationSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "mutations")?;
        reject_unknown(m, "mutations", &["inserts_per_rep", "deletes_per_rep"])?;
        Ok(MutationSpec {
            inserts_per_rep: opt(m, "mutations", "inserts_per_rep")?,
            deletes_per_rep: opt(m, "mutations", "deletes_per_rep")?,
        })
    }
}

impl Deserialize for AggregateSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "aggregate")?;
        reject_unknown(
            m,
            "aggregate",
            &["kind", "attr", "equals", "flags", "at_least", "region"],
        )?;
        Ok(AggregateSpec {
            kind: req(m, "aggregate", "kind")?,
            attr: opt(m, "aggregate", "attr")?,
            equals: opt(m, "aggregate", "equals")?,
            flags: opt(m, "aggregate", "flags")?,
            at_least: opt(m, "aggregate", "at_least")?,
            region: opt(m, "aggregate", "region")?,
        })
    }
}

impl Deserialize for EstimatorSpec {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let m = as_map(value, "estimator")?;
        reject_unknown(
            m,
            "estimator",
            &[
                "algorithm",
                "budget",
                "repetitions",
                "fixed_h",
                "ablation_level",
                "weighted_grid",
                "weighted_smoothing",
                "strategy",
            ],
        )?;
        Ok(EstimatorSpec {
            algorithm: req(m, "estimator", "algorithm")?,
            budget: req(m, "estimator", "budget")?,
            repetitions: opt(m, "estimator", "repetitions")?,
            fixed_h: opt(m, "estimator", "fixed_h")?,
            ablation_level: opt(m, "estimator", "ablation_level")?,
            weighted_grid: opt(m, "estimator", "weighted_grid")?,
            weighted_smoothing: opt(m, "estimator", "weighted_smoothing")?,
            strategy: opt(m, "estimator", "strategy")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

impl Scenario {
    /// Structural validation beyond per-field typing.
    pub fn validate(&self) -> Result<(), String> {
        if self.id.is_empty()
            || !self
                .id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(format!(
                "scenario id `{}` must be non-empty and use only [A-Za-z0-9_-] \
                 (it becomes a file name)",
                self.id
            ));
        }
        if let Some(scale) = &self.scale {
            if Scale::parse(scale).is_none() {
                return Err(format!("{}: unknown scale `{scale}`", self.id));
            }
        }
        if let Some(backend) = &self.backend {
            backend.validate(&self.id)?;
        }
        if let Some(mutations) = &self.mutations {
            mutations.validate(&self.id)?;
        }
        if let Some(strata) = &self.strata {
            strata.validate(&self.id)?;
        }
        let stratified = match self.estimator.as_ref().and_then(|e| e.strategy.as_deref()) {
            None | Some("flat") => false,
            Some("stratified") => true,
            Some(other) => {
                return Err(format!(
                    "{}: unknown estimator strategy `{other}` (flat, stratified)",
                    self.id
                ))
            }
        };
        match (stratified, self.strata.is_some()) {
            (true, false) => {
                return Err(format!(
                    "{}: `estimator.strategy = \"stratified\"` needs a [strata] section",
                    self.id
                ))
            }
            (false, true) => {
                return Err(format!(
                    "{}: a [strata] section needs `estimator.strategy = \"stratified\"`",
                    self.id
                ))
            }
            _ => {}
        }
        let declarative_sections = self.dataset.is_some()
            || self.interface.is_some()
            || self.aggregate.is_some()
            || self.estimator.is_some()
            || self.strata.is_some()
            || self.backend.is_some()
            || self.session.is_some()
            || self.mutations.is_some();
        match (&self.experiment, declarative_sections) {
            (Some(exp), false) => {
                if !all_experiment_ids().contains(&exp.as_str()) {
                    return Err(format!(
                        "{}: unknown experiment `{exp}` (valid: {})",
                        self.id,
                        all_experiment_ids().join(", ")
                    ));
                }
                Ok(())
            }
            (Some(_), true) => Err(format!(
                "{}: `experiment` and declarative sections are mutually exclusive",
                self.id
            )),
            (None, _) => {
                for (section, present) in [
                    ("dataset", self.dataset.is_some()),
                    ("interface", self.interface.is_some()),
                    ("aggregate", self.aggregate.is_some()),
                    ("estimator", self.estimator.is_some()),
                ] {
                    if !present {
                        return Err(format!(
                            "{}: declarative scenario is missing its [{section}] section",
                            self.id
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Loads one scenario file (`.toml` via the bundled TOML-subset parser,
/// `.json` via `serde_json`).
pub fn load_scenario(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let is_json = path
        .extension()
        .and_then(|e| e.to_str())
        .is_some_and(|e| e.eq_ignore_ascii_case("json"));
    let value: Value = if is_json {
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?
    } else {
        toml_lite::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?
    };
    let scenario = Scenario::from_value(&value).map_err(|e| format!("{}: {e}", path.display()))?;
    scenario
        .validate()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(scenario)
}

/// Loads every `.toml`/`.json` scenario in a directory, sorted by file name,
/// rejecting duplicate scenario ids.
pub fn load_scenario_dir(dir: &Path) -> Result<Vec<Scenario>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.eq_ignore_ascii_case("toml") || e.eq_ignore_ascii_case("json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!(
            "no .toml/.json scenario files found in {}",
            dir.display()
        ));
    }
    let mut scenarios = Vec::with_capacity(paths.len());
    let mut seen = std::collections::BTreeSet::new();
    for path in paths {
        let scenario = load_scenario(&path)?;
        if !seen.insert(scenario.id.clone()) {
            return Err(format!(
                "duplicate scenario id `{}` in {}",
                scenario.id,
                dir.display()
            ));
        }
        scenarios.push(scenario);
    }
    Ok(scenarios)
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

/// CLI-level defaults a scenario runs under.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioContext {
    /// Scale used when the scenario does not pin one (built-in form only).
    pub scale: Scale,
    /// Root seed used when the scenario does not pin one.
    pub seed: u64,
    /// Worker threads of the sample driver.
    pub threads: usize,
    /// Smoke mode: built-in scenarios drop to `Scale::Micro`, declarative
    /// ones cap dataset size, budget and repetitions — a fast CI sweep over
    /// every committed spec.
    pub smoke: bool,
}

/// Caps applied by `--smoke` to declarative scenarios.
const SMOKE_MAX_SIZE: usize = 200;
const SMOKE_MAX_BUDGET: u64 = 250;

/// Runs one scenario to an [`ExperimentResult`] keyed by the scenario id.
pub fn run_scenario(
    scenario: &Scenario,
    ctx: &ScenarioContext,
) -> Result<ExperimentResult, String> {
    scenario.validate()?;
    match &scenario.experiment {
        Some(experiment) => run_builtin(scenario, experiment, ctx),
        None => run_declarative(scenario, ctx),
    }
}

fn run_builtin(
    scenario: &Scenario,
    experiment: &str,
    ctx: &ScenarioContext,
) -> Result<ExperimentResult, String> {
    let mut scale = scenario
        .scale
        .as_deref()
        .and_then(Scale::parse)
        .unwrap_or(ctx.scale);
    if ctx.smoke {
        scale = Scale::Micro;
    }
    let seed = scenario.seed.unwrap_or(ctx.seed);
    let mut result = run_experiment_threaded(experiment, scale, seed, ctx.threads);
    // Key the output by the *scenario* id; rows and columns stay exactly the
    // hard-coded experiment's, so the CSV is bit-identical to the
    // `--experiment` path at equal scale/seed.
    result.id = scenario.id.clone();
    if let Some(title) = &scenario.title {
        result.title = title.clone();
    }
    Ok(result)
}

/// A fully-built declarative workload: the dataset, service configuration,
/// aggregate and estimator spec of one scenario, ready to be run — either
/// batch-style by [`run_scenario`] or as an anytime job by the `lbs-server`
/// scheduler.
pub struct Workload {
    /// Scenario id.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The generated (hidden) dataset, shared so repeated services over it
    /// need no deep copies.
    pub dataset: Arc<Dataset>,
    /// Region of interest (the dataset bounding box).
    pub region: Rect,
    /// Service interface configuration.
    pub service_config: ServiceConfig,
    /// The simulated service over `dataset` (ids, attributes, ranking
    /// locations and spatial index), built once: every backend is a copy of
    /// it charging the budget it was handed.
    service: SimulatedLbs,
    /// The aggregate to estimate.
    pub aggregate: Aggregate,
    /// Ground truth of the aggregate (known because we generated the data —
    /// used for reporting, never by the estimators).
    pub truth: f64,
    /// Estimator section of the spec.
    pub estimator: EstimatorSpec,
    /// Stratification section (present iff the estimator strategy is
    /// `stratified`).
    pub strata: Option<StrataSpec>,
    /// Interface kind (`lr` / `lnr`) for estimator-compatibility checks.
    pub interface_kind: String,
    /// Optional backend decorators.
    pub backend_spec: Option<BackendSpec>,
    /// Optional anytime-session knobs.
    pub session_spec: Option<SessionSpec>,
    /// Optional between-repetition mutation stream.
    pub mutations: Option<MutationSpec>,
    /// Root seed (repetition seeds derive from it via
    /// [`Workload::rep_seed`]).
    pub seed: u64,
    /// Per-repetition soft query budget (after smoke caps).
    pub budget: u64,
    /// Repetitions to run (after smoke caps).
    pub repetitions: usize,
    /// Whether smoke caps were applied.
    pub smoke: bool,
}

/// Builds the [`Workload`] of a declarative scenario (errors on built-in
/// `experiment = "figNN"` specs — those have no single-job form).
pub fn build_workload(scenario: &Scenario, ctx: &ScenarioContext) -> Result<Workload, String> {
    scenario.validate()?;
    if scenario.experiment.is_some() {
        return Err(format!(
            "{}: built-in experiment scenarios cannot be built as single workloads",
            scenario.id
        ));
    }
    let id = &scenario.id;
    let dataset_spec = scenario.dataset.as_ref().expect("validated");
    let interface = scenario.interface.as_ref().expect("validated");
    let aggregate_spec = scenario.aggregate.as_ref().expect("validated");
    let estimator = scenario.estimator.as_ref().expect("validated");

    let mut size = dataset_spec.size;
    let mut budget = estimator.budget;
    let mut repetitions = estimator.repetitions.unwrap_or(1).max(1);
    if ctx.smoke {
        size = size.min(SMOKE_MAX_SIZE);
        budget = budget.min(SMOKE_MAX_BUDGET);
        repetitions = 1;
    }
    let seed = scenario.seed.unwrap_or(ctx.seed);

    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = build_dataset(id, dataset_spec, size, &mut rng)?;
    let region = dataset.bbox();
    let service_config = build_service_config(id, interface)?;
    let aggregate = build_aggregate(id, aggregate_spec)?;
    let truth = aggregate.ground_truth(&dataset, &region);
    let dataset = Arc::new(dataset);
    let service = SimulatedLbs::over(dataset.clone(), service_config.clone());
    Ok(Workload {
        id: id.clone(),
        title: scenario.title.clone().unwrap_or_else(|| id.clone()),
        dataset,
        region,
        service_config,
        service,
        aggregate,
        truth,
        estimator: estimator.clone(),
        strata: scenario.strata.clone(),
        interface_kind: interface.kind.clone(),
        backend_spec: scenario.backend.clone(),
        session_spec: scenario.session.clone(),
        mutations: scenario.mutations.clone(),
        seed,
        budget,
        repetitions,
        smoke: ctx.smoke,
    })
}

impl Workload {
    /// Seed of one repetition (repetition 0 is what a single-shot server job
    /// runs).
    pub fn rep_seed(&self, rep: usize) -> u64 {
        self.seed ^ (1_000 + rep as u64)
    }

    /// The scenario's [`CacheMode`] (validated at load time; `Off` without a
    /// `[backend]` section).
    pub fn cache_mode(&self) -> CacheMode {
        self.backend_spec
            .as_ref()
            .and_then(|s| s.cache_mode(&self.id).ok())
            .unwrap_or(CacheMode::Off)
    }

    /// Whether cache hits charge the service ledger (default `true`).
    pub fn cache_hits_metered(&self) -> bool {
        self.backend_spec
            .as_ref()
            .and_then(|s| s.cache_hits_metered)
            .unwrap_or(true)
    }

    /// A fresh per-repetition [`QueryBudget`] honouring the scenario's
    /// `query_limit`.
    pub fn fresh_budget(&self) -> Arc<QueryBudget> {
        match self.service_config.query_limit {
            Some(limit) => QueryBudget::with_limit(limit),
            None => QueryBudget::unlimited(),
        }
    }

    /// A backend over the workload's service with a fresh budget and fresh
    /// decorators. One per repetition: the budget is per-repetition, so a
    /// hard `query_limit` must meter each repetition separately, and
    /// decorator ordinals reset too. The index is shared, not rebuilt.
    pub fn backend(&self) -> Box<dyn LbsBackend> {
        self.backend_with_budget(self.fresh_budget())
    }

    /// A backend over the workload's service charging an externally-owned
    /// [`QueryBudget`] — how the `lbs-server` scheduler points every job of
    /// a tenant at that tenant's shared quota. A hard limit on the passed
    /// budget supersedes the scenario's own `query_limit`. When the
    /// scenario enables a cache, a fresh (run-private) [`AnswerCache`] is
    /// attached; callers holding a longer-lived cache use
    /// [`Workload::backend_with_budget_and_cache`].
    pub fn backend_with_budget(&self, budget: Arc<QueryBudget>) -> Box<dyn LbsBackend> {
        let cache = match self.cache_mode() {
            CacheMode::Off => None,
            CacheMode::Private | CacheMode::Shared => Some(AnswerCache::unbounded()),
        };
        self.backend_with_budget_and_cache(budget, cache)
    }

    /// A backend over the workload's service charging `budget`, with
    /// answers cached in the explicitly-passed `cache` (`None` disables
    /// caching regardless of the spec) — how a shared cache outlives any
    /// single repetition or tenant job.
    pub fn backend_with_budget_and_cache(
        &self,
        budget: Arc<QueryBudget>,
        cache: Option<Arc<AnswerCache>>,
    ) -> Box<dyn LbsBackend> {
        self.backend_over(&self.service, budget, cache)
    }

    /// Fully-general backend constructor: an explicit built service (the
    /// mutating declarative runner rebuilds one after each mutation),
    /// budget, and optional cache. The cache's placement follows the spec's
    /// `cache_order`: outermost by default (hits skip every decorator),
    /// innermost-but-one with `"cache_inside"` (every call pays the
    /// decorators' cost).
    fn backend_over(
        &self,
        service: &SimulatedLbs,
        budget: Arc<QueryBudget>,
        cache: Option<Arc<AnswerCache>>,
    ) -> Box<dyn LbsBackend> {
        let service = service.with_budget(budget);
        let spec = self.backend_spec.as_ref();
        let Some(cache) = cache else {
            return decorate_boxed(Box::new(service), spec);
        };
        let ledger = service.budget().share();
        let version = backend_fingerprint(service.dataset(), &self.service_config);
        let metered = self.cache_hits_metered();
        if spec.and_then(|s| s.cache_order.as_deref()) == Some("cache_inside") {
            let cached: Box<dyn LbsBackend> = Box::new(CachingBackend::new(
                service, cache, ledger, metered, version,
            ));
            decorate_boxed(cached, spec)
        } else {
            let decorated = decorate_boxed(Box::new(service), spec);
            Box::new(CachingBackend::new(
                decorated, cache, ledger, metered, version,
            ))
        }
    }

    /// The [`SessionConfig`] of one repetition: batch-equivalent
    /// defaults with the spec's `[session]` overrides applied.
    pub fn session_config(&self, threads: usize, rep: usize) -> SessionConfig {
        let cfg = SessionConfig::new(self.budget, self.rep_seed(rep)).with_threads(threads);
        match &self.session_spec {
            Some(spec) => spec.apply(cfg),
            None => cfg,
        }
    }

    /// Builds the disjoint strata of the workload's `[strata]` section:
    /// a near-square uniform tiling (`grid`) or equal-mass vertical slabs
    /// cut from a density grid over the dataset (`density`). Deterministic —
    /// the density grid is a pure function of the dataset.
    fn build_strata(&self, spec: &StrataSpec) -> Result<Vec<lbs_data::Stratum>, String> {
        let count = usize::try_from(spec.count)
            .map_err(|_| format!("{}: strata count {} is out of range", self.id, spec.count))?;
        let stratifier = match spec.partition.as_str() {
            "grid" => Stratifier::grid(count),
            "density" => {
                // Enough columns that each slab spans several cells; one row
                // because the slabs are vertical cuts.
                let cols = count.saturating_mul(4).max(32);
                let grid = DensityGrid::from_dataset(&self.dataset, cols, 1, 0.1);
                Stratifier::density(grid, count)
            }
            other => {
                return Err(format!(
                    "{}: unknown strata partition `{other}` (grid, density)",
                    self.id
                ))
            }
        };
        Ok(stratifier.strata(&self.region))
    }

    /// Starts an anytime [`EstimationSession`] over `backend` with the given
    /// run-control config, choosing and configuring the estimator from the
    /// spec. With a default [`SessionConfig`] the finished session's
    /// estimate is byte-identical to the batch path.
    pub fn start_session<S: LbsBackend>(
        &self,
        backend: S,
        cfg: SessionConfig,
    ) -> Result<EstimationSession<S>, String> {
        let kind = estimator_configs(
            &self.id,
            &self.estimator,
            &self.interface_kind,
            &self.dataset,
            &self.region,
        )?;
        if let Some(spec) = &self.strata {
            let strata = self.build_strata(spec)?;
            let allocation = match spec.allocation.as_deref() {
                Some("neyman") => AllocationPolicy::Neyman,
                _ => AllocationPolicy::Proportional,
            };
            return Ok(EstimationSession::Stratified(Box::new(
                StratifiedSession::new(
                    backend,
                    &self.region,
                    &self.aggregate,
                    kind,
                    strata,
                    allocation,
                    cfg,
                ),
            )));
        }
        Ok(EstimationSession::new(
            backend,
            &self.region,
            &self.aggregate,
            kind,
            cfg,
        ))
    }
}

fn run_declarative(scenario: &Scenario, ctx: &ScenarioContext) -> Result<ExperimentResult, String> {
    let workload = build_workload(scenario, ctx)?;

    let mut result = ExperimentResult::new(&workload.id, &workload.title);
    result.note(format!(
        "dataset {} ({} tuples), interface {} k={}, aggregate {} (truth {:.2}), \
         estimator {} budget {}",
        scenario.dataset.as_ref().expect("validated").model,
        workload.dataset.len(),
        workload.interface_kind,
        workload.service_config.k,
        scenario.aggregate.as_ref().expect("validated").kind,
        workload.truth,
        workload.estimator.algorithm,
        workload.budget,
    ));
    if let Some(backend_spec) = &workload.backend_spec {
        result.note(describe_backend(backend_spec));
    }
    if let Some(session_spec) = &workload.session_spec {
        result.note(describe_session(session_spec));
    }
    if let Some(mutations) = &workload.mutations {
        result.note(format!(
            "mutations between repetitions: {} inserts, {} deletes",
            mutations.inserts_per_rep.unwrap_or(0),
            mutations.deletes_per_rep.unwrap_or(0)
        ));
    }
    if workload.smoke {
        result.note("smoke mode: dataset size, budget and repetitions capped".to_string());
    }

    // One path for every repetition: the anytime session. With no
    // `[session]` overrides it gives the bits of the estimators' `run` with
    // the same `SessionConfig`, which is itself a loop over a session.
    let mode = workload.cache_mode();
    let shared_cache = match mode {
        CacheMode::Shared => Some(AnswerCache::unbounded()),
        _ => None,
    };
    let mut private_stats = CacheStats::default();
    let mut current = workload.service.clone();
    let mut truth = workload.truth;
    // The mutation stream draws from its own seeded RNG so that adding a
    // `[mutations]` section never perturbs dataset generation.
    let mut mutation_rng = StdRng::seed_from_u64(workload.seed ^ MUTATION_SEED_SALT);
    for rep in 0..workload.repetitions {
        let rep_cache = match mode {
            CacheMode::Off => None,
            CacheMode::Private => Some(AnswerCache::unbounded()),
            CacheMode::Shared => shared_cache.as_ref().map(|c| c.share()),
        };
        let backend = workload.backend_over(&current, workload.fresh_budget(), rep_cache.clone());
        let cfg = workload.session_config(ctx.threads, rep);
        let mut session = workload.start_session(backend, cfg)?;
        while !session.is_finished() {
            session.run_wave();
        }
        let snapshot = session.snapshot();
        let estimate = friendly_estimate(&workload, session.finalize())?;
        result.add_engine(&estimate.engine);
        let mut row = Row::new()
            .with("rep", rep)
            .with_f64("estimate", estimate.value)
            .with_f64("ground truth", truth)
            .with("rel err", format!("{:.4}", estimate.relative_error(truth)))
            .with("query cost", estimate.query_cost)
            .with("samples", estimate.samples);
        if workload.session_spec.is_some() {
            // Anytime runs additionally report their wave count and stop
            // reason.
            row = row.with("waves", snapshot.waves).with(
                "stop",
                snapshot
                    .stop
                    // lbs-lint: allow(nondet-debug-fmt, reason = "StopReason is a fieldless enum; Debug prints a fixed variant name")
                    .map(|s| format!("{s:?}"))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        result.push(row);
        if let (CacheMode::Private, Some(cache)) = (mode, &rep_cache) {
            private_stats.absorb(cache.stats());
        }
        if rep + 1 < workload.repetitions {
            if let Some(spec) = &workload.mutations {
                current = mutated(
                    &current,
                    &workload,
                    spec,
                    shared_cache.as_ref(),
                    &mut mutation_rng,
                );
                truth = workload
                    .aggregate
                    .ground_truth(current.dataset(), &workload.region);
            }
        }
    }
    let cache_totals = match (mode, &shared_cache) {
        (CacheMode::Shared, Some(cache)) => Some(cache.stats()),
        (CacheMode::Private, _) => Some(private_stats),
        _ => None,
    };
    if let Some(stats) = cache_totals {
        result.note(format!(
            "answer cache: {} hits, {} misses, {} invalidations, {} evictions",
            stats.hits, stats.misses, stats.invalidations, stats.evictions
        ));
    }
    Ok(result)
}

/// Salt of the mutation RNG stream (disjoint from the dataset-generation and
/// repetition seeds).
const MUTATION_SEED_SALT: u64 = 0x6d75_7461_7465;

/// Applies one repetition boundary's worth of inserts and deletes to a copy
/// of `service`'s dataset and returns a service built over the result,
/// migrating `cache` (the shared answer cache, when one exists) across
/// every dataset-version bump with the certificate-bounded invalidation of
/// [`AnswerCache`].
fn mutated(
    service: &SimulatedLbs,
    workload: &Workload,
    spec: &MutationSpec,
    cache: Option<&Arc<AnswerCache>>,
    rng: &mut StdRng,
) -> SimulatedLbs {
    let mut dataset = service.dataset().clone();
    let config = &workload.service_config;
    for _ in 0..spec.inserts_per_rep.unwrap_or(0) {
        let location = workload.region.at_fraction(rng.gen(), rng.gen());
        let old_version = backend_fingerprint(&dataset, config);
        dataset.insert(Tuple::new(dataset.next_id(), location));
        let new_version = backend_fingerprint(&dataset, config);
        if let Some(cache) = cache {
            cache.apply_insert(old_version, new_version, &location);
        }
    }
    for _ in 0..spec.deletes_per_rep.unwrap_or(0) {
        if dataset.is_empty() {
            break;
        }
        let pick = ((rng.gen::<f64>() * dataset.len() as f64) as usize).min(dataset.len() - 1);
        let id = dataset.tuples()[pick].id;
        let old_version = backend_fingerprint(&dataset, config);
        dataset.remove(id);
        let new_version = backend_fingerprint(&dataset, config);
        if let Some(cache) = cache {
            cache.apply_delete(old_version, new_version, id);
        }
    }
    SimulatedLbs::over(Arc::new(dataset), config.clone())
}

/// Maps estimator errors onto actionable scenario-level messages.
fn friendly_estimate(
    workload: &Workload,
    outcome: Result<Estimate, EstimateError>,
) -> Result<Estimate, String> {
    match outcome {
        Ok(estimate) => Ok(estimate),
        Err(EstimateError::NoSamples) => Err(format!(
            "{}: the query budget ({}) was exhausted before any sample completed",
            workload.id, workload.budget
        )),
        Err(EstimateError::Service(msg)) => Err(format!("{}: service error: {msg}", workload.id)),
    }
}

fn describe_backend(spec: &BackendSpec) -> String {
    let mut parts = Vec::new();
    if let Some(every) = spec.truncate_every {
        parts.push(format!(
            "truncate every {every} answers to {}",
            spec.truncate_to.unwrap_or(1)
        ));
    }
    if let Some(ms) = spec.latency_ms {
        parts.push(format!("{ms} ms latency"));
    }
    if let Some(burst) = spec.rate_limit_burst {
        parts.push(format!(
            "rate limit: pause {} ms after every {burst} queries",
            spec.rate_limit_pause_ms.unwrap_or(1)
        ));
    }
    if let Some(cache) = spec.cache.as_deref() {
        if cache != "off" {
            let metered = if spec.cache_hits_metered.unwrap_or(true) {
                "metered"
            } else {
                "unmetered"
            };
            let order = match spec.cache_order.as_deref() {
                Some("cache_inside") => ", inside the rate limit",
                Some("cache_outside") => ", outside the rate limit",
                _ => "",
            };
            parts.push(format!("{cache} answer cache ({metered} hits{order})"));
        }
    }
    if parts.is_empty() {
        "backend: undecorated".to_string()
    } else {
        format!("backend decorators: {}", parts.join("; "))
    }
}

fn build_dataset(
    id: &str,
    spec: &DatasetSpec,
    size: usize,
    rng: &mut StdRng,
) -> Result<Dataset, String> {
    // Strictness extends past unknown keys: a key that exists but does not
    // apply to the chosen model (say, `jitter` on `usa_pois` after editing
    // the model line) would otherwise be ignored and run a different
    // workload than the spec reads.
    let inapplicable: &[(&str, bool)] = match spec.model.as_str() {
        "usa_pois" | "uniform" => &[
            ("cols", spec.cols.is_some()),
            ("rows", spec.rows.is_some()),
            ("jitter", spec.jitter.is_some()),
            ("hotspots", spec.hotspots.is_some()),
            ("exponent", spec.exponent.is_some()),
        ],
        "wechat_users" | "weibo_users" => &[
            ("starbucks", spec.starbucks.is_some()),
            ("cols", spec.cols.is_some()),
            ("rows", spec.rows.is_some()),
            ("jitter", spec.jitter.is_some()),
            ("hotspots", spec.hotspots.is_some()),
            ("exponent", spec.exponent.is_some()),
        ],
        "grid" => &[
            ("hotspots", spec.hotspots.is_some()),
            ("exponent", spec.exponent.is_some()),
        ],
        "zipf_hotspot" => &[
            ("cols", spec.cols.is_some()),
            ("rows", spec.rows.is_some()),
            ("jitter", spec.jitter.is_some()),
        ],
        _ => &[],
    };
    for (key, present) in inapplicable {
        if *present {
            return Err(format!(
                "{id}: dataset key `{key}` does not apply to model `{}`",
                spec.model
            ));
        }
    }
    let mut builder = match spec.model.as_str() {
        "usa_pois" => ScenarioBuilder::usa_pois(size),
        "wechat_users" => ScenarioBuilder::wechat_users(size),
        "weibo_users" => ScenarioBuilder::weibo_users(size),
        "uniform" => {
            let bbox = spec
                .bbox
                .map(|b| rect_from(id, b))
                .transpose()?
                .unwrap_or_else(lbs_data::region::usa);
            ScenarioBuilder::uniform_points(size, bbox)
        }
        "grid" => ScenarioBuilder::grid_pois(
            size,
            spec.cols.unwrap_or(8),
            spec.rows.unwrap_or(8),
            spec.jitter.unwrap_or(0.0),
        ),
        "zipf_hotspot" => ScenarioBuilder::zipf_hotspot_pois(
            size,
            spec.hotspots.unwrap_or(12),
            spec.exponent.unwrap_or(1.2),
        ),
        other => {
            return Err(format!(
                "{id}: unknown dataset model `{other}` (usa_pois, wechat_users, weibo_users, \
                 uniform, grid, zipf_hotspot)"
            ))
        }
    };
    if spec.model != "uniform" {
        if let Some(bbox) = spec.bbox {
            builder = builder.with_bbox(rect_from(id, bbox)?);
        }
    }
    if let Some(starbucks) = spec.starbucks {
        builder = builder.with_starbucks(starbucks);
    }
    Ok(builder.build(rng))
}

fn rect_from(id: &str, b: [f64; 4]) -> Result<Rect, String> {
    if !(b[0] <= b[2] && b[1] <= b[3]) {
        return Err(format!(
            "{id}: invalid bbox [{}, {}, {}, {}] (min must not exceed max)",
            b[0], b[1], b[2], b[3]
        ));
    }
    Ok(Rect::from_bounds(b[0], b[1], b[2], b[3]))
}

fn build_service_config(id: &str, spec: &InterfaceSpec) -> Result<ServiceConfig, String> {
    let k = spec.k.unwrap_or(10);
    let mut config = match spec.kind.as_str() {
        "lr" => ServiceConfig::lr_lbs(k),
        "lnr" => ServiceConfig::lnr_lbs(k),
        other => return Err(format!("{id}: unknown interface kind `{other}` (lr, lnr)")),
    };
    if let Some(radius) = spec.max_radius {
        config = config.with_max_radius(radius);
    }
    if let Some(grid) = spec.obfuscation_grid {
        config = config.with_obfuscation(grid);
    }
    if let Some(limit) = spec.query_limit {
        config = config.with_query_limit(limit);
    }
    if let Some(weight) = spec.prominence_weight {
        config = config.with_ranking(Ranking::Prominence { weight });
    }
    Ok(config)
}

/// Stacks the configured decorators around a backend. Order (innermost
/// first): truncation, latency, rate limit — restrictions of the data
/// before restrictions of the transport, like a real flaky-but-throttled
/// endpoint.
fn decorate_boxed(
    mut backend: Box<dyn LbsBackend>,
    spec: Option<&BackendSpec>,
) -> Box<dyn LbsBackend> {
    let Some(spec) = spec else {
        return backend;
    };
    if let Some(every) = spec.truncate_every {
        backend = Box::new(TruncatingBackend::new(
            backend,
            every,
            spec.truncate_to.unwrap_or(1),
        ));
    }
    if let Some(ms) = spec.latency_ms {
        backend = Box::new(LatencyBackend::new(backend, Duration::from_millis(ms)));
    }
    if let Some(burst) = spec.rate_limit_burst {
        backend = Box::new(RateLimitedBackend::new(
            backend,
            burst,
            Duration::from_millis(spec.rate_limit_pause_ms.unwrap_or(1)),
        ));
    }
    backend
}

fn build_aggregate(id: &str, spec: &AggregateSpec) -> Result<Aggregate, String> {
    let mut parts: Vec<Selection> = Vec::new();
    if let Some(equals) = &spec.equals {
        for (attr, value) in equals {
            parts.push(Selection::TextEquals {
                attr: attr.clone(),
                value: value.clone(),
            });
        }
    }
    if let Some(flags) = &spec.flags {
        for (attr, expected) in flags {
            parts.push(Selection::Flag {
                attr: attr.clone(),
                expected: *expected,
            });
        }
    }
    if let Some(at_least) = &spec.at_least {
        for (attr, min) in at_least {
            parts.push(Selection::AtLeast {
                attr: attr.clone(),
                min: *min,
            });
        }
    }
    if let Some(region) = spec.region {
        parts.push(Selection::InRegion(rect_from(id, region)?));
    }
    let selection = match parts.len() {
        0 => Selection::All,
        1 => parts.pop().expect("length checked"),
        _ => Selection::And(parts),
    };
    match spec.kind.as_str() {
        "count" => Ok(Aggregate::count_where(selection)),
        "sum" | "avg" => {
            let attr = spec
                .attr
                .as_deref()
                .ok_or_else(|| format!("{id}: aggregate kind `{}` needs `attr`", spec.kind))?;
            Ok(if spec.kind == "sum" {
                Aggregate::sum_where(attr, selection)
            } else {
                Aggregate::avg_where(attr, selection)
            })
        }
        other => Err(format!(
            "{id}: unknown aggregate kind `{other}` (count, sum, avg)"
        )),
    }
}

/// Resolves and validates the estimator configuration of a spec (shared by
/// the batch and session paths, so they cannot diverge).
fn estimator_configs(
    id: &str,
    spec: &EstimatorSpec,
    interface_kind: &str,
    dataset: &Dataset,
    region: &Rect,
) -> Result<EstimatorKind, String> {
    let weighted_sampler = spec
        .weighted_grid
        .map(|[cols, rows]| {
            if cols == 0 || rows == 0 {
                return Err(format!("{id}: weighted_grid needs positive dimensions"));
            }
            Ok(DensityGrid::from_dataset(
                dataset,
                cols as usize,
                rows as usize,
                spec.weighted_smoothing.unwrap_or(0.1),
            ))
        })
        .transpose()?;
    match spec.algorithm.as_str() {
        "lr" | "nno" if interface_kind != "lr" => Err(format!(
            "{id}: estimator `{}` needs `interface.kind = \"lr\"` (locations returned)",
            spec.algorithm
        )),
        "lr" => {
            let mut config = match spec.ablation_level {
                Some(level) => {
                    if level > 4 {
                        return Err(format!("{id}: ablation_level must be 0..=4, got {level}"));
                    }
                    LrLbsAggConfig::ablation_level(level)
                }
                None => LrLbsAggConfig::default(),
            };
            if let Some(h) = spec.fixed_h {
                config = LrLbsAggConfig {
                    h_selection: lbs_core::HSelection::Fixed(h),
                    ..config
                };
            }
            config.weighted_sampler = weighted_sampler;
            Ok(EstimatorKind::Lr(config))
        }
        "nno" => Ok(EstimatorKind::Nno(NnoConfig)),
        "lnr" => {
            let delta = lnr_delta(region);
            Ok(EstimatorKind::Lnr(LnrLbsAggConfig {
                delta,
                delta_prime: delta * 10.0,
                weighted_sampler,
                ..LnrLbsAggConfig::default()
            }))
        }
        other => Err(format!(
            "{id}: unknown estimator algorithm `{other}` (lr, lnr, nno)"
        )),
    }
}

fn describe_session(spec: &SessionSpec) -> String {
    let mut parts = Vec::new();
    if let Some(wave) = spec.wave_size {
        parts.push(format!("wave size {wave}"));
    }
    if let Some(target) = spec.target_ci_halfwidth {
        parts.push(format!("target CI half-width {target}"));
    }
    if let Some(ms) = spec.max_wall_ms {
        parts.push(format!("wall cap {ms} ms"));
    }
    if parts.is_empty() {
        "session: batch-equivalent (no overrides)".to_string()
    } else {
        format!("session: {}", parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ScenarioContext {
        ScenarioContext {
            scale: Scale::Micro,
            seed: 2015,
            threads: 1,
            smoke: false,
        }
    }

    fn parse_scenario(toml: &str) -> Scenario {
        let value = toml_lite::parse(toml).expect("toml");
        let s = Scenario::from_value(&value).expect("deserialize");
        s.validate().expect("validate");
        s
    }

    #[test]
    fn builtin_scenario_round_trips() {
        let s = parse_scenario("id = \"fig11-spec\"\nexperiment = \"fig11\"\n");
        assert_eq!(s.experiment.as_deref(), Some("fig11"));
        let result = run_scenario(&s, &ctx()).expect("run");
        assert_eq!(result.id, "fig11-spec");
        // Same rows as the hard-coded path.
        let direct = run_experiment_threaded("fig11", Scale::Micro, 2015, 1);
        assert_eq!(result.to_csv(), direct.to_csv());
    }

    #[test]
    fn declarative_scenario_runs_end_to_end() {
        let s = parse_scenario(
            r#"
id = "decl-count"
seed = 7

[dataset]
model = "uniform"
size = 80
bbox = [0.0, 0.0, 120.0, 120.0]

[interface]
kind = "lr"
k = 5

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 150
repetitions = 2
"#,
        );
        let result = run_scenario(&s, &ctx()).expect("run");
        assert_eq!(result.rows.len(), 2);
        assert!(result.mean_reported_rel_error().is_some());
        assert!(result.max_reported_cost().unwrap() >= 150);
    }

    #[test]
    fn selection_conditions_flow_into_the_aggregate() {
        let spec = AggregateSpec {
            kind: "count".into(),
            attr: None,
            equals: Some(
                [("category".to_string(), "school".to_string())]
                    .into_iter()
                    .collect(),
            ),
            flags: None,
            at_least: None,
            region: Some([0.0, 0.0, 10.0, 10.0]),
        };
        let agg = build_aggregate("t", &spec).expect("aggregate");
        assert!(matches!(agg.selection, Selection::And(ref v) if v.len() == 2));
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_name() {
        let value = toml_lite::parse("id = \"x\"\nexperimnt = \"fig11\"\n").unwrap();
        let err = Scenario::from_value(&value).unwrap_err();
        assert!(err.to_string().contains("experimnt"), "{err}");

        let value =
            toml_lite::parse("id = \"x\"\n[dataset]\nmodel = \"grid\"\nsize = 10\nrowz = 3\n")
                .unwrap();
        let err = Scenario::from_value(&value).unwrap_err();
        assert!(err.to_string().contains("rowz"), "{err}");
    }

    #[test]
    fn interface_index_key_is_rejected() {
        // Every service answers from one grid index, so `index` is not an
        // interface key.
        let value =
            toml_lite::parse("id = \"x\"\n[interface]\nkind = \"lr\"\nk = 10\nindex = \"grid\"\n")
                .unwrap();
        let err = Scenario::from_value(&value).unwrap_err().to_string();
        assert!(err.contains("unknown key `index`"), "{err}");
        assert!(
            err.contains(
                "(allowed: kind, k, max_radius, obfuscation_grid, query_limit, prominence_weight)"
            ),
            "{err}"
        );
    }

    #[test]
    fn validation_catches_structural_mistakes() {
        // Builtin + declarative sections.
        let value = toml_lite::parse(
            "id = \"x\"\nexperiment = \"fig11\"\n[dataset]\nmodel = \"uniform\"\nsize = 5\n",
        )
        .unwrap();
        let s = Scenario::from_value(&value).unwrap();
        assert!(s.validate().unwrap_err().contains("mutually exclusive"));

        // Declarative with a missing section.
        let value =
            toml_lite::parse("id = \"x\"\n[dataset]\nmodel = \"uniform\"\nsize = 5\n").unwrap();
        let s = Scenario::from_value(&value).unwrap();
        assert!(s.validate().unwrap_err().contains("[interface]"));

        // Unknown experiment.
        let value = toml_lite::parse("id = \"x\"\nexperiment = \"fig99\"\n").unwrap();
        let s = Scenario::from_value(&value).unwrap();
        assert!(s.validate().unwrap_err().contains("fig99"));

        // Bad id.
        let value = toml_lite::parse("id = \"bad id!\"\nexperiment = \"fig11\"\n").unwrap();
        let s = Scenario::from_value(&value).unwrap();
        assert!(s.validate().unwrap_err().contains("file name"));
    }

    #[test]
    fn estimator_interface_mismatch_is_a_friendly_error() {
        let s = parse_scenario(
            r#"
id = "mismatch"

[dataset]
model = "uniform"
size = 30

[interface]
kind = "lnr"

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 50
"#,
        );
        let err = run_scenario(&s, &ctx()).unwrap_err();
        assert!(err.contains("interface.kind"), "{err}");
    }

    #[test]
    fn hard_query_limit_meters_each_repetition_separately() {
        // `budget` is per-repetition, so a hard `query_limit` only slightly
        // above it must not starve the later repetitions (the service used
        // to be built once, its limit silently spanning all reps).
        let s = parse_scenario(
            r#"
id = "limited-reps"

[dataset]
model = "uniform"
size = 60

[interface]
kind = "lr"
k = 5
query_limit = 500

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 400
repetitions = 3
"#,
        );
        let result = run_scenario(&s, &ctx()).expect("all repetitions complete");
        assert_eq!(result.rows.len(), 3);
    }

    /// Uniform query points over the workload's region.
    fn query_points(workload: &Workload, n: usize, seed: u64) -> Vec<lbs_geom::Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| workload.region.at_fraction(rng.gen(), rng.gen()))
            .collect()
    }

    #[test]
    fn backends_share_the_service_but_meter_only_their_own_queries() {
        let s = cache_scenario("shared-index", "cache = \"off\"");
        let workload = build_workload(&s, &ctx()).unwrap();
        let first = workload.backend();
        let second = workload.backend();
        let points = query_points(&workload, 25, 3);
        for p in &points {
            assert_eq!(first.query(p).unwrap(), second.query(p).unwrap());
        }
        first.query(&points[0]).unwrap();
        assert_eq!(first.queries_issued(), 26);
        assert_eq!(second.queries_issued(), 25);
        assert_eq!(workload.backend().queries_issued(), 0);
    }

    #[test]
    fn a_query_limit_exhausts_each_backend_separately() {
        let s = parse_scenario(
            r#"
id = "limited-backends"

[dataset]
model = "uniform"
size = 60

[interface]
kind = "lr"
k = 5
query_limit = 10

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 8
"#,
        );
        let workload = build_workload(&s, &ctx()).unwrap();
        let points = query_points(&workload, 11, 5);
        let spent = workload.backend();
        for p in &points[..10] {
            spent.query(p).unwrap();
        }
        assert!(matches!(
            spent.query(&points[10]),
            Err(lbs_service::QueryError::BudgetExhausted { limit: 10, .. })
        ));
        let fresh = workload.backend();
        assert!(fresh.query(&points[10]).is_ok());
        assert_eq!(fresh.queries_issued(), 1);
    }

    #[test]
    fn a_mutation_rebuilds_the_service_over_the_mutated_dataset() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios/cache_mutating_invalidation.toml");
        let s = load_scenario(&path).unwrap();
        let workload = build_workload(&s, &ctx()).unwrap();
        let spec = workload.mutations.clone().expect("a mutating scenario");
        // The runner's step after repetition 0, on the runner's RNG stream.
        let mut rng = StdRng::seed_from_u64(workload.seed ^ MUTATION_SEED_SALT);
        let next = mutated(&workload.service, &workload, &spec, None, &mut rng);
        let first_new_id = workload.dataset.next_id();
        let inserted = next
            .dataset()
            .tuples()
            .iter()
            .filter(|t| t.id >= first_new_id)
            .collect::<Vec<_>>();
        assert!(
            !inserted.is_empty(),
            "every inserted tuple was deleted again"
        );
        for tuple in inserted {
            let answer = next.query(&tuple.location).unwrap();
            assert_eq!(answer.top().unwrap().id, tuple.id);
            // The workload's own index predates the insert and cannot
            // return it.
            let stale = workload.backend().query(&tuple.location).unwrap();
            assert!(!stale.contains(tuple.id));
        }
    }

    #[test]
    fn dataset_keys_inapplicable_to_the_model_are_rejected() {
        let s = parse_scenario(
            r#"
id = "stray-knob"

[dataset]
model = "usa_pois"
size = 50
jitter = 0.5

[interface]
kind = "lr"

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 50
"#,
        );
        let err = run_scenario(&s, &ctx()).unwrap_err();
        assert!(err.contains("jitter") && err.contains("usa_pois"), "{err}");

        let s = parse_scenario(
            r#"
id = "stray-knob-2"

[dataset]
model = "wechat_users"
size = 50
starbucks = 3

[interface]
kind = "lnr"

[aggregate]
kind = "count"

[estimator]
algorithm = "lnr"
budget = 50
"#,
        );
        let err = run_scenario(&s, &ctx()).unwrap_err();
        assert!(err.contains("starbucks"), "{err}");
    }

    #[test]
    fn smoke_caps_declarative_scenarios() {
        let s = parse_scenario(
            r#"
id = "smoke-cap"

[dataset]
model = "uniform"
size = 5000

[interface]
kind = "lr"

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 100000
repetitions = 4
"#,
        );
        let smoke_ctx = ScenarioContext {
            smoke: true,
            ..ctx()
        };
        let result = run_scenario(&s, &smoke_ctx).expect("run");
        assert_eq!(result.rows.len(), 1, "smoke caps repetitions");
        // Budget cap: cost stays in the smoke ballpark, not 100k.
        assert!(result.max_reported_cost().unwrap() < 2 * SMOKE_MAX_BUDGET);
    }

    fn cache_scenario(id: &str, backend: &str) -> Scenario {
        parse_scenario(&format!(
            r#"
id = "{id}"
seed = 7

[dataset]
model = "uniform"
size = 80
bbox = [0.0, 0.0, 120.0, 120.0]

[interface]
kind = "lr"
k = 5

[backend]
{backend}

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 150
repetitions = 2
"#
        ))
    }

    #[test]
    fn cache_knob_validation_names_every_mistake() {
        let reject = |backend: &str, needle: &str| {
            let toml = format!(
                "id = \"x\"\n[dataset]\nmodel = \"uniform\"\nsize = 5\n[interface]\nkind = \"lr\"\n\
                 [aggregate]\nkind = \"count\"\n[estimator]\nalgorithm = \"lr\"\nbudget = 10\n\
                 [backend]\n{backend}\n"
            );
            let value = toml_lite::parse(&toml).expect("toml");
            let s = Scenario::from_value(&value).expect("deserialize");
            let err = s.validate().unwrap_err();
            assert!(err.contains(needle), "backend `{backend}`: {err}");
        };
        // The composition order with a rate limiter is semantic, so an
        // implicit choice is refused by name.
        reject(
            "cache = \"shared\"\nrate_limit_burst = 10",
            "ambiguous backend stack",
        );
        // Ordinal-keyed truncation would poison the cache.
        reject(
            "cache = \"private\"\ntruncate_every = 3",
            "ambiguous backend stack",
        );
        reject("cache = \"sometimes\"", "unknown backend cache");
        reject(
            "cache = \"shared\"\nrate_limit_burst = 10\ncache_order = \"outside\"",
            "unknown backend cache_order",
        );
        reject(
            "cache_order = \"cache_outside\"\nrate_limit_burst = 10",
            "does not apply",
        );
        reject(
            "cache = \"shared\"\ncache_order = \"cache_outside\"",
            "does not apply",
        );
        reject("cache_hits_metered = false", "does not apply");
        // Both explicit orders are accepted.
        for order in ["cache_outside", "cache_inside"] {
            cache_scenario(
                "ordered",
                &format!(
                    "cache = \"shared\"\nrate_limit_burst = 64\nrate_limit_pause_ms = 0\n\
                     cache_order = \"{order}\""
                ),
            );
        }
    }

    #[test]
    fn cached_runs_are_bit_identical_to_uncached_runs() {
        let baseline = run_scenario(&cache_scenario("c-off", "cache = \"off\""), &ctx()).unwrap();
        for backend in [
            "cache = \"private\"",
            "cache = \"shared\"",
            "cache = \"shared\"\ncache_hits_metered = false",
            "cache = \"shared\"\nrate_limit_burst = 64\nrate_limit_pause_ms = 0\ncache_order = \"cache_outside\"",
            "cache = \"shared\"\nrate_limit_burst = 64\nrate_limit_pause_ms = 0\ncache_order = \"cache_inside\"",
        ] {
            let cached = run_scenario(&cache_scenario("c-on", backend), &ctx()).unwrap();
            assert_eq!(baseline.rows.len(), cached.rows.len());
            for (a, b) in baseline.rows.iter().zip(&cached.rows) {
                for col in ["estimate", "ground truth", "query cost", "samples"] {
                    assert_eq!(a.get(col), b.get(col), "{backend}: column {col}");
                }
            }
        }
    }

    #[test]
    fn cached_scenarios_report_their_cache_stats() {
        let result = run_scenario(&cache_scenario("c-note", "cache = \"shared\""), &ctx()).unwrap();
        assert!(
            result.notes.iter().any(|n| n.contains("answer cache:")),
            "notes: {:?}",
            result.notes
        );
    }

    #[test]
    fn shared_cache_sees_hits_when_a_repetition_is_replayed() {
        let s = cache_scenario("c-replay", "cache = \"shared\"");
        let workload = build_workload(&s, &ctx()).unwrap();
        let cache = AnswerCache::unbounded();
        let mut estimates = Vec::new();
        for _ in 0..2 {
            let backend = workload
                .backend_with_budget_and_cache(workload.fresh_budget(), Some(cache.share()));
            let mut session = workload
                .start_session(backend, workload.session_config(1, 0))
                .unwrap();
            while !session.is_finished() {
                session.step();
            }
            let estimate = session.finalize().unwrap();
            estimates.push((estimate.value.to_bits(), estimate.query_cost));
        }
        assert_eq!(estimates[0], estimates[1], "replay is bit-identical");
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "replaying one repetition must hit: {stats:?}"
        );
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn mutating_scenario_recomputes_truth_and_stays_consistent() {
        let s = parse_scenario(
            r#"
id = "mutating"
seed = 11

[dataset]
model = "uniform"
size = 60
bbox = [0.0, 0.0, 100.0, 100.0]

[interface]
kind = "lr"
k = 5

[backend]
cache = "shared"

[aggregate]
kind = "count"

[estimator]
algorithm = "lr"
budget = 120
repetitions = 3

[mutations]
inserts_per_rep = 7
deletes_per_rep = 2
"#,
        );
        let result = run_scenario(&s, &ctx()).expect("run");
        assert_eq!(result.rows.len(), 3);
        // 7 inserts minus 2 deletes per boundary: truth grows by 5 each rep.
        let truths: Vec<&str> = result
            .rows
            .iter()
            .map(|r| r.get("ground truth").unwrap())
            .collect();
        assert_eq!(truths[0], "60.00");
        assert_eq!(truths[1], "65.00");
        assert_eq!(truths[2], "70.00");
    }

    #[test]
    fn mutations_without_any_stream_are_rejected() {
        let value = toml_lite::parse(
            "id = \"x\"\n[dataset]\nmodel = \"uniform\"\nsize = 5\n[interface]\nkind = \"lr\"\n\
             [aggregate]\nkind = \"count\"\n[estimator]\nalgorithm = \"lr\"\nbudget = 10\n\
             [mutations]\n",
        )
        .unwrap();
        let s = Scenario::from_value(&value).expect("deserialize");
        let err = s.validate().unwrap_err();
        assert!(err.contains("inserts_per_rep"), "{err}");
    }
}
