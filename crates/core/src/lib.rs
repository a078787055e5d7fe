//! # lbs-core
//!
//! The paper's contribution: aggregate estimators that work through the
//! restrictive kNN query interface of a location based service.
//!
//! * [`LrLbsAgg`] — **LR-LBS-AGG** (paper §3): completely unbiased COUNT and
//!   SUM estimation over interfaces that return tuple locations, built on
//!   exact (top-k) Voronoi-cell computation (Theorem 1) plus four error
//!   reduction techniques: faster initialization, leveraging history,
//!   adaptive top-h selection, and Monte-Carlo upper/lower cell bounds.
//! * [`LnrLbsAgg`] — **LNR-LBS-AGG** (paper §4): estimation over rank-only
//!   interfaces (no locations returned), built on a binary-search primitive
//!   that recovers Voronoi edges to arbitrary precision from ranks alone,
//!   with concavity repair for top-k cells and tuple-position inference.
//! * [`NnoBaseline`] — **LR-LBS-NNO** (Dalvi et al., SIGKDD 2011): the prior
//!   art the paper compares against — top-1 nearest-neighbour sampling with
//!   Monte-Carlo Voronoi-area estimation.
//!
//! Supporting modules: [`agg`] (aggregate specifications and selection
//! conditions), [`stats`] (sample statistics, confidence intervals),
//! [`sampling`] (uniform and density-weighted query samplers), [`estimate`]
//! (estimator output types), [`driver`] (the parallel sample driver —
//! deterministic multi-threaded fan-out of estimator samples), [`session`]
//! (resumable runs; every estimator's `run(service, region, aggregate,
//! SessionConfig)` is a loop over one) and [`stratified`] (per-stratum child
//! sessions under one budget, merged by a stratified Horvitz–Thompson
//! combiner).
//!
//! The estimators are generic over [`lbs_service::LbsBackend`]; they never
//! see the underlying dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod baseline;
pub mod driver;
pub mod engine_stats;
pub mod estimate;
pub mod lnr;
pub mod lr;
pub mod sampling;
pub mod session;
pub mod stats;
pub mod stratified;

pub use agg::{AggFunction, Aggregate, Selection};
pub use baseline::{NnoBaseline, NnoConfig};
pub use driver::{DriverOutcome, Quantum, SampleDriver, SampleOutcome, WaveState};
pub use engine_stats::EngineReport;
pub use estimate::{Estimate, EstimateError, TracePoint};
pub use lnr::{LnrLbsAgg, LnrLbsAggConfig, LocatedTuple};
pub use lr::{HSelection, LrLbsAgg, LrLbsAggConfig};
pub use sampling::QuerySampler;
pub use session::{
    AnytimeSnapshot, EstimationSession, EstimatorKind, LnrSession, LrSession, NnoSession,
    SampleEstimator, Session, SessionCheckpoint, SessionConfig, SessionState, StopReason,
};
pub use stats::RunningStats;
pub use stratified::{AllocationPolicy, StratifiedSession, StratifiedSessionState};
