//! # lbs — Aggregate estimations over location based services
//!
//! Facade crate for the reproduction of *Aggregate Estimations over Location
//! Based Services* (Liu et al., PVLDB 8(10), 2015). It re-exports the
//! workspace crates under one roof so that applications (and the examples in
//! `examples/`) can depend on a single crate:
//!
//! * [`geom`] — computational geometry (Voronoi cells, top-k Voronoi cells).
//! * [`index`] — exact kNN spatial indexes.
//! * [`data`] — dataset model, synthetic POI/user generators, density grid.
//! * [`service`] — LR-LBS / LNR-LBS query-interface simulators.
//! * [`core`] — the paper's estimators: `LrLbsAgg`, `LnrLbsAgg`, the
//!   `NnoBaseline`, aggregates and statistics.
//!
//! ## Quickstart
//!
//! ```
//! use lbs::data::{generators::ScenarioBuilder, region};
//! use lbs::service::{LbsBackend, ServiceConfig, SimulatedLbs};
//! use lbs::core::{Aggregate, LrLbsAgg, LrLbsAggConfig, SessionConfig};
//! use rand::{RngCore, SeedableRng};
//!
//! // 1. Generate a small synthetic POI database.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let dataset = ScenarioBuilder::usa_pois(500).build(&mut rng);
//! let bbox = region::usa();
//!
//! // 2. Stand up a Google-Places-like LR-LBS interface over it.
//! let service = SimulatedLbs::new(dataset.clone(), ServiceConfig::lr_lbs(10));
//!
//! // 3. Estimate COUNT(*) on one thread with a small query budget, checked
//! //    after every sample.
//! let mut estimator = LrLbsAgg::new(LrLbsAggConfig::default());
//! let cfg = SessionConfig::new(300, rng.next_u64()).with_wave_size(1);
//! let estimate = estimator
//!     .run(&service, &bbox, &Aggregate::count_all(), cfg)
//!     .unwrap();
//!
//! let truth = dataset.len() as f64;
//! let rel_err = (estimate.value - truth).abs() / truth;
//! assert!(rel_err < 1.0, "estimate should be in the right ballpark");
//! ```
//!
//! ## Parallel estimation
//!
//! `SessionConfig::with_threads` fans an estimator's samples across worker
//! threads through the parallel sample driver ([`core::driver`]) with
//! bit-identical results at any thread count — see `ARCHITECTURE.md` for
//! the design and `repro --threads N` for the experiment harness hook.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lbs_core as core;
pub use lbs_data as data;
pub use lbs_geom as geom;
pub use lbs_index as index;
pub use lbs_service as service;
