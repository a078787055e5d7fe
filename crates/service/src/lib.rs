//! # lbs-service
//!
//! Location based service simulator: the restrictive public kNN query
//! interfaces the paper's estimators have to work through.
//!
//! The paper distinguishes two interface families:
//!
//! * **LR-LBS** (location returned): Google Maps / Google Places, Bing Maps —
//!   each returned tuple carries its precise coordinates;
//! * **LNR-LBS** (location not returned): WeChat, Sina Weibo — only a ranked
//!   list of tuple ids plus non-location attributes is returned.
//!
//! Both impose interface restrictions that the simulator reproduces:
//!
//! * a **top-k limit** (k = 60 for Google Places, 50 for WeChat, 100 for
//!   Weibo),
//! * a **query budget / rate limit** — the paper's number-one performance
//!   metric is query count, so the simulator meters every call through a
//!   shared [`QueryBudget`],
//! * an optional **maximum radius** beyond which tuples are never returned
//!   (50 km for Google Places, 11 km for Weibo),
//! * an optional non-distance **ranking function** ("prominence"), and
//! * optional **location obfuscation** (WeChat-style snapping of the
//!   positions the ranking is computed from), which is what degrades
//!   localization accuracy in the paper's Figure 21.
//!
//! The entry point is [`SimulatedLbs`], an implementation of the pluggable
//! [`LbsBackend`] trait over an `lbs-data` [`lbs_data::Dataset`] backed by
//! an exact `lbs-index` grid kNN index. Estimators are generic over
//! [`LbsBackend`], so the simulator can be swapped for — or wrapped in —
//! the composable decorators of [`backend`] ([`RateLimitedBackend`],
//! [`LatencyBackend`], [`TruncatingBackend`]) without touching estimator
//! code. Presets mirroring the real services used in the paper's online
//! experiments are in [`presets`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod budget;
pub mod cache;
mod config;
mod counter;
mod interface;
pub mod presets;
mod service;

pub use backend::{LatencyBackend, LbsBackend, RateLimitedBackend, TruncatingBackend};
pub use budget::QueryBudget;
pub use cache::{backend_fingerprint, AnswerCache, CacheKey, CacheStats, CachingBackend};
pub use config::{Ranking, ReturnMode, ServiceConfig};
pub use counter::QueryCounter;
pub use interface::{PassThroughFilter, QueryError, QueryResponse, ReturnedTuple};
pub use service::SimulatedLbs;
