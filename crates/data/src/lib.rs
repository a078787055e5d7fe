//! # lbs-data
//!
//! Dataset model and synthetic data generators for the LBS aggregate
//! estimation reproduction.
//!
//! The paper evaluates its estimators on
//!
//! * the USA portion of **OpenStreetMap** POIs (restaurants, schools, banks,
//!   …) enriched with Google-Maps review ratings and US-Census school
//!   enrollments,
//! * the user bases of **WeChat** and **Sina Weibo** (gender attribute), and
//! * **US-Census population density** as external knowledge for weighted
//!   query sampling.
//!
//! None of those datasets can be shipped, so this crate generates synthetic
//! substitutes that preserve the properties the estimators are sensitive to:
//! a heavily skewed spatial distribution (dense urban clusters over a sparse
//! rural background, producing the 1 km² –100 000 km² spread of Voronoi-cell
//! areas visible in the paper's Figure 11) and aggregate attributes whose
//! values are *not* correlated with Voronoi-cell size (which is what makes
//! inverse-probability weighting necessary in the first place).
//!
//! | module | contents |
//! |--------|----------|
//! | [`mod@tuple`] | [`Tuple`], its shared [`Attributes`], typed attribute values, attribute name constants |
//! | [`dataset`] | [`Dataset`] container and ground-truth aggregate helpers |
//! | [`generators`] | spatial mixtures and the named scenario builders |
//! | [`density`] | population-density grid (census substitute) |
//! | [`region`] | named bounding boxes (USA, Austin TX, China, …) |
//! | [`stratify`] | region stratifiers for stratified estimation |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod density;
pub mod generators;
pub mod region;
pub mod stratify;
pub mod tuple;

pub use dataset::Dataset;
pub use density::DensityGrid;
pub use generators::{ScenarioBuilder, SpatialModel};
pub use stratify::{Stratifier, Stratum};
pub use tuple::{attrs, AttrValue, Attributes, Tuple, TupleId};
