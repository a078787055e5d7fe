//! Service configuration: what the simulated interface returns and which
//! restrictions it enforces.

use serde::{Deserialize, Serialize};

/// Whether the interface returns tuple locations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReturnMode {
    /// LR-LBS: precise tuple locations (and distances) are returned.
    LocationReturned,
    /// LNR-LBS: only a ranked list of tuple ids and non-location attributes.
    RankOnly,
}

/// Ranking function applied to candidate tuples.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Ranking {
    /// Pure Euclidean distance from the query location (the paper's default).
    Distance,
    /// "Prominence" ranking à la Google Places (§5.3): the score mixes
    /// distance with a static popularity attribute. A tuple's score is
    /// `distance - weight * prominence`; lower scores rank higher.
    Prominence {
        /// How many kilometres of distance one unit of prominence is worth.
        weight: f64,
    },
}

/// Full configuration of a simulated LBS interface.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Maximum number of tuples returned per query (the top-k limit).
    pub k: usize,
    /// Whether locations are returned.
    pub return_mode: ReturnMode,
    /// Maximum distance (km) at which tuples can be returned; `None` means
    /// unlimited coverage.
    pub max_radius: Option<f64>,
    /// Ranking function.
    pub ranking: Ranking,
    /// Location obfuscation: tuple positions are snapped to a grid of this
    /// cell size (km) before ranking, mimicking WeChat's privacy measures.
    /// `None` disables obfuscation.
    pub obfuscation_grid: Option<f64>,
    /// Hard limit on the number of queries the interface will answer;
    /// `None` means unlimited (offline experiments meter budgets themselves).
    pub query_limit: Option<u64>,
}

impl ServiceConfig {
    /// A location-returned interface with distance ranking and no
    /// restrictions beyond the top-k limit.
    pub fn lr_lbs(k: usize) -> Self {
        ServiceConfig {
            k,
            return_mode: ReturnMode::LocationReturned,
            max_radius: None,
            ranking: Ranking::Distance,
            obfuscation_grid: None,
            query_limit: None,
        }
    }

    /// A rank-only interface with distance ranking and no restrictions beyond
    /// the top-k limit.
    pub fn lnr_lbs(k: usize) -> Self {
        ServiceConfig {
            k,
            return_mode: ReturnMode::RankOnly,
            max_radius: None,
            ranking: Ranking::Distance,
            obfuscation_grid: None,
            query_limit: None,
        }
    }

    /// Sets the maximum coverage radius.
    pub fn with_max_radius(mut self, radius_km: f64) -> Self {
        self.max_radius = Some(radius_km);
        self
    }

    /// Sets the ranking function.
    pub fn with_ranking(mut self, ranking: Ranking) -> Self {
        self.ranking = ranking;
        self
    }

    /// Enables location obfuscation with the given grid size.
    pub fn with_obfuscation(mut self, grid_km: f64) -> Self {
        self.obfuscation_grid = Some(grid_km);
        self
    }

    /// Sets a hard query limit.
    pub fn with_query_limit(mut self, limit: u64) -> Self {
        self.query_limit = Some(limit);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_modes() {
        let lr = ServiceConfig::lr_lbs(60);
        assert_eq!(lr.k, 60);
        assert_eq!(lr.return_mode, ReturnMode::LocationReturned);
        assert!(lr.max_radius.is_none());
        let lnr = ServiceConfig::lnr_lbs(50);
        assert_eq!(lnr.return_mode, ReturnMode::RankOnly);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = ServiceConfig::lnr_lbs(100)
            .with_max_radius(11.0)
            .with_obfuscation(0.05)
            .with_query_limit(150)
            .with_ranking(Ranking::Prominence { weight: 2.0 });
        assert_eq!(cfg.max_radius, Some(11.0));
        assert_eq!(cfg.obfuscation_grid, Some(0.05));
        assert_eq!(cfg.query_limit, Some(150));
        assert!(matches!(cfg.ranking, Ranking::Prominence { weight } if weight == 2.0));
    }
}
