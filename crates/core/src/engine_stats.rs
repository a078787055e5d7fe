//! Counters of the pruned cell-geometry engine.
//!
//! Every estimator routes its cell constructions through
//! [`lbs_geom::cell_engine`]; the counters here record how much work the
//! security-radius pruning and the [`crate::lr::History`] cell cache saved.
//! They are pure telemetry — no algorithm reads them back — so they can be
//! summed in any order without affecting the bit-exact determinism
//! guarantees of the estimators. `repro` surfaces them per experiment in
//! `BENCH_repro.json` and as a one-line summary in its console output.

use serde::{Deserialize, Serialize};

/// Aggregated cell-engine counters for one estimation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineReport {
    /// Cells (or level regions) constructed through the engine.
    pub cells_built: u64,
    /// Candidates actually incorporated (half-plane clips performed, or
    /// active bisectors of a concave construction).
    pub clips: u64,
    /// Candidates skipped under the security-radius certificate.
    pub pruned: u64,
    /// Cell-cache lookups that replayed a stored exploration.
    pub cache_hits: u64,
    /// Cell-cache lookups that fell through to a fresh exploration.
    pub cache_misses: u64,
    /// Misses because no exploration of the site was stored at any `h`.
    pub cache_miss_new_site: u64,
    /// Misses because the site was stored, but only at other `h` levels.
    pub cache_miss_other_h: u64,
    /// Misses because the stored `(site, h)` entry's fingerprint no longer
    /// matched (the history learned nearer tuples, or region/nearest drifted).
    pub cache_miss_stale: u64,
    /// Adaptive-h volume-bound (λ_h) cache hits.
    pub lambda_hits: u64,
    /// Adaptive-h volume-bound (λ_h) cache misses.
    pub lambda_misses: u64,
    /// Queries re-issued while replaying a cached exploration (kept so the
    /// cached and uncached paths stay bit-identical in cost and state).
    pub replayed_queries: u64,
    /// Monte-Carlo probe points the NNO baseline answered geometrically
    /// (provably outside the top-1 cell) without spending a service query.
    pub mc_certified: u64,
}

impl EngineReport {
    /// Adds another report's counters into this one.
    pub fn add(&mut self, other: &EngineReport) {
        self.cells_built += other.cells_built;
        self.clips += other.clips;
        self.pruned += other.pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_miss_new_site += other.cache_miss_new_site;
        self.cache_miss_other_h += other.cache_miss_other_h;
        self.cache_miss_stale += other.cache_miss_stale;
        self.lambda_hits += other.lambda_hits;
        self.lambda_misses += other.lambda_misses;
        self.replayed_queries += other.replayed_queries;
        self.mc_certified += other.mc_certified;
    }

    /// Counter-wise difference `self - earlier` (saturating), for deltas
    /// between two snapshots of a long-lived accumulator.
    pub fn since(&self, earlier: &EngineReport) -> EngineReport {
        EngineReport {
            cells_built: self.cells_built.saturating_sub(earlier.cells_built),
            clips: self.clips.saturating_sub(earlier.clips),
            pruned: self.pruned.saturating_sub(earlier.pruned),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            cache_miss_new_site: self
                .cache_miss_new_site
                .saturating_sub(earlier.cache_miss_new_site),
            cache_miss_other_h: self
                .cache_miss_other_h
                .saturating_sub(earlier.cache_miss_other_h),
            cache_miss_stale: self
                .cache_miss_stale
                .saturating_sub(earlier.cache_miss_stale),
            lambda_hits: self.lambda_hits.saturating_sub(earlier.lambda_hits),
            lambda_misses: self.lambda_misses.saturating_sub(earlier.lambda_misses),
            replayed_queries: self
                .replayed_queries
                .saturating_sub(earlier.replayed_queries),
            mc_certified: self.mc_certified.saturating_sub(earlier.mc_certified),
        }
    }

    /// Absorbs the counters of one geometric construction.
    pub fn record_build(&mut self, stats: &lbs_geom::CellBuildStats) {
        self.cells_built += 1;
        self.clips += stats.incorporated as u64;
        self.pruned += stats.pruned as u64;
    }

    /// Cell-cache hit rate over all lookups (`None` before any lookup).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Mean incorporated candidates (clips) per constructed cell.
    pub fn mean_clips_per_cell(&self) -> Option<f64> {
        (self.cells_built > 0).then(|| self.clips as f64 / self.cells_built as f64)
    }

    /// Fraction of offered candidates the certificate pruned away.
    pub fn pruned_fraction(&self) -> Option<f64> {
        let total = self.clips + self.pruned;
        (total > 0).then(|| self.pruned as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_since_are_inverse() {
        let mut a = EngineReport {
            cells_built: 3,
            clips: 10,
            pruned: 20,
            cache_hits: 1,
            cache_misses: 2,
            cache_miss_new_site: 1,
            cache_miss_other_h: 1,
            cache_miss_stale: 0,
            lambda_hits: 4,
            lambda_misses: 5,
            replayed_queries: 6,
            mc_certified: 7,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.since(&b), b);
        assert_eq!(a.cells_built, 6);
    }

    #[test]
    fn rates() {
        let mut r = EngineReport::default();
        assert!(r.cache_hit_rate().is_none());
        assert!(r.mean_clips_per_cell().is_none());
        r.cache_hits = 3;
        r.cache_misses = 1;
        r.cells_built = 2;
        r.clips = 9;
        r.pruned = 27;
        assert!((r.cache_hit_rate().unwrap() - 0.75).abs() < 1e-12);
        assert!((r.mean_clips_per_cell().unwrap() - 4.5).abs() < 1e-12);
        assert!((r.pruned_fraction().unwrap() - 0.75).abs() < 1e-12);
    }
}
