//! Experiment scale presets.
//!
//! The paper's experiments run against hundreds of thousands of
//! OpenStreetMap POIs with query budgets in the tens of thousands. The
//! simulator can do the same, but that is hours of compute; the harness
//! therefore exposes four presets. All experiments accept a [`Scale`] and
//! derive their dataset sizes and budgets from it, so the same code path is
//! exercised at every scale.

use serde::{Deserialize, Serialize};

/// How big an experiment run should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Micro scale of smoke mode (`repro --smoke`, which runs the built-in
    /// experiments of a scenario sweep at this scale): fractions of a second
    /// per experiment.
    Micro,
    /// Smoke-test scale: seconds per experiment. Used by the harness's own
    /// tests.
    Tiny,
    /// Default scale for `repro`: a few minutes for the full suite, large
    /// enough for the paper's qualitative conclusions to be visible.
    Small,
    /// Close to the paper's set-up (hundreds of thousands of tuples,
    /// 10⁴-query budgets). Expect long runtimes.
    Paper,
}

impl Scale {
    /// Parses a scale name (`micro`, `tiny`, `small`, `paper`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "micro" => Some(Scale::Micro),
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Number of POIs in the synthetic USA dataset.
    pub fn poi_count(&self) -> usize {
        match self {
            Scale::Micro => 120,
            Scale::Tiny => 250,
            Scale::Small => 1_500,
            Scale::Paper => 120_000,
        }
    }

    /// Number of users in the synthetic WeChat / Weibo datasets.
    pub fn user_count(&self) -> usize {
        match self {
            Scale::Micro => 120,
            Scale::Tiny => 250,
            Scale::Small => 1_500,
            Scale::Paper => 200_000,
        }
    }

    /// Query budget for LR-LBS experiments.
    pub fn lr_budget(&self) -> u64 {
        match self {
            Scale::Micro => 250,
            Scale::Tiny => 600,
            Scale::Small => 4_000,
            Scale::Paper => 25_000,
        }
    }

    /// Query budget for LNR-LBS experiments (each sample is far more
    /// expensive, mirroring the paper's higher LNR costs).
    pub fn lnr_budget(&self) -> u64 {
        match self {
            Scale::Micro => 500,
            Scale::Tiny => 1_200,
            Scale::Small => 8_000,
            Scale::Paper => 40_000,
        }
    }

    /// Number of independent repetitions per configuration.
    pub fn repetitions(&self) -> usize {
        match self {
            Scale::Micro => 1,
            Scale::Tiny => 2,
            Scale::Small => 3,
            Scale::Paper => 10,
        }
    }

    /// Number of tuples to localise in the Figure 21 experiment.
    pub fn localization_targets(&self) -> usize {
        match self {
            Scale::Micro => 6,
            Scale::Tiny => 15,
            Scale::Small => 60,
            Scale::Paper => 200,
        }
    }

    /// The query-budget ladder used by the cost-versus-error figures.
    pub fn budget_ladder(&self) -> Vec<u64> {
        let base = self.lr_budget();
        vec![base / 8, base / 4, base / 2, base]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("SMALL"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn sizes_are_monotone() {
        assert!(Scale::Tiny.poi_count() < Scale::Small.poi_count());
        assert!(Scale::Small.poi_count() < Scale::Paper.poi_count());
        assert!(Scale::Tiny.lr_budget() < Scale::Paper.lr_budget());
        assert!(Scale::Tiny.lnr_budget() > Scale::Tiny.lr_budget() / 2);
        assert_eq!(Scale::Tiny.budget_ladder().len(), 4);
    }
}
