//! The scenario specs every workload runs, all derived from the one
//! workload seed passed on the command line.

use lbs_bench::{Scale, Scenario, ScenarioContext};
use serde::{Deserialize, Value};

/// One splitmix64 round: derives an independent seed for `tag` from
/// `seed`, in 63 bits because scenario specs hold seeds as TOML integers.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 1
}

/// Root seed of the served scheduler. Every scenario pins its own seed, so
/// this only has to match between the server and the local batch check.
pub const SERVER_SEED: u64 = 2015;

/// The context the server builds job workloads with (what
/// `Scheduler::scenario_context` returns for a one-thread scheduler), so a
/// local batch run of a served scenario sees the same inputs.
pub fn server_context() -> ScenarioContext {
    ScenarioContext {
        scale: Scale::Small,
        seed: SERVER_SEED,
        threads: 1,
        smoke: false,
    }
}

/// A validated scenario together with the spec it was parsed from.
#[derive(Clone)]
pub struct Spec {
    /// The TOML text (also the key of the local batch check).
    pub toml: String,
    /// The parsed scenario.
    pub scenario: Scenario,
    /// The scenario as a JSON value, for `POST /jobs`.
    pub value: Value,
    /// The soft query budget of one job.
    pub budget: u64,
}

impl Spec {
    fn parse(toml: String, budget: u64) -> Spec {
        let value = lbs_bench::toml_lite::parse(&toml).expect("benchmark scenario TOML parses");
        let scenario = Scenario::from_value(&value).expect("benchmark scenario deserializes");
        scenario.validate().expect("benchmark scenario validates");
        Spec {
            toml,
            scenario,
            value,
            budget,
        }
    }

    /// The `POST /jobs` body submitting this scenario under `tenant`.
    pub fn submission(&self, tenant: &str) -> String {
        serde_json::to_string(&Value::Map(vec![
            ("tenant".to_string(), Value::Str(tenant.to_string())),
            ("scenario".to_string(), self.value.clone()),
        ]))
        .expect("a scenario value serializes")
    }
}

/// `lr-batch`: COUNT(schools) over the paper-size POI table through the
/// location-returned interface, default LR-LBS-AGG configuration.
pub fn lr_batch(seed: u64) -> Spec {
    let budget = Scale::Small.lr_budget() / 2;
    Spec::parse(
        format!(
            "id = \"lr_batch\"\nseed = {}\n\n[dataset]\nmodel = \"usa_pois\"\nsize = {}\n\n\
             [interface]\nkind = \"lr\"\nk = 10\n\n[aggregate]\nkind = \"count\"\n\n\
             [aggregate.equals]\ncategory = \"school\"\n\n\
             [estimator]\nalgorithm = \"lr\"\nbudget = {budget}\n\n[session]\nwave_size = 8\n",
            derive(seed, 1),
            Scale::Paper.poi_count(),
        ),
        budget,
    )
}

/// `lnr-batch`: COUNT(male) over the paper-size user table through the
/// rank-only interface with 50 m obfuscation (the shape of
/// `scenarios/wechat_lnr_gender.toml`).
pub fn lnr_batch(seed: u64) -> Spec {
    let budget = Scale::Small.lnr_budget();
    Spec::parse(
        format!(
            "id = \"lnr_batch\"\nseed = {}\n\n[dataset]\nmodel = \"wechat_users\"\nsize = {}\n\n\
             [interface]\nkind = \"lnr\"\nk = 10\nobfuscation_grid = 0.05\n\n\
             [aggregate]\nkind = \"count\"\n\n[aggregate.equals]\ngender = \"male\"\n\n\
             [estimator]\nalgorithm = \"lnr\"\nbudget = {budget}\n",
            derive(seed, 2),
            Scale::Paper.user_count(),
        ),
        budget,
    )
}

/// Distinct heavy scenarios the served episodes cycle through. Every
/// served job is checked against a local batch run, and cycling bounds
/// what that check costs; the heavy jobs' durations vary widely from one
/// scenario to the next, so a run needs many of them for a steady median.
pub const HEAVY_VARIANTS: u64 = 16;

/// The heavy served job of episode `episode`: the fig14 shape (COUNT of
/// schools over 1 500 POIs, budget 2 000, adaptive waves).
pub fn heavy(seed: u64, episode: u64) -> Spec {
    let budget = 2_000;
    Spec::parse(
        format!(
            "id = \"heavy\"\nseed = {}\n\n[dataset]\nmodel = \"usa_pois\"\nsize = {}\n\n\
             [interface]\nkind = \"lr\"\nk = 10\n\n[aggregate]\nkind = \"count\"\n\n\
             [aggregate.equals]\ncategory = \"school\"\n\n\
             [estimator]\nalgorithm = \"lr\"\nbudget = {budget}\n",
            derive(seed, 100 + episode % HEAVY_VARIANTS),
            Scale::Small.poi_count(),
        ),
        budget,
    )
}

/// Number of small interactive jobs per served episode.
pub const INTERACTIVE_KINDS: usize = 4;

/// Episodes after which the interactive jobs repeat: from the second
/// cycle on, the cached tenant's job is answered from its private cache,
/// so the cache takes reads beside the first cycle's writes.
pub const INTERACTIVE_CYCLE: u64 = 4;

/// Tenant whose jobs go through its private answer cache.
pub const CACHED_TENANT: &str = "cached";

/// The `kind`-th small interactive job of episode `episode` and its
/// tenant: LR through the tenant's private answer cache, the NNO baseline,
/// LNR over an obfuscated rank-only interface, and a 4-strata LR scenario.
pub fn interactive(seed: u64, episode: u64, kind: usize) -> (Spec, &'static str) {
    let slot = episode % INTERACTIVE_CYCLE;
    let s = derive(seed, 1_000 + slot * INTERACTIVE_KINDS as u64 + kind as u64);
    match kind {
        0 => {
            let budget = 250;
            let toml = format!(
                "id = \"lr_cached\"\nseed = {s}\n\n[dataset]\nmodel = \"usa_pois\"\nsize = 500\n\n\
                 [interface]\nkind = \"lr\"\nk = 10\n\n[backend]\ncache = \"private\"\n\n\
                 [aggregate]\nkind = \"count\"\n\n[aggregate.equals]\ncategory = \"restaurant\"\n\n\
                 [estimator]\nalgorithm = \"lr\"\nbudget = {budget}\n"
            );
            (Spec::parse(toml, budget), CACHED_TENANT)
        }
        1 => {
            let budget = 250;
            let toml = format!(
                "id = \"nno\"\nseed = {s}\n\n[dataset]\nmodel = \"usa_pois\"\nsize = 500\n\n\
                 [interface]\nkind = \"lr\"\nk = 10\n\n\
                 [aggregate]\nkind = \"count\"\n\n[aggregate.equals]\ncategory = \"school\"\n\n\
                 [estimator]\nalgorithm = \"nno\"\nbudget = {budget}\n"
            );
            (Spec::parse(toml, budget), "interactive")
        }
        2 => {
            let budget = 500;
            let toml = format!(
                "id = \"lnr\"\nseed = {s}\n\n[dataset]\nmodel = \"wechat_users\"\nsize = 400\n\n\
                 [interface]\nkind = \"lnr\"\nk = 10\nobfuscation_grid = 0.05\n\n\
                 [aggregate]\nkind = \"count\"\n\n[aggregate.equals]\ngender = \"male\"\n\n\
                 [estimator]\nalgorithm = \"lnr\"\nbudget = {budget}\n"
            );
            (Spec::parse(toml, budget), "interactive")
        }
        _ => {
            let budget = 300;
            let toml = format!(
                "id = \"strata\"\nseed = {s}\n\n[dataset]\nmodel = \"usa_pois\"\nsize = 600\n\n\
                 [interface]\nkind = \"lr\"\nk = 10\n\n\
                 [aggregate]\nkind = \"count\"\n\n[aggregate.equals]\ncategory = \"restaurant\"\n\n\
                 [estimator]\nalgorithm = \"lr\"\nstrategy = \"stratified\"\nbudget = {budget}\n\n\
                 [strata]\npartition = \"grid\"\ncount = 4\n"
            );
            (Spec::parse(toml, budget), "interactive")
        }
    }
}
