//! Shared, versioned kNN answer cache at the [`LbsBackend`] boundary.
//!
//! In the paper's cost model the scarce resource is *service queries*: every
//! estimator pays per kNN call, and a multi-tenant server re-asks the same
//! `(query point, k)` questions across jobs on the same dataset. The
//! [`CachingBackend`] decorator converts that repeated service cost into
//! memory, the same move an inference stack makes with a KV cache.
//!
//! # Key schema
//!
//! A cached answer is keyed by `(version, x_bits, y_bits, k)`:
//!
//! * `version` — the [`backend_fingerprint`]: the dataset's content
//!   fingerprint mixed with the answer-affecting parts of the
//!   [`ServiceConfig`]. Tenants that differ only in answer-preserving knobs
//!   (index backend, query limit) share cached answers; any difference that
//!   could change an answer keys a disjoint space.
//! * `x_bits`, `y_bits` — the query point's coordinates as *canonical*
//!   IEEE-754 bits: `-0.0` keys like `+0.0` and every NaN payload keys
//!   alike, so numerically-equal points always share an entry. Keys are
//!   built exclusively by [`CacheKey::for_query`]; the `cache-key-float`
//!   lint rule keeps ad-hoc float-to-bits conversions out of keying code.
//! * `k` — the top-k limit the query was answered under.
//!
//! # Metering semantics
//!
//! [`SimulatedLbs`] charges its ledger inside `query`, so a cache hit that
//! short-circuits the service must decide what the hit costs. Both modes are
//! deterministic; the mode is fixed per run:
//!
//! * **Metered hits** (the default): every hit charges the service ledger
//!   exactly like a real query, including returning the same
//!   [`QueryError::BudgetExhausted`] at the limit. Cached runs are
//!   bit-identical to uncached runs in estimates, traces, *and* the ledger.
//! * **Unmetered hits**: hits cost nothing; the ledger advances only on
//!   misses. Single-flight population makes the miss count equal the number
//!   of distinct keys regardless of thread interleaving, so the ledger is
//!   still reproducible — it just (intentionally) no longer matches the
//!   uncached run.
//!
//! # Invalidation
//!
//! Mutating a dataset changes its fingerprint, so a rebuilt backend keys a
//! fresh space and stale hits are structurally impossible. To keep still-
//! valid answers warm across a mutation, [`AnswerCache::apply_insert`] /
//! [`AnswerCache::apply_delete`] migrate entries from the old version to the
//! new one, dropping exactly the entries the mutation could affect:
//!
//! * every entry stores a **security-radius certificate** — under distance
//!   ranking, an insert strictly farther from the query point than the k-th
//!   result's distance cannot displace any member (the same bound the cell
//!   engine's security radius is built on);
//! * a delete can only change an answer it was a member of (distance
//!   ranking; prominence ranking re-scores a distance-truncated candidate
//!   pool, so there every delete invalidates);
//! * when no certificate bounds the mutation (prominence ranking,
//!   obfuscated ranking locations, under-full answers without a coverage
//!   radius) the entry is dropped — [`AnswerCache::flush`] is the wholesale
//!   fallback.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use lbs_data::{Dataset, TupleId};
use lbs_geom::{Point, Rect};

use crate::backend::LbsBackend;
use crate::budget::QueryBudget;
use crate::config::{Ranking, ReturnMode, ServiceConfig};
use crate::interface::{QueryError, QueryResponse};
use crate::service::SimulatedLbs;

/// All NaN payloads collapse to this single canonical bit pattern.
const CANONICAL_NAN_BITS: u64 = 0x7ff8_0000_0000_0000;

/// Canonical bit pattern of an `f64` coordinate for keying: `-0.0` maps to
/// `+0.0` and every NaN maps to one pattern, so a key never depends on how a
/// numerically-equal coordinate was computed.
fn canonical_bits(value: f64) -> u64 {
    if value == 0.0 {
        0
    } else if value.is_nan() {
        CANONICAL_NAN_BITS
    } else {
        value.to_bits()
    }
}

/// One splitmix64-style round combining `value` into the accumulator `acc`.
fn mix(acc: u64, value: u64) -> u64 {
    let mut x = acc ^ value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The version stamp cache keys carry: the dataset content fingerprint mixed
/// with the answer-affecting parts of the service configuration.
///
/// `query_limit` is excluded because it only affects the ledger — backends
/// differing in just that share cached answers.
pub fn backend_fingerprint(dataset: &Dataset, config: &ServiceConfig) -> u64 {
    let mut h = mix(0x616e_7377_6572_6b65, dataset.fingerprint());
    h = mix(h, config.k as u64);
    h = mix(
        h,
        match config.return_mode {
            ReturnMode::LocationReturned => 1,
            ReturnMode::RankOnly => 2,
        },
    );
    h = match config.max_radius {
        None => mix(h, 3),
        Some(r) => mix(mix(h, 4), canonical_bits(r)),
    };
    h = match config.ranking {
        Ranking::Distance => mix(h, 5),
        Ranking::Prominence { weight } => mix(mix(h, 6), canonical_bits(weight)),
    };
    match config.obfuscation_grid {
        None => mix(h, 7),
        Some(g) => mix(mix(h, 8), canonical_bits(g)),
    }
}

/// Key of one cached kNN answer: backend version fingerprint, canonicalized
/// query-point bits, and the top-k limit.
///
/// Keys are only built through [`CacheKey::for_query`] — the single place
/// raw `f64` bits are canonicalized — so entries can never diverge between
/// numerically-equal query points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    version: u64,
    x_bits: u64,
    y_bits: u64,
    k: u64,
}

impl CacheKey {
    /// The canonical key for a query at `location` against a backend whose
    /// [`backend_fingerprint`] is `version`.
    pub fn for_query(version: u64, location: &Point, k: usize) -> Self {
        CacheKey {
            version,
            x_bits: canonical_bits(location.x),
            y_bits: canonical_bits(location.y),
            k: k as u64,
        }
    }

    /// The backend version fingerprint this key belongs to.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self
    }

    /// The query point the key was built from (exact for finite
    /// coordinates; canonical for NaN).
    fn query_point(&self) -> Point {
        Point::new(f64::from_bits(self.x_bits), f64::from_bits(self.y_bits))
    }

    /// The smallest key of a version, for range scans.
    fn version_floor(version: u64) -> Self {
        CacheKey {
            version,
            x_bits: 0,
            y_bits: 0,
            k: 0,
        }
    }
}

/// One cached answer plus the certificates bounding which mutations can
/// invalidate it.
#[derive(Clone, Debug)]
struct CachedAnswer {
    /// The answer. Its tuples share their attributes with the service's
    /// dataset, so an entry holds one result list, and a hit or a fill
    /// copies that list plus one reference count per tuple.
    response: QueryResponse,
    /// An insert strictly farther than this from the query point cannot
    /// change the answer; `INFINITY` means any insert may (no certificate).
    insert_bound: f64,
    /// When `true`, a delete only affects the answer if the deleted id is a
    /// member; `false` (prominence ranking) makes every delete invalidating.
    delete_by_membership: bool,
}

impl CachedAnswer {
    fn certified(response: QueryResponse, config: &ServiceConfig) -> Self {
        let distance_ranked = matches!(config.ranking, Ranking::Distance);
        let insert_bound = if !distance_ranked || config.obfuscation_grid.is_some() {
            // Prominence can promote a far insert over near members, and
            // obfuscation ranks by snapped positions the certificate does
            // not see: no bound.
            f64::INFINITY
        } else if response.results.len() < config.k {
            // Under-full answer: any insert inside the coverage radius can
            // surface in it.
            config.max_radius.unwrap_or(f64::INFINITY)
        } else {
            // Full answer: the k-th distance is the security radius — an
            // insert strictly beyond it cannot displace any member.
            // Rank-only answers carry no distances; fall back to "always".
            response
                .results
                .last()
                .and_then(|r| r.distance)
                .unwrap_or(f64::INFINITY)
        };
        CachedAnswer {
            response,
            insert_bound,
            delete_by_membership: distance_ranked,
        }
    }
}

enum Slot {
    /// A leader thread is computing the answer; other threads wait on the
    /// condvar instead of issuing a duplicate (and double-charged) query.
    InFlight,
    Ready(CachedAnswer),
}

enum Lookup {
    Hit(QueryResponse),
    Lead,
}

/// Point-in-time counters of an [`AnswerCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that went to the inner backend. Single-flight population
    /// means concurrent lookups of one missing key count a single miss; the
    /// rest wait and count hits.
    pub misses: u64,
    /// Entries dropped because a mutation could have changed their answer.
    pub invalidations: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups (hits plus misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            0.0
        } else {
            self.hits as f64 / (self.hits + self.misses) as f64
        }
    }

    /// Adds another snapshot into this one — how per-repetition private
    /// caches are summed into a run total.
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.evictions += other.evictions;
    }
}

/// A concurrent, versioned kNN answer cache shared by any number of
/// [`CachingBackend`] views — across repetitions, sessions, and tenants.
///
/// Population is single-flight: concurrent lookups of one missing key elect
/// a leader that queries the inner backend once while the rest wait on a
/// condvar, so the miss count (and, with unmetered hits, the ledger) equals
/// the number of distinct keys regardless of thread interleaving.
///
/// Mutation invalidation must not race live queries: apply
/// [`AnswerCache::apply_insert`] / [`AnswerCache::apply_delete`] /
/// [`AnswerCache::flush`] between runs, not while sessions are stepping.
pub struct AnswerCache {
    slots: Mutex<BTreeMap<CacheKey, Slot>>,
    filled: Condvar,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl AnswerCache {
    /// An unbounded shared cache.
    pub fn unbounded() -> Arc<Self> {
        Arc::new(Self::build(None))
    }

    /// A cache holding at most `capacity` ready entries; beyond that, the
    /// smallest key is evicted first (deterministic given identical
    /// contents). A capacity of zero still admits the entry being filled.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Self::build(Some(capacity)))
    }

    fn build(capacity: Option<usize>) -> Self {
        AnswerCache {
            slots: Mutex::new(BTreeMap::new()),
            filled: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Another handle to the same cache (alias of `Arc::clone`, mirroring
    /// [`QueryBudget::share`]).
    pub fn share(self: &Arc<Self>) -> Arc<Self> {
        Arc::clone(self)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of ready (answer-holding) entries.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("cache lock poisoned")
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// `true` when no ready entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup_or_lead(&self, key: &CacheKey) -> Lookup {
        let mut slots = self.slots.lock().expect("cache lock poisoned");
        loop {
            match slots.get(key) {
                Some(Slot::Ready(answer)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Hit(answer.response.clone());
                }
                Some(Slot::InFlight) => {
                    slots = self.filled.wait(slots).expect("cache lock poisoned");
                }
                None => {
                    slots.insert(*key, Slot::InFlight);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Lead;
                }
            }
        }
    }

    fn fill(&self, key: CacheKey, answer: CachedAnswer) {
        let mut slots = self.slots.lock().expect("cache lock poisoned");
        if let Some(capacity) = self.capacity {
            loop {
                let ready = slots
                    .values()
                    .filter(|s| matches!(s, Slot::Ready(_)))
                    .count();
                if ready < capacity {
                    break;
                }
                let victim = slots
                    .iter()
                    .find_map(|(k, slot)| matches!(slot, Slot::Ready(_)).then_some(*k));
                match victim {
                    Some(victim) => {
                        slots.remove(&victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        slots.insert(key, Slot::Ready(answer));
        drop(slots);
        self.filled.notify_all();
    }

    fn abandon(&self, key: &CacheKey) {
        let mut slots = self.slots.lock().expect("cache lock poisoned");
        if matches!(slots.get(key), Some(Slot::InFlight)) {
            slots.remove(key);
        }
        drop(slots);
        self.filled.notify_all();
    }

    /// Migrates entries from `old_version` to `new_version` after inserting
    /// a tuple at `location`, dropping every entry whose security-radius
    /// certificate cannot rule out a changed answer.
    pub fn apply_insert(&self, old_version: u64, new_version: u64, location: &Point) {
        self.migrate(old_version, new_version, |key, answer| {
            // Keep only entries the new tuple provably cannot reach; the
            // negated form also drops entries with NaN distances.
            location.distance(&key.query_point()) > answer.insert_bound
        });
    }

    /// Migrates entries from `old_version` to `new_version` after deleting
    /// tuple `id`, dropping every entry the delete could affect.
    pub fn apply_delete(&self, old_version: u64, new_version: u64, id: TupleId) {
        self.migrate(old_version, new_version, |_, answer| {
            answer.delete_by_membership && answer.response.results.iter().all(|r| r.id != id)
        });
    }

    /// Drops every ready entry (counted as invalidations) — the wholesale
    /// fallback when no certificate bounds a mutation's reach.
    pub fn flush(&self) {
        let mut slots = self.slots.lock().expect("cache lock poisoned");
        let before = slots.len();
        slots.retain(|_, slot| matches!(slot, Slot::InFlight));
        let dropped = (before - slots.len()) as u64;
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }

    fn migrate<F>(&self, old_version: u64, new_version: u64, keep: F)
    where
        F: Fn(&CacheKey, &CachedAnswer) -> bool,
    {
        if old_version == new_version {
            return;
        }
        let mut slots = self.slots.lock().expect("cache lock poisoned");
        let upper = match old_version.checked_add(1) {
            Some(next) => Bound::Excluded(CacheKey::version_floor(next)),
            None => Bound::Unbounded,
        };
        let keys: Vec<CacheKey> = slots
            .range((Bound::Included(CacheKey::version_floor(old_version)), upper))
            .filter(|(_, slot)| matches!(slot, Slot::Ready(_)))
            .map(|(k, _)| *k)
            .collect();
        let mut dropped = 0u64;
        for key in keys {
            let Some(Slot::Ready(answer)) = slots.remove(&key) else {
                continue;
            };
            if keep(&key, &answer) {
                slots.insert(key.with_version(new_version), Slot::Ready(answer));
            } else {
                dropped += 1;
            }
        }
        self.invalidations.fetch_add(dropped, Ordering::Relaxed);
    }
}

/// Answer-caching decorator: a versioned memo of the inner backend's kNN
/// answers, shareable across sessions and tenants via a common
/// [`AnswerCache`].
///
/// See the [module docs](self) for the key schema, metering semantics, and
/// invalidation story. Composition order with
/// [`crate::RateLimitedBackend`] is semantic, not cosmetic:
/// `CachingBackend<RateLimitedBackend<_>>` answers hits without consuming
/// rate-limit budget, while `RateLimitedBackend<CachingBackend<_>>` meters
/// every call through the throttle. The scenario layer refuses to guess —
/// it requires an explicit `cache_order` when both decorators are present.
pub struct CachingBackend<B> {
    inner: B,
    cache: Arc<AnswerCache>,
    ledger: Arc<QueryBudget>,
    hits_metered: bool,
    version: u64,
}

impl<B: LbsBackend> CachingBackend<B> {
    /// Wraps `inner` with an answer cache.
    ///
    /// `ledger` must be the service ledger at the bottom of the stack (what
    /// [`SimulatedLbs::budget`] exposes): with `hits_metered` set, every hit
    /// charges it exactly like a real query. `version` keys the entries —
    /// use [`backend_fingerprint`] of the dataset and config behind `inner`.
    pub fn new(
        inner: B,
        cache: Arc<AnswerCache>,
        ledger: Arc<QueryBudget>,
        hits_metered: bool,
        version: u64,
    ) -> Self {
        CachingBackend {
            inner,
            cache,
            ledger,
            hits_metered,
            version,
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The shared answer cache.
    pub fn cache(&self) -> &Arc<AnswerCache> {
        &self.cache
    }

    /// The version fingerprint this view keys its entries under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether cache hits charge the service ledger.
    pub fn hits_metered(&self) -> bool {
        self.hits_metered
    }
}

impl CachingBackend<SimulatedLbs> {
    /// Wraps a concrete simulator, deriving the ledger (the simulator's own
    /// budget) and the version fingerprint automatically.
    pub fn over_service(
        service: SimulatedLbs,
        cache: Arc<AnswerCache>,
        hits_metered: bool,
    ) -> Self {
        let ledger = service.budget().share();
        let version = backend_fingerprint(service.dataset(), service.config());
        CachingBackend::new(service, cache, ledger, hits_metered, version)
    }
}

impl<B: LbsBackend> LbsBackend for CachingBackend<B> {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        let key = CacheKey::for_query(self.version, location, self.inner.config().k);
        match self.cache.lookup_or_lead(&key) {
            Lookup::Hit(response) => {
                if self.hits_metered && !self.ledger.charge() {
                    return Err(QueryError::BudgetExhausted {
                        issued: self.ledger.issued(),
                        limit: self.ledger.limit().unwrap_or(u64::MAX),
                    });
                }
                Ok(response)
            }
            Lookup::Lead => match self.inner.query(location) {
                Ok(response) => {
                    self.cache.fill(
                        key,
                        CachedAnswer::certified(response.clone(), self.inner.config()),
                    );
                    Ok(response)
                }
                Err(e) => {
                    // Errors are not cached: release the in-flight slot so
                    // waiters retry (and observe the same exhausted ledger).
                    self.cache.abandon(&key);
                    Err(e)
                }
            },
        }
    }

    fn config(&self) -> &ServiceConfig {
        self.inner.config()
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }

    fn bbox(&self) -> Rect {
        self.inner.bbox()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::RateLimitedBackend;
    use crate::config::ServiceConfig;
    use crate::service::SimulatedLbs;
    use lbs_data::{Dataset, Tuple};
    use std::time::Duration;

    fn dataset() -> Dataset {
        let tuples = (0..6)
            .map(|id| Tuple::new(id, Point::new(1.0 + id as f64, 1.0)))
            .collect();
        Dataset::new(tuples, Rect::from_bounds(0.0, 0.0, 10.0, 10.0))
    }

    fn service(k: usize, limit: Option<u64>) -> SimulatedLbs {
        let mut config = ServiceConfig::lr_lbs(k);
        if let Some(l) = limit {
            config = config.with_query_limit(l);
        }
        SimulatedLbs::new(dataset(), config)
    }

    #[test]
    fn keys_canonicalize_float_bits() {
        let zero = CacheKey::for_query(7, &Point::new(0.0, 1.0), 3);
        let neg_zero = CacheKey::for_query(7, &Point::new(-0.0, 1.0), 3);
        assert_eq!(zero, neg_zero);
        let nan_a = CacheKey::for_query(7, &Point::new(f64::NAN, 1.0), 3);
        let nan_b = CacheKey::for_query(7, &Point::new(-f64::NAN, 1.0), 3);
        assert_eq!(nan_a, nan_b);
        assert_ne!(zero, CacheKey::for_query(7, &Point::new(0.0, 2.0), 3));
        assert_ne!(zero, CacheKey::for_query(8, &Point::new(0.0, 1.0), 3));
        assert_ne!(zero, CacheKey::for_query(7, &Point::new(0.0, 1.0), 4));
    }

    #[test]
    fn fingerprint_ignores_answer_preserving_knobs() {
        let d = dataset();
        let base = ServiceConfig::lr_lbs(3);
        let fp = backend_fingerprint(&d, &base);
        assert_eq!(
            fp,
            backend_fingerprint(&d, &base.clone().with_query_limit(10))
        );
        assert_ne!(fp, backend_fingerprint(&d, &ServiceConfig::lr_lbs(4)));
        assert_ne!(
            fp,
            backend_fingerprint(&d, &base.clone().with_max_radius(2.0))
        );
        assert_ne!(fp, backend_fingerprint(&d, &ServiceConfig::lnr_lbs(3)));
    }

    #[test]
    fn hits_return_bit_identical_answers() {
        let svc = service(3, None);
        let cache = AnswerCache::unbounded();
        let cached = CachingBackend::over_service(svc.clone(), cache.share(), true);
        let q = Point::new(1.4, 1.0);
        let miss = cached.query(&q).unwrap();
        let hit = cached.query(&q).unwrap();
        assert_eq!(miss, hit);
        assert_eq!(hit, svc.query(&q).unwrap());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn metered_hits_charge_the_ledger_like_queries() {
        let q = Point::new(1.4, 1.0);
        // Reference: an uncached service with the same hard limit.
        let plain = service(3, Some(2));
        plain.query(&q).unwrap();
        plain.query(&q).unwrap();
        let plain_err = plain.query(&q).unwrap_err();

        let svc = service(3, Some(2));
        let cache = AnswerCache::unbounded();
        let cached = CachingBackend::over_service(svc, cache, true);
        cached.query(&q).unwrap(); // miss, charges 1
        cached.query(&q).unwrap(); // hit, charges 1
        assert_eq!(cached.queries_issued(), 2);
        assert_eq!(cached.query(&q).unwrap_err(), plain_err);
    }

    #[test]
    fn unmetered_hits_are_free() {
        let svc = service(3, Some(1));
        let cache = AnswerCache::unbounded();
        let cached = CachingBackend::over_service(svc, cache.share(), false);
        let q = Point::new(1.4, 1.0);
        cached.query(&q).unwrap();
        cached.query(&q).unwrap();
        cached.query(&q).unwrap();
        assert_eq!(cached.queries_issued(), 1);
        assert_eq!(cache.stats().hits, 2);
        // A distinct point is a real query and hits the hard limit.
        assert!(cached.query(&Point::new(2.2, 1.0)).is_err());
    }

    #[test]
    fn insert_outside_the_security_radius_keeps_entries_warm() {
        let mut d = dataset();
        let config = ServiceConfig::lr_lbs(2);
        let cache = AnswerCache::unbounded();
        let v1 = CachingBackend::over_service(
            SimulatedLbs::new(d.clone(), config.clone()),
            cache.share(),
            true,
        );
        let q = Point::new(1.2, 1.0);
        let before = v1.query(&q).unwrap();

        // Far insert: certificate keeps the entry across the version bump.
        d.insert(Tuple::new(100, Point::new(9.5, 9.5)));
        let v2 = CachingBackend::over_service(
            SimulatedLbs::new(d.clone(), config.clone()),
            cache.share(),
            true,
        );
        cache.apply_insert(v1.version(), v2.version(), &Point::new(9.5, 9.5));
        assert_eq!(cache.stats().invalidations, 0);
        let after = v2.query(&q).unwrap();
        assert_eq!(before, after);
        assert_eq!(cache.stats().hits, 1, "migrated entry served the hit");

        // Near insert (closer than the k-th distance): entry dropped, and
        // the fresh answer contains the new tuple.
        d.insert(Tuple::new(101, Point::new(1.2, 1.0)));
        let v3 = CachingBackend::over_service(
            SimulatedLbs::new(d.clone(), config.clone()),
            cache.share(),
            true,
        );
        cache.apply_insert(v2.version(), v3.version(), &Point::new(1.2, 1.0));
        assert_eq!(cache.stats().invalidations, 1);
        let fresh = v3.query(&q).unwrap();
        assert_eq!(fresh.results[0].id, 101);
    }

    #[test]
    fn delete_invalidates_exactly_member_entries() {
        let d = dataset();
        let config = ServiceConfig::lr_lbs(2);
        let cache = AnswerCache::unbounded();
        let v1 = CachingBackend::over_service(
            SimulatedLbs::new(d.clone(), config.clone()),
            cache.share(),
            true,
        );
        // Entry A's members are ids {0, 1}; entry B's are ids {4, 5}.
        let qa = Point::new(1.2, 1.0);
        let qb = Point::new(6.2, 1.0);
        v1.query(&qa).unwrap();
        v1.query(&qb).unwrap();
        assert_eq!(cache.len(), 2);

        let mut d2 = d.clone();
        d2.remove(5).unwrap();
        let v2 = CachingBackend::over_service(SimulatedLbs::new(d2, config), cache.share(), true);
        cache.apply_delete(v1.version(), v2.version(), 5);
        assert_eq!(cache.len(), 1, "only the member entry is dropped");
        assert_eq!(cache.stats().invalidations, 1);
        let a = v2.query(&qa).unwrap();
        assert_eq!(a.results[0].id, 0);
        assert_eq!(cache.stats().hits, 1, "entry A survived the delete");
        // Entry B re-queries and now sees id 3 promoted into the top-2.
        let b = v2.query(&qb).unwrap();
        assert!(b.results.iter().any(|r| r.id == 3));
    }

    #[test]
    fn prominence_ranking_has_no_certificate() {
        let d = dataset();
        let config = ServiceConfig::lr_lbs(2).with_ranking(Ranking::Prominence { weight: 1.0 });
        let cache = AnswerCache::unbounded();
        let v1 = CachingBackend::over_service(
            SimulatedLbs::new(d.clone(), config.clone()),
            cache.share(),
            true,
        );
        v1.query(&Point::new(1.2, 1.0)).unwrap();
        // Even a far insert invalidates: no bound is sound under prominence.
        let mut d2 = d;
        d2.insert(Tuple::new(100, Point::new(9.5, 9.5)));
        let v2 = CachingBackend::over_service(SimulatedLbs::new(d2, config), cache.share(), true);
        cache.apply_insert(v1.version(), v2.version(), &Point::new(9.5, 9.5));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn flush_drops_everything() {
        let cached = CachingBackend::over_service(service(3, None), AnswerCache::unbounded(), true);
        cached.query(&Point::new(1.2, 1.0)).unwrap();
        cached.query(&Point::new(2.2, 1.0)).unwrap();
        cached.cache().flush();
        assert!(cached.cache().is_empty());
        assert_eq!(cached.cache().stats().invalidations, 2);
    }

    #[test]
    fn capacity_evicts_deterministically() {
        let cached =
            CachingBackend::over_service(service(3, None), AnswerCache::with_capacity(2), true);
        for x in [1, 2, 3, 4] {
            cached.query(&Point::new(x as f64, 1.0)).unwrap();
        }
        let stats = cached.cache().stats();
        assert_eq!(cached.cache().len(), 2);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.misses, 4);
    }

    // Satellite: the two lawful compositions with a rate limiter, and their
    // differing metering of cache hits (documented in the struct docs).
    #[test]
    fn cache_outside_the_rate_limit_answers_hits_without_throttle_budget() {
        let svc = service(3, None);
        let ledger = svc.budget().share();
        let version = backend_fingerprint(svc.dataset(), svc.config());
        let limited = RateLimitedBackend::new(svc, 5, Duration::from_millis(0));
        let cached = CachingBackend::new(limited, AnswerCache::unbounded(), ledger, true, version);
        let q = Point::new(1.4, 1.0);
        cached.query(&q).unwrap();
        cached.query(&q).unwrap(); // hit: never reaches the limiter
        assert_eq!(cached.inner().throttled_queries(), 1);
        assert_eq!(cached.queries_issued(), 2, "metered hit still charged");
    }

    #[test]
    fn cache_inside_the_rate_limit_meters_every_call() {
        let svc = service(3, None);
        let cached = CachingBackend::over_service(svc, AnswerCache::unbounded(), true);
        let limited = RateLimitedBackend::new(cached, 5, Duration::from_millis(0));
        let q = Point::new(1.4, 1.0);
        limited.query(&q).unwrap();
        limited.query(&q).unwrap(); // hit, but the limiter saw the call
        assert_eq!(limited.throttled_queries(), 2);
        assert_eq!(limited.inner().cache().stats().hits, 1);
    }

    #[test]
    fn single_flight_counts_one_miss_per_distinct_key() {
        let svc = service(3, None);
        let cache = AnswerCache::unbounded();
        let cached = CachingBackend::over_service(svc, cache.share(), false);
        let q = Point::new(1.4, 1.0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        cached.query(&q).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 31);
        assert_eq!(cached.queries_issued(), 1, "unmetered: one real query");
    }

    #[test]
    fn caching_backend_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CachingBackend<SimulatedLbs>>();
        assert_send_sync::<CachingBackend<RateLimitedBackend<SimulatedLbs>>>();
        assert_send_sync::<Arc<AnswerCache>>();
    }
}
