//! The pluggable LBS backend trait and its composable decorators.
//!
//! Everything the estimators in `lbs-core` know about a location based
//! service is captured by the [`LbsBackend`] trait: issue a point query, get
//! back at most `k` ranked tuples (with or without locations), pay one unit
//! of query budget. Aggregation code never touches an underlying dataset
//! directly — that is the whole premise of the paper — and it never names a
//! concrete backend type, so the in-process [`crate::SimulatedLbs`], a
//! decorated view of it, or an out-of-process adapter are interchangeable.
//!
//! The decorators model adversarial service behaviours the paper's online
//! experiments had to cope with, without touching estimator code:
//!
//! * [`RateLimitedBackend`] — pauses after every burst of queries, the shape
//!   of a per-minute API quota. Answers are bit-identical to the inner
//!   backend's; only wall-clock time changes.
//! * [`LatencyBackend`] — injects a fixed per-query latency, the shape of a
//!   slow remote endpoint. Also answer-preserving.
//! * [`TruncatingBackend`] — deterministically truncates every n-th answer
//!   to fewer tuples, the shape of a flaky service that occasionally returns
//!   short pages. This one *does* change answers: it exists to measure how
//!   gracefully estimators degrade, not to preserve their output.
//!
//! Decorators nest freely (`RateLimitedBackend<TruncatingBackend<...>>`)
//! because each one implements [`LbsBackend`] over any inner [`LbsBackend`].
//!
//! A fourth decorator lives in [`crate::cache`]: [`crate::CachingBackend`],
//! the shared, versioned answer cache. Its composition order with
//! [`RateLimitedBackend`] is semantic — cache outside the limiter answers
//! hits without consuming rate-limit budget, cache inside meters every call
//! through the throttle — so the scenario layer requires an explicit
//! `cache_order` whenever both are present, and rejects combining the cache
//! with [`TruncatingBackend`] outright (caching ordinal-keyed truncated
//! answers would replay a degraded page to every later query).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use lbs_geom::{Point, Rect};

use crate::config::ServiceConfig;
use crate::interface::{QueryError, QueryResponse};

/// The restrictive public query interface of a location based service.
pub trait LbsBackend: Send + Sync {
    /// Issues a kNN point query at `location` and returns the ranked answer.
    ///
    /// Every call — regardless of how useful its answer turns out to be —
    /// consumes one unit of the service's query budget, mirroring the
    /// rate-limited reality the paper optimises for.
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError>;

    /// The interface configuration (k, return mode, restrictions).
    fn config(&self) -> &ServiceConfig;

    /// Number of queries issued so far (across all views sharing the budget).
    fn queries_issued(&self) -> u64;

    /// The bounding box of the service's region of interest.
    fn bbox(&self) -> Rect;
}

/// A shared reference to a backend is itself a backend, so decorators can
/// wrap long-lived services without taking ownership.
impl<S: LbsBackend + ?Sized> LbsBackend for &S {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        (**self).query(location)
    }

    fn config(&self) -> &ServiceConfig {
        (**self).config()
    }

    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }

    fn bbox(&self) -> Rect {
        (**self).bbox()
    }
}

/// Boxed backends compose too — this is what lets a scenario file assemble
/// an arbitrary decorator stack at runtime (`Box<dyn LbsBackend>`).
impl<S: LbsBackend + ?Sized> LbsBackend for Box<S> {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        (**self).query(location)
    }

    fn config(&self) -> &ServiceConfig {
        (**self).config()
    }

    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }

    fn bbox(&self) -> Rect {
        (**self).bbox()
    }
}

/// Shared-ownership backends compose too — this is what lets a stratified
/// session hand every per-stratum child its own handle to one service (and
/// one shared query ledger).
impl<S: LbsBackend + ?Sized> LbsBackend for std::sync::Arc<S> {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        (**self).query(location)
    }

    fn config(&self) -> &ServiceConfig {
        (**self).config()
    }

    fn queries_issued(&self) -> u64 {
        (**self).queries_issued()
    }

    fn bbox(&self) -> Rect {
        (**self).bbox()
    }
}

/// Decorator pausing after every burst of queries — the shape of a
/// queries-per-minute API quota.
///
/// Results are bit-identical to the inner backend's: the decorator only
/// spends wall-clock time, which is what makes it safe to wrap under any
/// estimator without changing its estimates.
pub struct RateLimitedBackend<B> {
    inner: B,
    burst: u64,
    pause: Duration,
    issued: AtomicU64,
}

impl<B: LbsBackend> RateLimitedBackend<B> {
    /// Pauses for `pause` after every `burst` queries (`burst == 0` disables
    /// the throttle, leaving a transparent wrapper).
    pub fn new(inner: B, burst: u64, pause: Duration) -> Self {
        RateLimitedBackend {
            inner,
            burst,
            pause,
            issued: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Queries issued through this decorator (not the shared global ledger).
    pub fn throttled_queries(&self) -> u64 {
        self.issued.load(Ordering::Relaxed)
    }
}

impl<B: LbsBackend> LbsBackend for RateLimitedBackend<B> {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        let n = self.issued.fetch_add(1, Ordering::Relaxed) + 1;
        if self.burst > 0 && n % self.burst == 0 && !self.pause.is_zero() {
            std::thread::sleep(self.pause);
        }
        self.inner.query(location)
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

/// Decorator injecting a fixed latency before every query — the shape of a
/// slow remote endpoint. Answer-preserving, like [`RateLimitedBackend`].
pub struct LatencyBackend<B> {
    inner: B,
    latency: Duration,
}

impl<B: LbsBackend> LatencyBackend<B> {
    /// Sleeps for `latency` before forwarding each query.
    pub fn new(inner: B, latency: Duration) -> Self {
        LatencyBackend { inner, latency }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: LbsBackend> LbsBackend for LatencyBackend<B> {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        self.inner.query(location)
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

/// Decorator truncating every `every`-th answer to at most `keep` tuples —
/// the shape of a flaky service that occasionally returns short pages.
///
/// Truncation is keyed to the decorator's own query ordinal, so a
/// single-threaded run is perfectly reproducible; under a multi-threaded
/// driver the *set* of truncated ordinals is fixed but their assignment to
/// samples depends on scheduling. Unlike the answer-preserving decorators,
/// this one deliberately degrades answers to probe estimator robustness.
pub struct TruncatingBackend<B> {
    inner: B,
    every: u64,
    keep: usize,
    issued: AtomicU64,
}

impl<B: LbsBackend> TruncatingBackend<B> {
    /// Truncates query number `every`, `2*every`, … to at most `keep`
    /// tuples (`every == 0` disables truncation).
    pub fn new(inner: B, every: u64, keep: usize) -> Self {
        TruncatingBackend {
            inner,
            every,
            keep,
            issued: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: LbsBackend> LbsBackend for TruncatingBackend<B> {
    fn query(&self, location: &Point) -> Result<QueryResponse, QueryError> {
        let n = self.issued.fetch_add(1, Ordering::Relaxed) + 1;
        let mut response = self.inner.query(location)?;
        if self.every > 0 && n % self.every == 0 {
            response.results.truncate(self.keep);
        }
        Ok(response)
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
    use crate::config::ServiceConfig;
    use crate::service::SimulatedLbs;
    use lbs_data::{Dataset, Tuple};

    fn service(k: usize) -> SimulatedLbs {
        let tuples = (0..6)
            .map(|id| Tuple::new(id, Point::new(1.0 + id as f64, 1.0)))
            .collect();
        let dataset = Dataset::new(tuples, Rect::from_bounds(0.0, 0.0, 10.0, 10.0));
        SimulatedLbs::new(dataset, ServiceConfig::lr_lbs(k))
    }

    #[test]
    fn rate_limiter_preserves_answers_and_counts() {
        let svc = service(3);
        let limited = RateLimitedBackend::new(&svc, 2, Duration::from_millis(1));
        let q = Point::new(1.5, 1.0);
        let direct = svc.query(&q).unwrap();
        let through = limited.query(&q).unwrap();
        assert_eq!(direct, through);
        assert_eq!(limited.throttled_queries(), 1);
        assert_eq!(limited.queries_issued(), 2); // global ledger saw both
        assert_eq!(limited.config().k, 3);
        assert_eq!(limited.bbox(), svc.bbox());
    }

    #[test]
    fn latency_backend_preserves_answers() {
        let svc = service(2);
        let slow = LatencyBackend::new(&svc, Duration::from_millis(1));
        let q = Point::new(3.0, 1.0);
        assert_eq!(svc.query(&q).unwrap(), slow.query(&q).unwrap());
        assert_eq!(slow.inner().queries_issued(), 2);
    }

    #[test]
    fn truncating_backend_shortens_every_nth_answer() {
        let svc = service(5);
        let flaky = TruncatingBackend::new(&svc, 3, 1);
        let q = Point::new(1.0, 1.0);
        let full = flaky.query(&q).unwrap();
        assert_eq!(full.results.len(), 5);
        let full2 = flaky.query(&q).unwrap();
        assert_eq!(full2.results.len(), 5);
        let short = flaky.query(&q).unwrap(); // query #3: truncated
        assert_eq!(short.results.len(), 1);
        assert_eq!(short.results[0].id, full.results[0].id);
        let full3 = flaky.query(&q).unwrap();
        assert_eq!(full3.results.len(), 5);
    }

    #[test]
    fn decorators_nest() {
        let svc = service(4);
        let stack = RateLimitedBackend::new(
            TruncatingBackend::new(&svc, 2, 2),
            3,
            Duration::from_millis(1),
        );
        let q = Point::new(2.0, 1.0);
        assert_eq!(stack.query(&q).unwrap().results.len(), 4);
        assert_eq!(stack.query(&q).unwrap().results.len(), 2); // truncated
        assert_eq!(stack.query(&q).unwrap().results.len(), 4);
        assert_eq!(svc.queries_issued(), 3);
    }

    #[test]
    fn decorated_backends_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RateLimitedBackend<SimulatedLbs>>();
        assert_send_sync::<LatencyBackend<SimulatedLbs>>();
        assert_send_sync::<TruncatingBackend<SimulatedLbs>>();
        assert_send_sync::<RateLimitedBackend<&SimulatedLbs>>();
    }
}
