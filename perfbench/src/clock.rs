//! The benchmark's single wall-clock read.
//!
//! Every timing in the benchmark goes through [`now`], so the one
//! `ambient-time` suppression below covers the whole package.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    // lbs-lint: allow(ambient-time, reason = "the benchmark times the system from outside; no estimate or control decision of the system reads this clock")
    Instant::now()
}

/// Seconds elapsed since `since`.
pub fn secs_since(since: Instant) -> f64 {
    now().saturating_duration_since(since).as_secs_f64()
}

/// Seconds from `a` to `b` (0 when `b` is earlier).
pub fn secs_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}
