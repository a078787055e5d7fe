//! # lbs-server
//!
//! The multi-tenant aggregate-serving layer: what turns the paper's
//! estimators into a system that can serve partial answers to many
//! concurrent clients over shared query budgets.
//!
//! Three pieces, bottom to top:
//!
//! * [`scheduler`] — a **deterministic least-attained-service scheduler**
//!   over [`lbs_core::EstimationSession`] jobs. Each tick advances the job
//!   with the fewest ticks by one chunk round, stepped outside the
//!   scheduler's lock by the server; every job charges its tenant's shared
//!   [`lbs_service::QueryBudget`], so quotas are enforced across jobs; and
//!   because sessions derive all randomness from `(root_seed,
//!   sample_index)`, every job's estimate stream is bit-identical no matter
//!   how jobs interleave or in which order they arrived.
//! * [`event_loop`] + [`http`] + [`queue`] — a **dependency-free,
//!   event-driven HTTP/1.1 JSON front-end**: one loop thread multiplexes
//!   every connection over the vendored `poll(2)` shim with keep-alive and
//!   incremental parsing, and a bounded [`queue::SubmissionQueue`] with a
//!   single drain worker turns socket chaos into one serial admission
//!   stream (backpressure is explicit: `429` + `Retry-After`). Submit a
//!   job from a declarative scenario spec, poll its anytime estimate
//!   (value, running confidence interval, queries spent, stop reason),
//!   long-poll the final result, cancel.
//! * [`loadtest`] — the concurrent-load probe behind `repro loadtest`: N
//!   keep-alive clients against an in-process server on a loopback port,
//!   reported as a [`LoadtestBenchReport`] in `BENCH_loadtest.json`.
//!
//! The `repro` binary lives in this crate (its `serve` / `client`
//! subcommands need the server; everything experiment-shaped still comes
//! from `lbs-bench`). `repro serve` starts the front-end; `repro client`
//! submits a scenario file, streams anytime estimates, and can verify the
//! served result against a local batch run (`--check-batch`) — the
//! end-to-end smoke pair CI runs on every push.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event_loop;
pub mod http;
pub mod loadtest;
pub mod queue;
pub mod scheduler;

pub use event_loop::{HttpStats, Server, ServerConfig, ServerState};
pub use http::{http_request, value_u64, HttpClient};
pub use loadtest::{run_loadtest, LoadtestBenchReport, LoadtestOptions};
pub use queue::SubmissionQueue;
pub use scheduler::{
    Admission, CacheCounters, JobState, JobStatus, Lease, NewJob, Scheduler, SchedulerConfig,
    SchedulerStats, TenantStatus, DEFAULT_TENANT,
};
