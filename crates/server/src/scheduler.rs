//! Deterministic multi-tenant job scheduler over anytime estimation
//! sessions.
//!
//! A [`Scheduler`] owns many concurrent estimation **jobs** — each one an
//! [`EstimationSession`] built from a declarative scenario spec — and
//! advances them **one chunk round per tick** (one
//! [`lbs_core::driver::CHUNK_SAMPLES`]-sample chunk per worker thread). Each
//! tick goes to the runnable job that has had the fewest ticks so far, ties
//! to the earliest submission (*least attained service*), so a small job
//! submitted behind a heavy one finishes before the heavy job runs its
//! remaining chunks. Nothing in the schedule depends on wall-clock time or
//! thread interleaving, so the estimate stream of every job is bit-identical
//! regardless of how many other jobs run beside it, in which order jobs of
//! *different* tenants arrived, or how often the driving loop paused: each
//! session's samples draw private RNGs seeded from `(root_seed,
//! sample_index)`, and sessions share no mutable state.
//!
//! A tick is split so that a server can run the chunk round without holding
//! the scheduler: [`Scheduler::take`] checks the next job's session out,
//! [`Lease::step`] advances it, and [`Scheduler::put_back`] returns it. While
//! a session is out, [`Scheduler::poll`] serves the job's last snapshot and
//! [`Scheduler::cancel`] sets a flag that settles the job when the session
//! comes back, at its next chunk boundary. Job construction splits the same
//! way ([`Scheduler::admit`], [`Admission::build`], [`Scheduler::insert`]).
//!
//! **Tenants** give the serving layer its quota model: every job charges the
//! shared [`QueryBudget`] of its tenant, so one tenant's greedy aggregate
//! cannot starve another's — the budget refuses further queries once the
//! quota is spent and the affected jobs finish with whatever samples they
//! completed (an anytime answer; jobs with zero samples fail). The one
//! caveat mirrors the driver's hard-limit caveat: *which* of a tenant's jobs
//! hits the wall depends on the interleave, so arrival-order invariance is
//! only bit-exact while no hard quota binds mid-run.
//!
//! Job lifecycle: [`Scheduler::submit`] → (ticks) → `Done` / `Failed`, with
//! [`Scheduler::poll`] serving anytime snapshots at every point,
//! [`Scheduler::cancel`] stopping a job early (its partial estimate stays
//! readable — anytime by construction), and [`Scheduler::result`] returning
//! the final [`Estimate`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use lbs_bench::{build_workload, CacheMode, Scale, Scenario, ScenarioContext, Workload};
use lbs_core::{AnytimeSnapshot, Estimate, EstimationSession};
use lbs_service::{AnswerCache, CacheStats, LbsBackend, QueryBudget};
use serde::Serialize;

/// Default tenant name for submissions that do not specify one.
pub const DEFAULT_TENANT: &str = "default";

/// Construction knobs of a [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker threads each chunk round fans out to (bit-identical at any
    /// value).
    pub threads: usize,
    /// Default root seed for scenarios that do not pin one.
    pub seed: u64,
    /// Apply the scenario smoke caps (small datasets/budgets) to every job.
    pub smoke: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: 1,
            seed: 2015,
            smoke: false,
        }
    }
}

/// Lifecycle state of a job.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub enum JobState {
    /// Queued or mid-run; chunk rounds are still being scheduled.
    Running,
    /// Finished with a final estimate.
    Done,
    /// Cancelled by the owner; a partial estimate may still be readable.
    Cancelled,
    /// Finished without a single completed sample (e.g. quota exhausted
    /// immediately); carries the reason.
    Failed(String),
}

/// Everything a caller polling a job can know.
#[derive(Clone, Debug, Serialize)]
pub struct JobStatus {
    /// Job id (assigned at submission, strictly increasing).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Scenario id the job was built from.
    pub scenario_id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Anytime estimate, confidence interval, cost and stop reason.
    pub snapshot: AnytimeSnapshot,
    /// Scheduler ticks this job has received.
    pub ticks: u64,
    /// Milliseconds from submission to the first snapshot with at least one
    /// completed sample (wall clock; telemetry only).
    pub time_to_first_estimate_ms: Option<u64>,
}

/// Per-tenant accounting.
#[derive(Clone, Debug, Serialize)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Hard query quota, if any.
    pub quota: Option<u64>,
    /// Queries charged to the tenant's shared budget so far. Jobs whose
    /// scenario pins its own `query_limit` under a quota-less tenant meter
    /// privately and are not in this ledger (see
    /// [`Scheduler::admit`]).
    pub queries_issued: u64,
    /// Jobs ever submitted under this tenant.
    pub jobs_submitted: u64,
}

/// Scheduler-wide counters.
#[derive(Clone, Debug, Serialize)]
pub struct SchedulerStats {
    /// Default root seed jobs are built with (scenarios may pin their own).
    pub seed: u64,
    /// Whether smoke caps apply to every job.
    pub smoke: bool,
    /// Worker threads per chunk round.
    pub threads: usize,
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs currently runnable.
    pub running: usize,
    /// Jobs finished with a result.
    pub done: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Total scheduler ticks served.
    pub ticks: u64,
    /// Per-tenant accounting, sorted by name.
    pub tenants: Vec<TenantStatus>,
    /// Counters of the cross-tenant shared answer cache.
    pub shared_cache: CacheCounters,
}

/// Serializable snapshot of an answer cache's counters.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backend (with single-flight
    /// population, the number of distinct keys ever populated).
    pub misses: u64,
    /// Entries dropped by dataset-version migrations.
    pub invalidations: u64,
    /// Entries dropped by the capacity bound.
    pub evictions: u64,
}

impl From<CacheStats> for CacheCounters {
    fn from(stats: CacheStats) -> Self {
        CacheCounters {
            hits: stats.hits,
            misses: stats.misses,
            invalidations: stats.invalidations,
            evictions: stats.evictions,
        }
    }
}

struct TenantState {
    budget: Arc<QueryBudget>,
    quota: Option<u64>,
    jobs_submitted: u64,
    /// Per-tenant answer cache: jobs whose scenario says `cache = "private"`
    /// share it with this tenant's other jobs, never across tenants.
    cache: Arc<AnswerCache>,
}

/// The session type every job runs.
type Session = EstimationSession<Box<dyn LbsBackend>>;

struct Job {
    tenant: String,
    scenario_id: String,
    truth: f64,
    /// Live while the job is runnable and not checked out; dropped when it
    /// settles so a long-running server does not pin every finished job's
    /// dataset, backend and estimator state in memory.
    session: Option<Session>,
    /// The latest snapshot: taken at submission, after every tick and at
    /// settlement. Polls read it, so they never need the session.
    snapshot: AnytimeSnapshot,
    /// Set by a cancel that arrived while the session was checked out.
    cancel_requested: bool,
    state: JobState,
    result: Option<Estimate>,
    ticks: u64,
    submitted_at: Instant,
    first_estimate_ms: Option<u64>,
}

impl Job {
    /// Settles the job — `Cancelled`, or `Done`/`Failed` by whether the
    /// session completed a sample — storing its final estimate and
    /// snapshot. Hands the session (dataset, backend, history) back for the
    /// caller to drop.
    fn settle(&mut self, session: Session, cancelled: bool) -> Session {
        self.snapshot = session.snapshot();
        let result = session.finalize();
        self.state = match &result {
            _ if cancelled => JobState::Cancelled,
            Ok(_) => JobState::Done,
            Err(e) => JobState::Failed(e.to_string()),
        };
        self.result = result.ok();
        session
    }
}

/// A job's session checked out of the [`Scheduler`] by
/// [`Scheduler::take`], to be stepped without the scheduler and returned
/// with [`Scheduler::put_back`].
pub struct Lease {
    id: u64,
    session: Session,
}

impl Lease {
    /// The id of the job the session belongs to.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Advances the session by one chunk round — the scheduler's quantum.
    pub fn step(&mut self) {
        self.session.step();
    }
}

/// A submission admitted by [`Scheduler::admit`]: the tenant and the budget
/// and cache handles its job will charge, resolved in admission order.
pub struct Admission {
    tenant: String,
    budget: Arc<QueryBudget>,
    cache: Option<Arc<AnswerCache>>,
    threads: usize,
}

impl Admission {
    /// Builds the job's backend and session. Needs no scheduler access, so
    /// a server runs it without the lock.
    pub fn build(self, workload: &Workload) -> Result<NewJob, String> {
        let backend = workload.backend_with_budget_and_cache(self.budget, self.cache);
        let session = workload.start_session(backend, workload.session_config(self.threads, 0))?;
        Ok(NewJob {
            tenant: self.tenant,
            scenario_id: workload.id.clone(),
            truth: workload.truth,
            session,
        })
    }
}

/// A built job, ready for [`Scheduler::insert`].
pub struct NewJob {
    tenant: String,
    scenario_id: String,
    truth: f64,
    session: Session,
}

/// The deterministic least-attained-service scheduler (see the module docs).
pub struct Scheduler {
    config: SchedulerConfig,
    jobs: BTreeMap<u64, Job>,
    /// Runnable jobs that are not checked out, as `(ticks, id)`: the first
    /// entry is the next to run.
    runnable: BTreeSet<(u64, u64)>,
    next_id: u64,
    ticks: u64,
    tenants: BTreeMap<String, TenantState>,
    /// Cross-tenant answer cache: jobs whose scenario says `cache =
    /// "shared"` all use it. Entries are keyed by the dataset/config
    /// fingerprint, so tenants with different workloads never collide; only
    /// genuinely identical queries over identical data are shared.
    shared_cache: Arc<AnswerCache>,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            config,
            jobs: BTreeMap::new(),
            runnable: BTreeSet::new(),
            next_id: 1,
            ticks: 0,
            tenants: BTreeMap::new(),
            shared_cache: AnswerCache::unbounded(),
        }
    }

    /// The cross-tenant shared answer cache, for reading its counters.
    pub fn shared_cache(&self) -> &Arc<AnswerCache> {
        &self.shared_cache
    }

    /// Counter snapshot of a tenant's private answer cache.
    pub fn tenant_cache_stats(&self, tenant: &str) -> Option<CacheStats> {
        self.tenants.get(tenant).map(|t| t.cache.stats())
    }

    /// Registers a tenant with an optional hard query quota shared by all of
    /// its jobs. Re-registering an existing tenant is an error (quotas are
    /// not silently replaced). Unknown tenants named at submission are
    /// implicitly registered without a quota.
    pub fn register_tenant(&mut self, name: &str, quota: Option<u64>) -> Result<(), String> {
        if self.tenants.contains_key(name) {
            return Err(format!("tenant `{name}` is already registered"));
        }
        let budget = match quota {
            Some(limit) => QueryBudget::with_limit(limit),
            None => QueryBudget::unlimited(),
        };
        self.tenants.insert(
            name.to_string(),
            TenantState {
                budget,
                quota,
                jobs_submitted: 0,
                cache: AnswerCache::unbounded(),
            },
        );
        Ok(())
    }

    /// `true` when `tenant` has a hard quota and it is fully spent — every
    /// further submission under it is doomed to fail with zero samples, so
    /// the HTTP layer rejects such jobs up front with `429 Too Many
    /// Requests` instead of admitting them into the queue.
    ///
    /// Quota-less tenants (and unknown names, which would be implicitly
    /// registered without a quota) are never saturated.
    ///
    /// ```
    /// use lbs_server::{Scheduler, SchedulerConfig};
    ///
    /// let mut scheduler = Scheduler::new(SchedulerConfig::default());
    /// scheduler.register_tenant("capped", Some(50))?;
    /// assert!(!scheduler.tenant_quota_saturated("capped"));
    /// assert!(!scheduler.tenant_quota_saturated("unknown"));
    /// # Ok::<(), String>(())
    /// ```
    pub fn tenant_quota_saturated(&self, tenant: &str) -> bool {
        let tenant = if tenant.is_empty() {
            DEFAULT_TENANT
        } else {
            tenant
        };
        self.tenants
            .get(tenant)
            .is_some_and(|t| t.quota.is_some() && t.budget.remaining() == 0)
    }

    /// The scenario-building context of this scheduler (what job workloads
    /// are built with). Cheap to copy — the HTTP layer reads it under the
    /// scheduler lock, then builds the (potentially large) workload
    /// *outside* the lock so running jobs keep ticking.
    pub fn scenario_context(&self) -> ScenarioContext {
        ScenarioContext {
            // Scale only matters to built-in experiment scenarios, which
            // cannot be submitted as jobs; Small is a placeholder.
            scale: Scale::Small,
            seed: self.config.seed,
            threads: self.config.threads,
            smoke: self.config.smoke,
        }
    }

    /// Submits a declarative scenario as a job under `tenant` (empty/None →
    /// [`DEFAULT_TENANT`]) and returns its id. The job runs repetition 0 of
    /// the scenario; with no `[session]` overrides its final estimate is
    /// byte-identical to the batch path at the same seed.
    pub fn submit(&mut self, scenario: &Scenario, tenant: Option<&str>) -> Result<u64, String> {
        let workload = build_workload(scenario, &self.scenario_context())?;
        let job = self.admit(&workload, tenant)?.build(&workload)?;
        Ok(self.insert(job))
    }

    /// Admits `workload` under `tenant` (empty/None → [`DEFAULT_TENANT`]):
    /// resolves the budget and cache handles its job will use. Building the
    /// job ([`Admission::build`]) needs no scheduler access; registering it
    /// ([`Scheduler::insert`]) does.
    ///
    /// Budget resolution: a tenant **quota** supersedes the scenario's own
    /// `query_limit` (the tenant-wide cap is the stronger contract); for a
    /// tenant without a quota the scenario's `query_limit` is honoured with
    /// a private budget — exactly like the batch path, so default-tenant
    /// jobs stay byte-identical to offline runs. Privately-metered jobs do
    /// not appear in the tenant's `queries_issued` ledger.
    ///
    /// Cache resolution: `cache = "private"` uses the tenant's cache (warm
    /// across that tenant's jobs), `cache = "shared"` the scheduler-wide
    /// cross-tenant cache. A shared cache with unmetered hits is refused:
    /// whether a query is free would then depend on which tenant's job ran
    /// it first, coupling every ledger to arrival order and breaking the
    /// scheduler's arrival-order-invariance contract.
    pub fn admit(
        &mut self,
        workload: &Workload,
        tenant: Option<&str>,
    ) -> Result<Admission, String> {
        let tenant = match tenant {
            Some(t) if !t.is_empty() => t,
            _ => DEFAULT_TENANT,
        };
        if workload.cache_mode() == CacheMode::Shared && !workload.cache_hits_metered() {
            return Err(format!(
                "{}: a shared cache with unmetered hits would couple tenants' ledgers \
                 to arrival order — use `cache = \"private\"` or drop \
                 `cache_hits_metered = false`",
                workload.id
            ));
        }
        if !self.tenants.contains_key(tenant) {
            self.register_tenant(tenant, None)?;
        }
        let tenant_state = &self.tenants[tenant];
        let cache = match workload.cache_mode() {
            CacheMode::Off => None,
            CacheMode::Private => Some(tenant_state.cache.share()),
            CacheMode::Shared => Some(self.shared_cache.share()),
        };
        let budget =
            if tenant_state.quota.is_none() && workload.service_config.query_limit.is_some() {
                workload.fresh_budget()
            } else {
                tenant_state.budget.share()
            };
        Ok(Admission {
            tenant: tenant.to_string(),
            budget,
            cache,
            threads: self.config.threads,
        })
    }

    /// Registers a built job and returns its id (ids count up in insertion
    /// order, which is the submission order least-attained-service ties go
    /// by).
    pub fn insert(&mut self, job: NewJob) -> u64 {
        if let Some(tenant) = self.tenants.get_mut(&job.tenant) {
            tenant.jobs_submitted += 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                tenant: job.tenant,
                scenario_id: job.scenario_id,
                truth: job.truth,
                snapshot: job.session.snapshot(),
                session: Some(job.session),
                cancel_requested: false,
                state: JobState::Running,
                result: None,
                ticks: 0,
                // lbs-lint: allow(ambient-time, reason = "feeds the first_estimate_ms latency stat only, never an estimate")
                submitted_at: Instant::now(),
                first_estimate_ms: None,
            },
        );
        self.runnable.insert((0, id));
        id
    }

    /// Checks out the session of the next job to run — the runnable job
    /// with the fewest ticks so far, ties to the earliest submission — so
    /// the caller can step it without holding the scheduler. Returns `None`
    /// when no job is runnable. Return the lease with
    /// [`Scheduler::put_back`].
    pub fn take(&mut self) -> Option<Lease> {
        let (_, id) = self.runnable.pop_first()?;
        let job = self.jobs.get_mut(&id).expect("runnable jobs exist");
        let session = job.session.take().expect("runnable jobs are live");
        Some(Lease { id, session })
    }

    /// Returns a stepped session to its job and counts the tick. The job
    /// settles if its session finished or a cancel arrived while it was
    /// out, and is runnable again otherwise. A settled job's session is
    /// handed back so the caller can release its dataset, backend and
    /// history after dropping the scheduler's lock.
    pub fn put_back(&mut self, lease: Lease) -> Option<EstimationSession<Box<dyn LbsBackend>>> {
        let Lease { id, mut session } = lease;
        self.ticks += 1;
        let job = self.jobs.get_mut(&id).expect("leased jobs exist");
        job.ticks += 1;
        job.snapshot = session.snapshot();
        if job.first_estimate_ms.is_none() && job.snapshot.samples > 0 {
            job.first_estimate_ms =
                Some(u64::try_from(job.submitted_at.elapsed().as_millis()).unwrap_or(u64::MAX));
        }
        if job.cancel_requested {
            session.cancel();
            Some(job.settle(session, true))
        } else if session.is_finished() {
            Some(job.settle(session, false))
        } else {
            job.session = Some(session);
            self.runnable.insert((job.ticks, id));
            None
        }
    }

    /// Advances the next job by one chunk round (take, step, put back) and
    /// returns its id, or `None` when every job is settled.
    pub fn tick(&mut self) -> Option<u64> {
        let mut lease = self.take()?;
        lease.step();
        let id = lease.id;
        self.put_back(lease);
        Some(id)
    }

    /// Ticks until every job is settled; returns the number of ticks served.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut ticks = 0;
        while self.tick().is_some() {
            ticks += 1;
        }
        ticks
    }

    /// `true` while at least one job is runnable or checked out.
    pub fn has_runnable_jobs(&self) -> bool {
        self.jobs.values().any(|job| job.state == JobState::Running)
    }

    /// The anytime status of a job.
    pub fn poll(&self, id: u64) -> Option<JobStatus> {
        let job = self.jobs.get(&id)?;
        Some(JobStatus {
            id,
            tenant: job.tenant.clone(),
            scenario_id: job.scenario_id.clone(),
            state: job.state.clone(),
            snapshot: job.snapshot.clone(),
            ticks: job.ticks,
            time_to_first_estimate_ms: job.first_estimate_ms,
        })
    }

    /// The final estimate of a finished job (`Done`), or the partial
    /// estimate of a cancelled one, if it completed any sample.
    pub fn result(&self, id: u64) -> Option<&Estimate> {
        self.jobs.get(&id).and_then(|j| j.result.as_ref())
    }

    /// Ground truth of a job's aggregate (the scheduler generated the data,
    /// so it knows; exposed for harnesses and smoke checks, never used by
    /// the estimators).
    pub fn truth(&self, id: u64) -> Option<f64> {
        self.jobs.get(&id).map(|j| j.truth)
    }

    /// Cancels a running job. Its partial (anytime) estimate, if any sample
    /// completed, becomes the job's result. A job whose session is checked
    /// out settles when [`Scheduler::put_back`] returns it, so the chunk
    /// round in flight still counts. Returns `false` for unknown,
    /// already-settled or already-cancelled jobs.
    pub fn cancel(&mut self, id: u64) -> bool {
        let Some(job) = self.jobs.get_mut(&id) else {
            return false;
        };
        if job.state != JobState::Running || job.cancel_requested {
            return false;
        }
        match job.session.take() {
            Some(mut session) => {
                session.cancel();
                self.runnable.remove(&(job.ticks, id));
                job.settle(session, true);
            }
            None => job.cancel_requested = true,
        }
        true
    }

    /// Scheduler-wide counters.
    pub fn stats(&self) -> SchedulerStats {
        let mut done = 0;
        let mut cancelled = 0;
        let mut failed = 0;
        let mut running = 0;
        for job in self.jobs.values() {
            match job.state {
                JobState::Running => running += 1,
                JobState::Done => done += 1,
                JobState::Cancelled => cancelled += 1,
                JobState::Failed(_) => failed += 1,
            }
        }
        SchedulerStats {
            seed: self.config.seed,
            smoke: self.config.smoke,
            threads: self.config.threads,
            submitted: self.next_id - 1,
            running,
            done,
            cancelled,
            failed,
            ticks: self.ticks,
            tenants: self
                .tenants
                .iter()
                .map(|(name, t)| TenantStatus {
                    name: name.clone(),
                    quota: t.quota,
                    queries_issued: t.budget.issued(),
                    jobs_submitted: t.jobs_submitted,
                })
                .collect(),
            shared_cache: self.shared_cache.stats().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbs_bench::load_scenario;

    fn count_scenario(id: &str, seed: u64, budget: u64) -> Scenario {
        let toml = format!(
            "id = \"{id}\"\nseed = {seed}\n\n[dataset]\nmodel = \"uniform\"\nsize = 60\n\n\
             [interface]\nkind = \"lr\"\nk = 5\n\n[aggregate]\nkind = \"count\"\n\n\
             [estimator]\nalgorithm = \"lr\"\nbudget = {budget}\n"
        );
        let dir = std::env::temp_dir().join(format!("lbs-server-test-{id}-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{id}.toml"));
        std::fs::write(&path, toml).unwrap();
        load_scenario(&path).unwrap()
    }

    #[test]
    fn submit_tick_poll_result_lifecycle() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let id = sched
            .submit(&count_scenario("lifecycle", 7, 150), None)
            .unwrap();
        let status = sched.poll(id).unwrap();
        assert_eq!(status.state, JobState::Running);
        assert_eq!(status.snapshot.samples, 0);
        assert!(sched.result(id).is_none());

        sched.run_until_idle();
        let status = sched.poll(id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert!(status.snapshot.finished);
        assert!(status.snapshot.samples > 0);
        let estimate = sched.result(id).expect("finished job has a result");
        assert!(estimate.value.is_finite());
        assert!(estimate.query_cost >= 150);
        assert!(sched.truth(id).unwrap() > 0.0);
    }

    #[test]
    fn interleaved_jobs_match_solo_runs_bitwise() {
        // Run the same scenario alone and interleaved with two other jobs:
        // the estimate must be bit-identical — sessions share no state.
        let scenario = count_scenario("interleave", 21, 200);

        let mut solo = Scheduler::new(SchedulerConfig::default());
        let solo_id = solo.submit(&scenario, None).unwrap();
        solo.run_until_idle();
        let solo_est = solo.result(solo_id).unwrap().clone();

        let mut busy = Scheduler::new(SchedulerConfig::default());
        let _a = busy
            .submit(&count_scenario("interleave-a", 5, 120), Some("other"))
            .unwrap();
        let id = busy.submit(&scenario, Some("main")).unwrap();
        let _b = busy
            .submit(&count_scenario("interleave-b", 9, 120), Some("other"))
            .unwrap();
        busy.run_until_idle();
        let busy_est = busy.result(id).unwrap();

        assert_eq!(solo_est.value.to_bits(), busy_est.value.to_bits());
        assert_eq!(solo_est.ci95, busy_est.ci95);
        assert_eq!(solo_est.samples, busy_est.samples);
        assert_eq!(solo_est.query_cost, busy_est.query_cost);
    }

    #[test]
    fn arrival_order_does_not_change_estimates() {
        let specs: Vec<Scenario> = (0..3)
            .map(|i| count_scenario(&format!("order-{i}"), 30 + i, 150))
            .collect();

        let run_in_order = |order: &[usize]| -> BTreeMap<String, (u64, u64)> {
            let mut sched = Scheduler::new(SchedulerConfig::default());
            let ids: Vec<u64> = order
                .iter()
                .map(|&i| sched.submit(&specs[i], None).unwrap())
                .collect();
            sched.run_until_idle();
            order
                .iter()
                .zip(ids)
                .map(|(&i, id)| {
                    let est = sched.result(id).unwrap();
                    (specs[i].id.clone(), (est.value.to_bits(), est.query_cost))
                })
                .collect()
        };

        let forward = run_in_order(&[0, 1, 2]);
        let reversed = run_in_order(&[2, 0, 1]);
        assert_eq!(forward, reversed, "arrival order changed an estimate");
    }

    #[test]
    fn tenant_quota_stops_jobs_with_anytime_answers() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        // Quota far below the job budget: the job must stop at the quota
        // with a partial (but non-empty) sample set.
        sched.register_tenant("capped", Some(60)).unwrap();
        let id = sched
            .submit(&count_scenario("quota", 11, 500), Some("capped"))
            .unwrap();
        sched.run_until_idle();
        let status = sched.poll(id).unwrap();
        assert_eq!(status.state, JobState::Done, "{status:?}");
        assert!(status.snapshot.samples > 0);
        let stats = sched.stats();
        let capped = stats.tenants.iter().find(|t| t.name == "capped").unwrap();
        assert_eq!(capped.queries_issued, 60, "quota must be spent exactly");
        assert_eq!(capped.quota, Some(60));

        // A second job under the spent quota fails: zero queries allowed.
        let id2 = sched
            .submit(&count_scenario("quota-2", 12, 500), Some("capped"))
            .unwrap();
        sched.run_until_idle();
        assert!(matches!(
            sched.poll(id2).unwrap().state,
            JobState::Failed(_)
        ));
    }

    #[test]
    fn scenario_query_limit_is_honoured_without_a_tenant_quota() {
        // A quota-less tenant must not lift the scenario's own hard
        // `query_limit`: the served job has to behave exactly like the batch
        // path, which enforces it.
        let toml = "id = \"limited\"\nseed = 19\n\n[dataset]\nmodel = \"uniform\"\nsize = 60\n\n\
             [interface]\nkind = \"lr\"\nk = 5\nquery_limit = 70\n\n[aggregate]\nkind = \"count\"\n\n\
             [estimator]\nalgorithm = \"lr\"\nbudget = 500\n";
        let dir = std::env::temp_dir().join("lbs-server-test-limited");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("limited.toml");
        std::fs::write(&path, toml).unwrap();
        let scenario = load_scenario(&path).unwrap();

        let mut sched = Scheduler::new(SchedulerConfig::default());
        let id = sched.submit(&scenario, None).unwrap();
        sched.run_until_idle();
        let served = sched.result(id).expect("job finishes").clone();

        // Local batch-equivalent run with the scenario's own budget rules.
        let ctx = sched.scenario_context();
        let workload = build_workload(&scenario, &ctx).unwrap();
        let mut session = workload
            .start_session(workload.backend(), workload.session_config(1, 0))
            .unwrap();
        while !session.is_finished() {
            session.step();
        }
        let local = session.finalize().unwrap();
        assert_eq!(served.value.to_bits(), local.value.to_bits());
        assert_eq!(served.samples, local.samples);
        // The hard limit actually bit: far fewer queries than the soft
        // budget asked for.
        assert!(served.query_cost <= 70, "{}", served.query_cost);
        // Privately-metered job: the default tenant's shared ledger is
        // untouched.
        let stats = sched.stats();
        let tenant = stats
            .tenants
            .iter()
            .find(|t| t.name == DEFAULT_TENANT)
            .unwrap();
        assert_eq!(tenant.queries_issued, 0);
    }

    #[test]
    fn cancel_keeps_partial_estimate() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let id = sched
            .submit(&count_scenario("cancel", 13, 100_000), None)
            .unwrap();
        // A few ticks, then cancel long before the budget is spent.
        for _ in 0..3 {
            sched.tick();
        }
        assert!(sched.cancel(id));
        let status = sched.poll(id).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert!(status.snapshot.samples > 0, "partial samples survive");
        assert!(sched.result(id).is_some(), "anytime estimate is readable");
        // Cancelled jobs leave the run queue and cannot be cancelled twice.
        assert!(!sched.has_runnable_jobs());
        assert!(!sched.cancel(id));
    }

    #[test]
    fn least_attained_service_finishes_a_late_small_job_first() {
        let small = count_scenario("las-small", 41, 150);
        let mut solo = Scheduler::new(SchedulerConfig::default());
        solo.submit(&small, None).unwrap();
        let small_ticks = solo.run_until_idle();
        assert!(small_ticks >= 2, "the small job should need several ticks");

        // The heavy job runs alone until it has as many ticks as the small
        // job needs in total; then the small job arrives.
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let heavy = sched
            .submit(&count_scenario("las-heavy", 43, 100_000), None)
            .unwrap();
        for _ in 0..small_ticks {
            assert_eq!(sched.tick(), Some(heavy));
        }
        let late = sched.submit(&small, None).unwrap();
        for _ in 0..small_ticks {
            assert_eq!(sched.tick(), Some(late), "the job with fewer ticks runs");
        }
        assert_eq!(sched.poll(late).unwrap().state, JobState::Done);
        assert_eq!(sched.poll(heavy).unwrap().ticks, small_ticks);
        assert_eq!(sched.tick(), Some(heavy));
    }

    #[test]
    fn equal_tick_counts_run_in_submission_order() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let ids: Vec<u64> = (0..3)
            .map(|i| {
                sched
                    .submit(&count_scenario(&format!("ties-{i}"), 50 + i, 100_000), None)
                    .unwrap()
            })
            .collect();
        let order: Vec<u64> = (0..6).filter_map(|_| sched.tick()).collect();
        assert_eq!(order, [ids.clone(), ids].concat());
    }

    #[test]
    fn cancel_of_a_checked_out_job_settles_when_it_is_put_back() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let id = sched
            .submit(&count_scenario("lease-cancel", 17, 100_000), None)
            .unwrap();
        sched.tick();
        let before = sched.poll(id).unwrap();
        assert!(before.snapshot.samples > 0);

        let mut lease = sched.take().expect("the job is runnable");
        assert_eq!(lease.id(), id);
        assert!(sched.take().is_none(), "a checked-out job is not runnable");
        assert!(sched.has_runnable_jobs());
        lease.step();

        // While the session is out, polls serve the last snapshot.
        let during = sched.poll(id).unwrap();
        assert_eq!(during.state, JobState::Running);
        assert_eq!(during.ticks, before.ticks);
        assert_eq!(during.snapshot.samples, before.snapshot.samples);
        assert_eq!(during.snapshot.queries, before.snapshot.queries);
        assert_eq!(
            during.snapshot.value.to_bits(),
            before.snapshot.value.to_bits()
        );

        assert!(sched.cancel(id));
        assert!(!sched.cancel(id), "the cancel is already pending");
        assert_eq!(sched.poll(id).unwrap().state, JobState::Running);
        assert!(
            sched.put_back(lease).is_some(),
            "a settled job's session comes back"
        );

        let status = sched.poll(id).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert!(
            status.snapshot.samples > before.snapshot.samples,
            "the round in flight counts"
        );
        let estimate = sched.result(id).expect("anytime estimate is readable");
        assert_eq!(estimate.samples, status.snapshot.samples);
        assert!(!sched.has_runnable_jobs());
        assert!(!sched.cancel(id));
    }

    #[test]
    fn unknown_tenant_is_registered_implicitly_and_duplicates_rejected() {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        sched
            .submit(&count_scenario("implicit", 14, 100), Some("newcomer"))
            .unwrap();
        assert!(sched.register_tenant("newcomer", Some(10)).is_err());
        let stats = sched.stats();
        assert!(stats.tenants.iter().any(|t| t.name == "newcomer"));
    }

    fn cached_scenario(id: &str, seed: u64, budget: u64, backend: &str) -> Scenario {
        let toml = format!(
            "id = \"{id}\"\nseed = {seed}\n\n[dataset]\nmodel = \"uniform\"\nsize = 60\n\n\
             [interface]\nkind = \"lr\"\nk = 5\n\n[backend]\n{backend}\n\n\
             [aggregate]\nkind = \"count\"\n\n\
             [estimator]\nalgorithm = \"lr\"\nbudget = {budget}\n"
        );
        let dir = std::env::temp_dir().join(format!("lbs-server-test-{id}-{seed}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{id}.toml"));
        std::fs::write(&path, toml).unwrap();
        load_scenario(&path).unwrap()
    }

    #[test]
    fn shared_cache_serves_identical_answers_across_tenants() {
        let scenario = cached_scenario("shared-cache", 23, 150, "cache = \"shared\"");
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let a = sched.submit(&scenario, Some("alice")).unwrap();
        sched.run_until_idle();
        // The cold run may already hit (estimators do revisit some query
        // points within one run); what matters is that it pays a miss for
        // every distinct key.
        let cold = sched.shared_cache().stats();
        assert!(cold.misses > 0);

        let b = sched.submit(&scenario, Some("bob")).unwrap();
        sched.run_until_idle();
        let first = sched.result(a).unwrap().clone();
        let second = sched.result(b).unwrap();
        assert_eq!(first.value.to_bits(), second.value.to_bits());
        assert_eq!(first.ci95, second.ci95);
        assert_eq!(first.samples, second.samples);
        assert_eq!(first.query_cost, second.query_cost);

        let warm = sched.shared_cache().stats();
        assert!(
            warm.hits > cold.hits,
            "replay under a second tenant must hit: {cold:?} -> {warm:?}"
        );
        assert_eq!(warm.misses, cold.misses, "replay adds no distinct keys");
        // No mutation ran and the cache is unbounded: nothing was dropped.
        assert_eq!(warm.invalidations, 0);
        assert_eq!(warm.evictions, 0);
        // Metered hits: both tenants' ledgers record the same spend even
        // though bob's queries never touched the dataset.
        let stats = sched.stats();
        let spend = |name: &str| {
            stats
                .tenants
                .iter()
                .find(|t| t.name == name)
                .unwrap()
                .queries_issued
        };
        assert_eq!(spend("alice"), spend("bob"));
        assert_eq!(stats.shared_cache.hits, warm.hits);
    }

    #[test]
    fn private_caches_never_cross_tenants() {
        let scenario = cached_scenario("private-cache", 29, 120, "cache = \"private\"");
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let a1 = sched.submit(&scenario, Some("alice")).unwrap();
        sched.run_until_idle();
        let alice_cold = sched.tenant_cache_stats("alice").unwrap();
        let a2 = sched.submit(&scenario, Some("alice")).unwrap();
        sched.run_until_idle();
        let alice_warm = sched.tenant_cache_stats("alice").unwrap();
        assert!(
            alice_warm.hits > alice_cold.hits,
            "same-tenant replay is warm: {alice_cold:?} -> {alice_warm:?}"
        );
        assert_eq!(alice_warm.misses, alice_cold.misses);

        let b = sched.submit(&scenario, Some("bob")).unwrap();
        sched.run_until_idle();
        // Bob's cache starts cold: identical workload, so his counters match
        // Alice's first (cold) run exactly — no cross-tenant warmth.
        let bob = sched.tenant_cache_stats("bob").unwrap();
        assert_eq!(
            bob, alice_cold,
            "a private cache must not leak across tenants"
        );
        assert_eq!(sched.shared_cache().stats().misses, 0);

        // Isolation never costs correctness: all three runs agree bitwise.
        let bits: Vec<u64> = [a1, a2, b]
            .iter()
            .map(|&id| sched.result(id).unwrap().value.to_bits())
            .collect();
        assert_eq!(bits[0], bits[1]);
        assert_eq!(bits[0], bits[2]);
    }

    #[test]
    fn shared_unmetered_submissions_are_refused_by_name() {
        let scenario = cached_scenario(
            "shared-unmetered",
            31,
            100,
            "cache = \"shared\"\ncache_hits_metered = false",
        );
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let err = sched.submit(&scenario, None).unwrap_err();
        assert!(err.contains("arrival order"), "{err}");
        // The private flavour of the same spec is fine.
        let private = cached_scenario(
            "private-unmetered",
            31,
            100,
            "cache = \"private\"\ncache_hits_metered = false",
        );
        sched.submit(&private, None).unwrap();
        sched.run_until_idle();
    }

    #[test]
    fn builtin_scenarios_are_rejected() {
        let dir = std::env::temp_dir().join("lbs-server-test-builtin");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("builtin.toml");
        std::fs::write(&path, "id = \"builtin\"\nexperiment = \"fig11\"\n").unwrap();
        let scenario = load_scenario(&path).unwrap();
        let mut sched = Scheduler::new(SchedulerConfig::default());
        assert!(sched.submit(&scenario, None).is_err());
    }
}
