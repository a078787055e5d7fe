//! The bounded job-submission queue in front of the scheduler.
//!
//! **This queue is the determinism boundary.** The event loop parses
//! requests in whatever order sockets become readable, but every accepted
//! `POST /jobs` passes through here, and a *single* worker thread drains
//! the queue front-to-back into [`Scheduler::admit`] and
//! [`Scheduler::insert`]. Admission order — the order of successful
//! `try_enqueue` calls — is therefore the only order the scheduler ever
//! observes; socket readiness order is invisible to it.
//!
//! The queue is bounded: when `len == capacity` new submissions are
//! rejected and the caller replies `429 Too Many Requests` with
//! `Retry-After`. That is the server's explicit backpressure signal —
//! nothing ever blocks the event loop, and nothing is silently dropped.
//!
//! [`Scheduler::admit`]: crate::scheduler::Scheduler::admit
//! [`Scheduler::insert`]: crate::scheduler::Scheduler::insert

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lbs_bench::Scenario;

/// One admitted-but-not-yet-built submission.
pub(crate) struct PendingSubmission {
    /// Ticket handed back to the event loop; completions are keyed on it.
    pub ticket: u64,
    /// Tenant the job was submitted under (`None` = default tenant).
    pub tenant: Option<String>,
    /// The declarative scenario to build and submit.
    pub scenario: Scenario,
}

struct QueueInner {
    pending: VecDeque<PendingSubmission>,
    next_ticket: u64,
    high_water: usize,
    paused: bool,
    closed: bool,
}

/// Bounded, explicitly backpressured admission queue (see module docs).
///
/// Constructed by the server; exposed through
/// [`Server::admission_queue`](crate::Server::admission_queue) so tests and
/// operators can pause the drain worker (to provoke saturation
/// deterministically) and read depth / high-water marks.
///
/// ```
/// use lbs_server::SubmissionQueue;
///
/// let queue = SubmissionQueue::new(2);
/// assert_eq!(queue.capacity(), 2);
/// assert_eq!(queue.len(), 0);
/// // `pause` stops the drain worker after its current job; `resume`
/// // restarts it. While paused the queue still admits up to `capacity`
/// // jobs, then rejects with 429 — which is how the saturation tests
/// // provoke deterministic backpressure.
/// queue.pause();
/// queue.resume();
/// ```
pub struct SubmissionQueue {
    capacity: usize,
    inner: Mutex<QueueInner>,
    ready: Condvar,
    completions: Mutex<BTreeMap<u64, Result<u64, String>>>,
}

impl SubmissionQueue {
    /// A queue admitting at most `capacity` (≥ 1) undrained submissions.
    pub fn new(capacity: usize) -> Arc<SubmissionQueue> {
        Arc::new(SubmissionQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                next_ticket: 1,
                high_water: 0,
                paused: false,
                closed: false,
            }),
            ready: Condvar::new(),
            completions: Mutex::new(BTreeMap::new()),
        })
    }

    /// Admits a submission, returning its completion ticket — or `Err(())`
    /// when the queue is full (or draining), in which case the caller owes
    /// the client a `429` / `503`.
    pub(crate) fn try_enqueue(
        &self,
        tenant: Option<String>,
        scenario: Scenario,
    ) -> Result<u64, ()> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed || inner.pending.len() >= self.capacity {
            return Err(());
        }
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.pending.push_back(PendingSubmission {
            ticket,
            tenant,
            scenario,
        });
        inner.high_water = inner.high_water.max(inner.pending.len());
        drop(inner);
        self.ready.notify_one();
        Ok(ticket)
    }

    /// Blocks until a submission is available (respecting `pause`) or the
    /// queue is closed *and* empty — the worker's exit condition.
    pub(crate) fn pop_blocking(&self) -> Option<PendingSubmission> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            // A closed queue still drains: every admitted job was promised
            // a completion, so `closed` only stops *new* tickets.
            if !inner.paused || inner.closed {
                if let Some(job) = inner.pending.pop_front() {
                    return Some(job);
                }
                if inner.closed {
                    return None;
                }
            }
            let (guard, _) = self
                .ready
                .wait_timeout(inner, Duration::from_millis(500))
                .expect("queue lock");
            inner = guard;
        }
    }

    /// Records the outcome of a drained submission (job id or error).
    pub(crate) fn complete(&self, ticket: u64, result: Result<u64, String>) {
        self.completions
            .lock()
            .expect("completions lock")
            .insert(ticket, result);
    }

    /// Takes the completion for `ticket`, if the worker has produced one.
    pub(crate) fn take_completion(&self, ticket: u64) -> Option<Result<u64, String>> {
        self.completions
            .lock()
            .expect("completions lock")
            .remove(&ticket)
    }

    /// Stops the drain worker after its current job. Admission continues
    /// until the queue fills; then clients see deterministic `429`s.
    pub fn pause(&self) {
        self.inner.lock().expect("queue lock").paused = true;
    }

    /// Restarts the drain worker.
    pub fn resume(&self) {
        self.inner.lock().expect("queue lock").paused = false;
        self.ready.notify_all();
    }

    /// Refuses all further admissions; the worker drains what was already
    /// admitted and exits. Called when the server starts its shutdown drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Current queue depth (admitted, not yet drained by the worker).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").pending.len()
    }

    /// `true` when no submissions are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Deepest the queue has ever been — `high_water == capacity` is the
    /// witness that observed `429`s were genuine saturation.
    pub fn high_water(&self) -> usize {
        self.inner.lock().expect("queue lock").high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn scenario(i: usize) -> Scenario {
        let toml = format!(
            "id = \"q_{i}\"\nseed = {}\n\n[dataset]\nmodel = \"uniform\"\nsize = 40\n\n\
             [interface]\nkind = \"lr\"\nk = 5\n\n[aggregate]\nkind = \"count\"\n\n\
             [estimator]\nalgorithm = \"lr\"\nbudget = 60\n",
            100 + i
        );
        let value = lbs_bench::toml_lite::parse(&toml).expect("well-formed");
        Scenario::from_value(&value).expect("deserializes")
    }

    #[test]
    fn bounded_admission_and_fifo_drain() {
        let queue = SubmissionQueue::new(2);
        let t1 = queue.try_enqueue(None, scenario(1)).expect("admits");
        let t2 = queue
            .try_enqueue(Some("a".into()), scenario(2))
            .expect("admits");
        assert!(t2 > t1, "tickets are monotone");
        assert!(
            queue.try_enqueue(None, scenario(3)).is_err(),
            "full rejects"
        );
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.high_water(), 2);

        let first = queue.pop_blocking().expect("drains");
        assert_eq!(first.ticket, t1, "FIFO: admission order is drain order");
        queue.complete(first.ticket, Ok(7));
        assert_eq!(queue.take_completion(t1), Some(Ok(7)));
        assert_eq!(
            queue.take_completion(t1),
            None,
            "completions are taken once"
        );

        queue.close();
        assert!(
            queue.try_enqueue(None, scenario(4)).is_err(),
            "closed rejects"
        );
        assert_eq!(queue.pop_blocking().expect("drains the rest").ticket, t2);
        assert!(
            queue.pop_blocking().is_none(),
            "closed + empty ends the worker"
        );
    }

    #[test]
    fn pause_stalls_the_worker_but_not_admission() {
        let queue = SubmissionQueue::new(4);
        queue.pause();
        queue
            .try_enqueue(None, scenario(1))
            .expect("admits while paused");
        let q = Arc::clone(&queue);
        let worker = std::thread::spawn(move || q.pop_blocking().map(|j| j.ticket));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(queue.len(), 1, "paused worker drained the queue");
        queue.resume();
        assert_eq!(worker.join().expect("worker"), Some(1));
    }
}
