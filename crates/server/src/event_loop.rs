//! The non-blocking, event-driven server core.
//!
//! One **event-loop thread** multiplexes every connection over the vendored
//! [`polling`] readiness shim (`poll(2)` under the hood): non-blocking
//! accepts, per-connection read/write buffers with an incremental HTTP/1.1
//! parse state machine ([`crate::http`]), keep-alive, idle timeouts, and
//! explicit backpressure. Two helper threads complete the core:
//!
//! * the **ticker** runs scheduler ticks continuously, holding the
//!   scheduler lock only to check the next job's session out
//!   ([`Scheduler::take`]) and to put it back ([`Scheduler::put_back`]).
//!   The chunk round in between runs unlocked, so polls, cancels, stats
//!   and submissions wait at most for a map update, not for a job's
//!   samples; and
//! * the **submission worker** drains the bounded
//!   [`SubmissionQueue`] front-to-back — build the workload, backend and
//!   session *outside* the scheduler lock, take the lock only to admit
//!   (resolve the tenant's budget and cache) and to insert the finished
//!   job, post the completion, wake the loop.
//!
//! ## The determinism contract
//!
//! **Admission order is the schedule; readiness order is not.** The event
//! loop may parse sockets in any order the OS reports them, but a job only
//! exists once `try_enqueue` admits it, and a single worker feeds admitted
//! jobs to the scheduler strictly FIFO. Whatever the interleaving of
//! clients, the scheduler observes one serial submission stream — so served
//! estimates stay bitwise equal to a batch run of the same scenarios
//! (`repro client --check-batch` asserts exactly this).
//!
//! ## Backpressure, not blocking
//!
//! | condition | reply |
//! |---|---|
//! | submission queue full | `429 Too Many Requests`, `Retry-After: 1` |
//! | tenant quota exhausted | `429 Too Many Requests`, `Retry-After: 60` |
//! | body larger than [`ServerConfig::max_body_bytes`] | `413 Payload Too Large` |
//! | header/body stalled past [`ServerConfig::header_timeout`] | `408 Request Timeout` |
//! | idle keep-alive past [`ServerConfig::keep_alive_timeout`] | silent close |
//! | `POST /shutdown` | graceful drain (stop accepting, finish queued work, flush, exit) |

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lbs_bench::Scenario;
use polling::{Event, Events, Poller};
use serde::{Deserialize, Serialize, Value};

use crate::http::{find_head_end, json_of, RequestHead, Response};
use crate::queue::SubmissionQueue;
use crate::scheduler::{JobState, Scheduler};

/// Poller key reserved for the listener; connections count up from 1.
const LISTENER_KEY: usize = 0;
/// Longest honoured `wait_ms` long-poll.
const MAX_WAIT_MS: u64 = 120_000;

/// The one ambient-clock read of the event loop. Wall time only decides
/// *when* the server replies (timeouts, drain deadlines) — never what any
/// reply contains, so determinism of served results is untouched.
fn now() -> Instant {
    // lbs-lint: allow(ambient-time, reason = "connection timeouts and drain deadlines decide when to reply, never what the reply contains")
    Instant::now()
}

/// Tuning knobs of the event-driven server core (see `SERVING.md` for the
/// operational guidance behind each default).
///
/// ```
/// use std::time::Duration;
/// use lbs_server::ServerConfig;
///
/// let config = ServerConfig {
///     queue_depth: 8,
///     keep_alive_timeout: Duration::from_secs(5),
///     ..ServerConfig::default()
/// };
/// assert_eq!(config.queue_depth, 8);
/// assert_eq!(config.max_connections, 256);
/// ```
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bound of the job-submission queue; beyond it `POST /jobs` replies
    /// `429` with `Retry-After: 1`.
    pub queue_depth: usize,
    /// Most connections held open at once; the listener pauses (stops
    /// accepting) at the cap and resumes as connections close.
    pub max_connections: usize,
    /// Idle keep-alive connections are closed after this long.
    pub keep_alive_timeout: Duration,
    /// A connection that started a request but stalls mid-header or
    /// mid-body is answered `408 Request Timeout` after this long.
    pub header_timeout: Duration,
    /// Largest accepted header block (`400` beyond it).
    pub max_header_bytes: usize,
    /// Largest accepted request body (`413` beyond it).
    pub max_body_bytes: usize,
    /// On shutdown, how long the drain may take before remaining
    /// connections are dropped.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 64,
            max_connections: 256,
            keep_alive_timeout: Duration::from_secs(30),
            header_timeout: Duration::from_secs(10),
            max_header_bytes: 64 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Shared state of a running server.
pub struct ServerState {
    /// The scheduler behind the API (public so embedders, tests and
    /// benchmarks can drive it directly).
    pub scheduler: Mutex<Scheduler>,
    shutdown: AtomicBool,
    /// Wakes the event loop when shutdown is requested off-loop.
    waker: Mutex<Option<Arc<Poller>>>,
}

impl ServerState {
    /// Wraps a scheduler for serving.
    pub fn new(scheduler: Scheduler) -> Arc<Self> {
        Arc::new(ServerState {
            scheduler: Mutex::new(scheduler),
            shutdown: AtomicBool::new(false),
            waker: Mutex::new(None),
        })
    }

    /// Signals the server to drain and exit (same as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(poller) = self.waker.lock().expect("waker lock").as_ref() {
            let _ = poller.notify();
        }
    }

    /// `true` once shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn attach_waker(&self, poller: Arc<Poller>) {
        *self.waker.lock().expect("waker lock") = Some(poller);
    }
}

/// Wire-level counters of a running server (monotone; never reset).
#[derive(Default)]
struct HttpCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    queue_429: AtomicU64,
    quota_429: AtomicU64,
    payload_413: AtomicU64,
    timeout_408: AtomicU64,
}

/// Snapshot of the server's wire-level counters plus admission-queue gauges,
/// served under the `http` key of `GET /stats`.
#[derive(Clone, Debug, Serialize)]
pub struct HttpStats {
    /// TCP connections accepted so far.
    pub connections: u64,
    /// Requests fully parsed.
    pub requests: u64,
    /// Responses written (includes error replies).
    pub responses: u64,
    /// `429`s from a full submission queue.
    pub queue_429: u64,
    /// `429`s from an exhausted tenant quota.
    pub quota_429: u64,
    /// `413 Payload Too Large` replies.
    pub payload_413: u64,
    /// `408 Request Timeout` replies.
    pub timeout_408: u64,
    /// Submissions admitted but not yet drained by the worker.
    pub queue_depth: usize,
    /// The admission bound ([`ServerConfig::queue_depth`]).
    pub queue_capacity: usize,
    /// Deepest the queue has ever been.
    pub queue_high_water: usize,
}

fn snapshot_http_stats(counters: &HttpCounters, queue: &SubmissionQueue) -> HttpStats {
    HttpStats {
        connections: counters.connections.load(Ordering::Relaxed),
        requests: counters.requests.load(Ordering::Relaxed),
        responses: counters.responses.load(Ordering::Relaxed),
        queue_429: counters.queue_429.load(Ordering::Relaxed),
        quota_429: counters.quota_429.load(Ordering::Relaxed),
        payload_413: counters.payload_413.load(Ordering::Relaxed),
        timeout_408: counters.timeout_408.load(Ordering::Relaxed),
        queue_depth: queue.len(),
        queue_capacity: queue.capacity(),
        queue_high_water: queue.high_water(),
    }
}

/// A running HTTP server: event-loop thread (all socket I/O), ticker thread
/// (drives the scheduler), and submission-worker thread (drains the
/// admission queue). See the module docs for the full architecture.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    queue: Arc<SubmissionQueue>,
    counters: Arc<HttpCounters>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving with [`ServerConfig::default`].
    pub fn start(addr: &str, state: Arc<ServerState>) -> std::io::Result<Server> {
        Server::start_with_config(addr, state, ServerConfig::default())
    }

    /// Binds `addr` and starts serving with explicit tuning knobs.
    pub fn start_with_config(
        addr: &str,
        state: Arc<ServerState>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let poller = Arc::new(Poller::new()?);
        let queue = SubmissionQueue::new(config.queue_depth);
        let counters = Arc::new(HttpCounters::default());
        state.attach_waker(Arc::clone(&poller));

        let ticker_state = Arc::clone(&state);
        let ticker = std::thread::spawn(move || {
            while !ticker_state.shutting_down() {
                if !tick_unlocked(&ticker_state.scheduler) {
                    // Idle: nothing runnable. Sleep briefly instead of
                    // spinning on the lock.
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        });

        let worker_state = Arc::clone(&state);
        let worker_queue = Arc::clone(&queue);
        let worker_poller = Arc::clone(&poller);
        let worker = std::thread::spawn(move || {
            submission_worker(worker_state, worker_queue, worker_poller);
        });

        let loop_state = Arc::clone(&state);
        let loop_queue = Arc::clone(&queue);
        let loop_counters = Arc::clone(&counters);
        let event_loop = std::thread::spawn(move || {
            let mut event_loop = EventLoop {
                listener,
                poller,
                state: Arc::clone(&loop_state),
                queue: Arc::clone(&loop_queue),
                counters: loop_counters,
                config,
                conns: BTreeMap::new(),
                next_key: LISTENER_KEY + 1,
                draining: false,
                drain_deadline: None,
                orphans: Vec::new(),
            };
            let _ = event_loop.run();
            // Whether the loop drained cleanly or died on a poller error,
            // the other threads must not outlive it.
            loop_state.request_shutdown();
            loop_queue.close();
        });

        Ok(Server {
            state,
            addr: local,
            queue,
            counters,
            threads: vec![ticker, worker, event_loop],
        })
    }

    /// The bound address (useful with an ephemeral `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state handle.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// The bounded admission queue — exposed so tests and operators can
    /// [`pause`](SubmissionQueue::pause) the drain worker (deterministic
    /// saturation) and read depth / high-water gauges.
    pub fn admission_queue(&self) -> Arc<SubmissionQueue> {
        Arc::clone(&self.queue)
    }

    /// Snapshot of the wire-level counters (also served under `http` in
    /// `GET /stats`).
    pub fn http_stats(&self) -> HttpStats {
        snapshot_http_stats(&self.counters, &self.queue)
    }

    /// Blocks until the server shuts down (via `POST /shutdown` or
    /// [`ServerState::request_shutdown`]).
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// One scheduler tick with the lock held only to check the next session out
/// and to put it back: the chunk round itself runs unlocked. Returns `false`
/// when no job is runnable.
fn tick_unlocked(scheduler: &Mutex<Scheduler>) -> bool {
    let Some(mut lease) = scheduler.lock().expect("scheduler lock").take() else {
        return false;
    };
    lease.step();
    let settled = scheduler.lock().expect("scheduler lock").put_back(lease);
    // A settled job's session (dataset, backend, history) is freed here,
    // after the lock is released.
    drop(settled);
    true
}

/// Drains the admission queue into the scheduler, strictly FIFO. The
/// expensive work — the workload (dataset, ground truth), the service and
/// its index, the session — happens here *outside* the scheduler lock, so
/// running jobs keep ticking and requests keep being answered while a large
/// submission materialises; the lock is taken only to admit the job and to
/// insert it. One worker and one queue keep the serial admission order.
fn submission_worker(state: Arc<ServerState>, queue: Arc<SubmissionQueue>, poller: Arc<Poller>) {
    while let Some(job) = queue.pop_blocking() {
        let ctx = state
            .scheduler
            .lock()
            .expect("scheduler lock")
            .scenario_context();
        let result = lbs_bench::build_workload(&job.scenario, &ctx).and_then(|workload| {
            let admission = state
                .scheduler
                .lock()
                .expect("scheduler lock")
                .admit(&workload, job.tenant.as_deref())?;
            let built = admission.build(&workload)?;
            Ok(state
                .scheduler
                .lock()
                .expect("scheduler lock")
                .insert(built))
        });
        queue.complete(job.ticket, result);
        let _ = poller.notify();
    }
}

/// Lifecycle phase of one connection (the per-connection state machine).
enum Phase {
    /// Reading and parsing the next request (head, then body).
    Read,
    /// Request admitted to the queue; waiting for the worker's completion.
    AwaitSubmit {
        /// Completion ticket from [`SubmissionQueue::try_enqueue`].
        ticket: u64,
    },
    /// Long-polling a job result until it settles or the deadline passes.
    AwaitResult {
        /// Job id being polled.
        job: u64,
        /// When to give up and reply `202 {"pending":true}`.
        deadline: Instant,
    },
    /// Flushing the rendered response from the write buffer.
    Write,
}

/// One live connection: socket, buffers, and parse/lifecycle state.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed (may hold pipelined requests).
    buf: Vec<u8>,
    /// Parsed head of the in-progress request, with its byte length, while
    /// the body is still arriving.
    head: Option<(RequestHead, usize)>,
    phase: Phase,
    /// Rendered response bytes not yet fully written.
    out: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    close_after_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            head: None,
            phase: Phase::Read,
            out: Vec::new(),
            out_pos: 0,
            last_activity: now(),
            close_after_write: false,
        }
    }
}

enum ParseOutcome {
    /// A full request was consumed and dispatched (phase changed).
    Dispatched,
    /// More bytes are needed.
    NeedMore,
}

enum Flush {
    Done,
    Pending,
    Failed,
}

enum ResultPoll {
    NoSuchJob,
    Pending,
    Ready(String),
}

struct EventLoop {
    listener: TcpListener,
    poller: Arc<Poller>,
    state: Arc<ServerState>,
    queue: Arc<SubmissionQueue>,
    counters: Arc<HttpCounters>,
    config: ServerConfig,
    conns: BTreeMap<usize, Conn>,
    next_key: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// Tickets whose connection died before the completion arrived. The
    /// job is still admitted (admission is a promise to the scheduler, not
    /// to the socket); only the reply is discarded.
    orphans: Vec<u64>,
}

impl EventLoop {
    fn run(&mut self) -> std::io::Result<()> {
        self.poller
            .add(&self.listener, Event::readable(LISTENER_KEY))?;
        let mut events = Events::new();
        loop {
            let timeout = self.wait_timeout();
            self.poller.wait(&mut events, Some(timeout))?;

            if !self.draining && self.state.shutting_down() {
                self.begin_drain();
            }

            let mut accept_ready = false;
            let mut readable: Vec<usize> = Vec::new();
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    accept_ready = true;
                } else if event.readable {
                    readable.push(event.key);
                }
                // Write readiness needs no special handling: `step` retries
                // the flush of every `Phase::Write` connection each pass.
            }
            if accept_ready && !self.draining {
                self.accept_ready();
            }
            for key in readable {
                if !self.read_ready(key) {
                    self.close_conn(key);
                }
            }

            // Protocol stepping is cheap (no blocking syscalls), so every
            // connection advances every pass: deadlines fire, completions
            // and settled long-polls get their replies, writes flush.
            let keys: Vec<usize> = self.conns.keys().copied().collect();
            for key in keys {
                self.step(key);
            }
            self.orphans
                .retain(|&ticket| self.queue.take_completion(ticket).is_none());

            if self.draining {
                let expired = self.drain_deadline.is_some_and(|d| now() >= d);
                if self.conns.is_empty() || expired {
                    return Ok(());
                }
            }
            self.rearm();
        }
    }

    /// How long the next `wait` may block: short while anything is parked
    /// on a completion/result or a drain is running, long when idle.
    fn wait_timeout(&self) -> Duration {
        if self.draining {
            return Duration::from_millis(10);
        }
        let mut timeout = Duration::from_millis(250);
        for conn in self.conns.values() {
            let t = match conn.phase {
                Phase::AwaitSubmit { .. } | Phase::AwaitResult { .. } => Duration::from_millis(10),
                Phase::Read | Phase::Write => Duration::from_millis(50),
            };
            timeout = timeout.min(t);
        }
        timeout
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(now() + self.config.drain_timeout);
        // No new jobs; the worker drains what was admitted and exits.
        self.queue.close();
        // Stop accepting; in-flight connections finish their exchange.
        let _ = self.poller.delete(&self.listener);
        for conn in self.conns.values_mut() {
            conn.close_after_write = true;
        }
    }

    fn accept_ready(&mut self) {
        while self.conns.len() < self.config.max_connections {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.next_key;
                    self.next_key += 1;
                    if self.poller.add(&stream, Event::none(key)).is_err() {
                        continue;
                    }
                    self.counters.connections.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(key, Conn::new(stream));
                }
                // WouldBlock: drained the backlog. Anything else
                // (ECONNABORTED, EINTR, fd pressure) is transient — the
                // listener stays registered and the next pass retries.
                Err(_) => break,
            }
        }
    }

    /// Pulls everything the socket has into the connection buffer.
    /// Returns `false` when the connection is dead.
    fn read_ready(&mut self, key: usize) -> bool {
        let Some(conn) = self.conns.get_mut(&key) else {
            return true;
        };
        let mut scratch = [0u8; 8192];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = now();
                    // A client may pipeline ahead, but not without bound.
                    if conn.buf.len()
                        > self.config.max_header_bytes + self.config.max_body_bytes + 8192
                    {
                        return false;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    fn close_conn(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(&key) {
            let _ = self.poller.delete(&conn.stream);
            if let Phase::AwaitSubmit { ticket } = conn.phase {
                self.orphans.push(ticket);
            }
        }
    }

    /// Runs one connection's state machine until it blocks (needs bytes, a
    /// completion, a settled job, or socket writability) or dies.
    fn step(&mut self, key: usize) {
        let Some(mut conn) = self.conns.remove(&key) else {
            return;
        };
        if self.drive(&mut conn) {
            self.conns.insert(key, conn);
        } else {
            let _ = self.poller.delete(&conn.stream);
            if let Phase::AwaitSubmit { ticket } = conn.phase {
                self.orphans.push(ticket);
            }
        }
    }

    fn drive(&mut self, conn: &mut Conn) -> bool {
        loop {
            match conn.phase {
                Phase::Read => match self.advance_parse(conn) {
                    ParseOutcome::Dispatched => continue,
                    ParseOutcome::NeedMore => {
                        let idle = now().saturating_duration_since(conn.last_activity);
                        if !conn.buf.is_empty() || conn.head.is_some() {
                            // Mid-request stall: the client owes us bytes.
                            if idle >= self.config.header_timeout {
                                self.counters.timeout_408.fetch_add(1, Ordering::Relaxed);
                                self.respond(
                                    conn,
                                    Response::error(
                                        408,
                                        "Request Timeout",
                                        "timed out reading the request",
                                    ),
                                    true,
                                );
                                continue;
                            }
                        } else {
                            // Between requests: close idle keep-alives
                            // silently, immediately so while draining.
                            if self.draining || idle >= self.config.keep_alive_timeout {
                                return false;
                            }
                        }
                        return true;
                    }
                },
                Phase::AwaitSubmit { ticket } => match self.queue.take_completion(ticket) {
                    Some(Ok(id)) => {
                        let reply = Value::Map(vec![("job_id".to_string(), Value::U64(id))]);
                        self.respond(conn, Response::json(201, "Created", json_of(&reply)), false);
                        continue;
                    }
                    Some(Err(e)) => {
                        self.respond(conn, Response::error(400, "Bad Request", &e), false);
                        continue;
                    }
                    None => return true,
                },
                Phase::AwaitResult { job, deadline } => match self.poll_result(job) {
                    ResultPoll::Ready(body) => {
                        self.respond(conn, Response::json(200, "OK", body), false);
                        continue;
                    }
                    ResultPoll::NoSuchJob => {
                        self.respond(
                            conn,
                            Response::error(404, "Not Found", "no such job"),
                            false,
                        );
                        continue;
                    }
                    // Give up on the deadline — or immediately on drain, so
                    // an in-flight long-poll cannot stall the shutdown.
                    ResultPoll::Pending if now() >= deadline || self.draining => {
                        self.respond(
                            conn,
                            Response::json(202, "Accepted", r#"{"pending":true}"#),
                            false,
                        );
                        continue;
                    }
                    ResultPoll::Pending => return true,
                },
                Phase::Write => match flush(conn) {
                    Flush::Done => {
                        if conn.close_after_write {
                            return false;
                        }
                        // Back to reading — the buffer may already hold the
                        // next pipelined request.
                        conn.phase = Phase::Read;
                        continue;
                    }
                    Flush::Pending => return true,
                    Flush::Failed => return false,
                },
            }
        }
    }

    /// Advances the incremental parse; dispatches at most one request.
    fn advance_parse(&mut self, conn: &mut Conn) -> ParseOutcome {
        if conn.head.is_none() {
            let Some(head_len) = find_head_end(&conn.buf) else {
                if conn.buf.len() > self.config.max_header_bytes {
                    self.respond(
                        conn,
                        Response::error(400, "Bad Request", "header block too large"),
                        true,
                    );
                    return ParseOutcome::Dispatched;
                }
                return ParseOutcome::NeedMore;
            };
            match RequestHead::parse(&conn.buf[..head_len]) {
                Ok(head) => {
                    if head.content_length > self.config.max_body_bytes {
                        self.counters.payload_413.fetch_add(1, Ordering::Relaxed);
                        self.respond(
                            conn,
                            Response::error(
                                413,
                                "Payload Too Large",
                                "request body exceeds the configured limit",
                            ),
                            true,
                        );
                        return ParseOutcome::Dispatched;
                    }
                    conn.head = Some((head, head_len));
                }
                Err(e) => {
                    self.respond(conn, Response::from(e), true);
                    return ParseOutcome::Dispatched;
                }
            }
        }

        let (head, head_len) = conn.head.as_ref().expect("head parsed above");
        let total = head_len + head.content_length;
        if conn.buf.len() < total {
            return ParseOutcome::NeedMore;
        }
        let (head, head_len) = conn.head.take().expect("head parsed above");
        let body_bytes = conn.buf[head_len..total].to_vec();
        conn.buf.drain(..total);
        conn.last_activity = now();
        let body = match String::from_utf8(body_bytes) {
            Ok(body) => body,
            Err(_) => {
                self.respond(
                    conn,
                    Response::error(400, "Bad Request", "body is not UTF-8"),
                    true,
                );
                return ParseOutcome::Dispatched;
            }
        };
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if !head.keep_alive {
            conn.close_after_write = true;
        }
        self.dispatch(conn, head, body);
        ParseOutcome::Dispatched
    }

    /// Routes one fully-parsed request: answers immediately or parks the
    /// connection (`AwaitSubmit` / `AwaitResult`).
    fn dispatch(&mut self, conn: &mut Conn, head: RequestHead, body: String) {
        let segments: Vec<&str> = head.path.split('/').filter(|s| !s.is_empty()).collect();
        match (head.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => {
                self.respond(conn, Response::json(200, "OK", r#"{"ok":true}"#), false);
            }
            ("GET", ["stats"]) => {
                let body = self.stats_body();
                self.respond(conn, Response::json(200, "OK", body), false);
            }
            ("POST", ["shutdown"]) => {
                // Reply first, then raise the flag: the drain beginning next
                // pass flushes this response before the close.
                self.respond(conn, Response::json(200, "OK", r#"{"ok":true}"#), true);
                self.state.request_shutdown();
            }
            ("POST", ["jobs"]) => self.dispatch_submit(conn, &body),
            ("GET", ["jobs", id]) => match id.parse::<u64>() {
                Ok(id) => {
                    let status = self
                        .state
                        .scheduler
                        .lock()
                        .expect("scheduler lock")
                        .poll(id);
                    match status {
                        Some(status) => {
                            self.respond(conn, Response::json(200, "OK", json_of(&status)), false);
                        }
                        None => self.respond(
                            conn,
                            Response::error(404, "Not Found", "no such job"),
                            false,
                        ),
                    }
                }
                Err(_) => {
                    self.respond(
                        conn,
                        Response::error(400, "Bad Request", "bad job id"),
                        false,
                    );
                }
            },
            ("GET", ["jobs", id, "result"]) => match id.parse::<u64>() {
                Ok(id) => {
                    let wait_ms = head.query_u64("wait_ms").unwrap_or(0).min(MAX_WAIT_MS);
                    // Park; `drive` polls immediately, so settled jobs and
                    // `wait_ms=0` answer without a extra pass.
                    conn.phase = Phase::AwaitResult {
                        job: id,
                        deadline: now() + Duration::from_millis(wait_ms),
                    };
                }
                Err(_) => {
                    self.respond(
                        conn,
                        Response::error(400, "Bad Request", "bad job id"),
                        false,
                    );
                }
            },
            ("DELETE", ["jobs", id]) => match id.parse::<u64>() {
                Ok(id) => {
                    let cancelled = self
                        .state
                        .scheduler
                        .lock()
                        .expect("scheduler lock")
                        .cancel(id);
                    let reply = Value::Map(vec![("cancelled".to_string(), Value::Bool(cancelled))]);
                    self.respond(conn, Response::json(200, "OK", json_of(&reply)), false);
                }
                Err(_) => {
                    self.respond(
                        conn,
                        Response::error(400, "Bad Request", "bad job id"),
                        false,
                    );
                }
            },
            _ => {
                self.respond(
                    conn,
                    Response::error(404, "Not Found", "no such route"),
                    false,
                );
            }
        }
    }

    /// `POST /jobs`: validate, check the tenant quota, admit to the bounded
    /// queue — or push back with `429` + `Retry-After`.
    fn dispatch_submit(&mut self, conn: &mut Conn, body: &str) {
        if self.draining {
            self.respond(
                conn,
                Response::error(503, "Service Unavailable", "server is shutting down"),
                true,
            );
            return;
        }
        let (tenant, scenario) = match parse_submission(body) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.respond(conn, Response::error(400, "Bad Request", &e), false);
                return;
            }
        };
        let saturated = self
            .state
            .scheduler
            .lock()
            .expect("scheduler lock")
            .tenant_quota_saturated(tenant.as_deref().unwrap_or(""));
        if saturated {
            self.counters.quota_429.fetch_add(1, Ordering::Relaxed);
            let mut reply = Response::error(429, "Too Many Requests", "tenant quota exhausted");
            // A spent quota does not refill on its own; hint a long back-off.
            reply.retry_after_s = Some(60);
            self.respond(conn, reply, false);
            return;
        }
        match self.queue.try_enqueue(tenant, scenario) {
            Ok(ticket) => {
                conn.phase = Phase::AwaitSubmit { ticket };
            }
            Err(()) => {
                self.counters.queue_429.fetch_add(1, Ordering::Relaxed);
                let mut reply =
                    Response::error(429, "Too Many Requests", "submission queue is full");
                reply.retry_after_s = Some(1);
                self.respond(conn, reply, false);
            }
        }
    }

    /// Renders `response` into the connection's write buffer and switches
    /// it to `Phase::Write`. `close` forces `Connection: close`.
    fn respond(&self, conn: &mut Conn, response: Response, close: bool) {
        if close || self.draining {
            conn.close_after_write = true;
        }
        conn.out
            .extend_from_slice(&response.render(!conn.close_after_write));
        self.counters.responses.fetch_add(1, Ordering::Relaxed);
        conn.phase = Phase::Write;
    }

    fn poll_result(&self, id: u64) -> ResultPoll {
        let scheduler = self.state.scheduler.lock().expect("scheduler lock");
        match scheduler.poll(id) {
            None => ResultPoll::NoSuchJob,
            Some(status) if status.state != JobState::Running => {
                let mut fields = vec![
                    ("status".to_string(), status.state.to_value()),
                    ("scenario_id".to_string(), Value::Str(status.scenario_id)),
                    ("tenant".to_string(), Value::Str(status.tenant)),
                    ("snapshot".to_string(), status.snapshot.to_value()),
                ];
                if let Some(estimate) = scheduler.result(id) {
                    fields.push(("estimate".to_string(), estimate.to_value()));
                }
                ResultPoll::Ready(json_of(&Value::Map(fields)))
            }
            Some(_) => ResultPoll::Pending,
        }
    }

    /// Scheduler stats with the wire-level `http` block appended.
    fn stats_body(&self) -> String {
        let stats = self.state.scheduler.lock().expect("scheduler lock").stats();
        let mut value = stats.to_value();
        if let Value::Map(fields) = &mut value {
            fields.push((
                "http".to_string(),
                snapshot_http_stats(&self.counters, &self.queue).to_value(),
            ));
        }
        json_of(&value)
    }

    /// Re-arms every registered source for the next pass (the poller's
    /// delivery model is oneshot: delivered events clear interest).
    fn rearm(&mut self) {
        for (key, conn) in &self.conns {
            let interest = match conn.phase {
                Phase::Write => Event::writable(*key),
                _ => Event::readable(*key),
            };
            let _ = self.poller.modify(&conn.stream, interest);
        }
        if !self.draining {
            let interest = if self.conns.len() < self.config.max_connections {
                Event::readable(LISTENER_KEY)
            } else {
                // At the cap: leave the backlog in the kernel; re-arms once
                // a connection closes.
                Event::none(LISTENER_KEY)
            };
            let _ = self.poller.modify(&self.listener, interest);
        }
    }
}

fn flush(conn: &mut Conn) -> Flush {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Flush::Failed,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Failed,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Flush::Done
}

/// Parses a `POST /jobs` body into `(tenant, validated scenario)`.
fn parse_submission(body: &str) -> Result<(Option<String>, Scenario), String> {
    let value: Value = serde_json::from_str(body).map_err(|e| format!("bad JSON body: {e}"))?;
    let tenant: Option<String> = match value.get("tenant") {
        Some(v) => Some(String::from_value(v).map_err(|e| format!("tenant: {e}"))?),
        None => None,
    };
    let scenario_value = value
        .get("scenario")
        .ok_or_else(|| "body needs a `scenario` object".to_string())?;
    let scenario = Scenario::from_value(scenario_value).map_err(|e| e.to_string())?;
    scenario.validate()?;
    Ok((tenant, scenario))
}
