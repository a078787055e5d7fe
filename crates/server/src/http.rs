//! Wire-level HTTP/1.1: incremental request parsing, response rendering,
//! and the two clients (`http_request` one-shot, [`HttpClient`] keep-alive).
//!
//! The serving endpoints themselves live in [`crate::event_loop`]; this
//! module owns only the byte format. Endpoints for reference:
//!
//! | method & path            | body / query                 | reply |
//! |--------------------------|------------------------------|-------|
//! | `GET /healthz`           | —                            | `{"ok":true}` |
//! | `POST /jobs`             | `{"tenant"?, "scenario": {…}}` (declarative scenario, JSON form of the TOML schema) | `{"job_id": n}` |
//! | `GET /jobs/{id}`         | —                            | [`JobStatus`] JSON (anytime estimate, CI, queries, stop reason) |
//! | `GET /jobs/{id}/result`  | `?wait_ms=N` long-poll       | final estimate JSON, or `{"pending":true}` after the wait |
//! | `DELETE /jobs/{id}`      | —                            | `{"cancelled":bool}` |
//! | `GET /stats`             | —                            | [`SchedulerStats`] JSON plus an `http` / `queue` block |
//! | `POST /shutdown`         | —                            | `{"ok":true}`, then the server drains and exits |
//!
//! Requests are parsed **incrementally**: the event loop appends whatever
//! bytes the socket yields into a per-connection buffer and calls
//! `find_head_end` / `RequestHead::parse` until a full head (and then a
//! full `Content-Length` body) is available. Nothing here blocks.
//!
//! [`JobStatus`]: crate::scheduler::JobStatus
//! [`SchedulerStats`]: crate::scheduler::SchedulerStats

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::{Serialize, Value};

/// Default socket timeout used by the blocking clients.
pub(crate) const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------------
// Incremental request parsing.
// ---------------------------------------------------------------------------

/// A wire-level protocol error mapped to the status line it should produce.
#[derive(Debug, Clone)]
pub(crate) struct HttpError {
    /// Status code to reply with (`400`, `413`, `501`, …).
    pub status: u16,
    /// Reason phrase matching `status`.
    pub reason: &'static str,
    /// Human-readable detail for the JSON error body.
    pub message: String,
}

impl HttpError {
    fn bad_request(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            reason: "Bad Request",
            message: message.into(),
        }
    }
}

/// Returns the length of the header block (terminator included) once the
/// buffer holds a complete `\r\n\r\n`- or `\n\n`-terminated head.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// The parsed request line + headers of one HTTP/1.1 request.
#[derive(Debug, Clone)]
pub(crate) struct RequestHead {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// Decoded `?key=value` pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Whether the connection survives this exchange (HTTP/1.1 default
    /// keep-alive, overridden by `Connection:` headers; HTTP/1.0 defaults
    /// to close).
    pub keep_alive: bool,
}

impl RequestHead {
    /// Parses a complete header block (as delimited by [`find_head_end`]).
    pub fn parse(head: &[u8]) -> Result<RequestHead, HttpError> {
        let text = std::str::from_utf8(head)
            .map_err(|_| HttpError::bad_request("header block is not UTF-8"))?;
        let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));

        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_ascii_uppercase();
        let target = parts.next().unwrap_or("").to_string();
        let version = parts.next().unwrap_or("HTTP/1.1");
        if method.is_empty() || target.is_empty() {
            return Err(HttpError::bad_request("malformed request line"));
        }
        let http11 = version != "HTTP/1.0";

        let mut content_length = 0usize;
        let mut keep_alive = http11;
        for line in lines {
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::bad_request("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError {
                    status: 501,
                    reason: "Not Implemented",
                    message: "transfer-encoding is not supported; send Content-Length".to_string(),
                });
            }
        }

        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q),
            None => (target, ""),
        };
        let query = query_str
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (kv.to_string(), String::new()),
            })
            .collect();
        Ok(RequestHead {
            method,
            path,
            query,
            content_length,
            keep_alive,
        })
    }

    /// Looks up an integer query parameter.
    pub fn query_u64(&self, key: &str) -> Option<u64> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }
}

// ---------------------------------------------------------------------------
// Response rendering.
// ---------------------------------------------------------------------------

/// One response ready to be rendered onto the wire.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// JSON body.
    pub body: String,
    /// Optional `Retry-After` header in seconds (backpressure replies).
    pub retry_after_s: Option<u64>,
}

impl Response {
    /// A JSON response with the given status line.
    pub fn json(status: u16, reason: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            reason,
            body: body.into(),
            retry_after_s: None,
        }
    }

    /// A `{"error": message}` response with the given status line.
    pub fn error(status: u16, reason: &'static str, message: &str) -> Response {
        Response::json(status, reason, error_body(message))
    }

    /// Renders the full wire bytes, `Connection:` header included.
    pub fn render(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let retry_after = match self.retry_after_s {
            Some(s) => format!("Retry-After: {s}\r\n"),
            None => String::new(),
        };
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n{}",
            self.status,
            self.reason,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

impl From<HttpError> for Response {
    fn from(e: HttpError) -> Response {
        Response::error(e.status, e.reason, &e.message)
    }
}

/// Serializes any `Serialize` value to a JSON string.
pub(crate) fn json_of<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string())
}

/// A `{"error": message}` JSON body.
pub(crate) fn error_body(message: &str) -> String {
    json_of(&Value::Map(vec![(
        "error".to_string(),
        Value::Str(message.to_string()),
    )]))
}

// ---------------------------------------------------------------------------
// Clients (used by `repro client`, `repro loadtest`, and the e2e tests).
// ---------------------------------------------------------------------------

/// Reads one response off `reader`; returns `(status, body, server_closes)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(u16, String, bool), String> {
    let mut status_line = String::new();
    let n = reader
        .read_line(&mut status_line)
        .map_err(|e| e.to_string())?;
    if n == 0 {
        return Err("connection closed before status line".to_string());
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line `{}`", status_line.trim()))?;

    let mut content_length = None;
    let mut server_closes = false;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| e.to_string())?;
        let line = line.trim_end();
        if n == 0 || line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                server_closes = true;
            }
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut bytes = vec![0u8; n];
            reader.read_exact(&mut bytes).map_err(|e| e.to_string())?;
            body = String::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
        }
        None => {
            // No length: the body runs to EOF and the connection is spent.
            server_closes = true;
            reader
                .read_to_string(&mut body)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok((status, body, server_closes))
}

/// Reads a `u64` field out of a JSON reply map (`job_id`, `samples`, …),
/// accepting any number form that holds a non-negative integer.
pub fn value_u64(value: &Value, key: &str) -> Option<u64> {
    match value.get(key) {
        Some(Value::U64(n)) => Some(*n),
        Some(Value::I64(n)) => u64::try_from(*n).ok(),
        Some(Value::F64(n)) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Issues one HTTP request against `addr` and returns `(status, body)`.
///
/// Opens a fresh `Connection: close` socket per call — the simplest correct
/// client, used by `repro client` and the smoke tests. Load generators that
/// care about connection reuse should hold an [`HttpClient`] instead.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(SOCKET_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let (status, body, _) = read_response(&mut reader)?;
    Ok((status, body))
}

/// A keep-alive HTTP/1.1 client: many requests over one connection.
///
/// Tracks how many requests it sent and how many TCP connections it had to
/// open, so the loadtest probe can report the keep-alive reuse rate. A
/// stale pooled connection (server closed it between requests) is retried
/// once on a fresh socket before an error is surfaced.
///
/// ```no_run
/// use lbs_server::HttpClient;
///
/// let mut client = HttpClient::new("127.0.0.1:8080");
/// let (status, body) = client.request("GET", "/healthz", None)?;
/// assert_eq!(status, 200);
/// // Subsequent requests reuse the same TCP connection.
/// let _ = client.request("GET", "/stats", None)?;
/// assert_eq!(client.connections_opened(), 1);
/// assert_eq!(client.requests_sent(), 2);
/// # drop(body);
/// # Ok::<(), String>(())
/// ```
pub struct HttpClient {
    addr: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    requests: u64,
    connections: u64,
}

impl HttpClient {
    /// A client for `addr` (`host:port`) with the default 30 s timeout.
    pub fn new(addr: &str) -> HttpClient {
        HttpClient::with_timeout(addr, SOCKET_TIMEOUT)
    }

    /// A client for `addr` with an explicit per-request socket timeout.
    pub fn with_timeout(addr: &str, timeout: Duration) -> HttpClient {
        HttpClient {
            addr: addr.to_string(),
            timeout,
            conn: None,
            requests: 0,
            connections: 0,
        }
    }

    /// Issues `method path` with an optional JSON body; returns
    /// `(status, body)`. Reuses the pooled connection when the server keeps
    /// it alive.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        for attempt in 0..2 {
            let reused = self.conn.is_some();
            if self.conn.is_none() {
                let stream = TcpStream::connect(&self.addr)
                    .map_err(|e| format!("connect {}: {e}", self.addr))?;
                stream
                    .set_read_timeout(Some(self.timeout))
                    .map_err(|e| e.to_string())?;
                stream
                    .set_write_timeout(Some(self.timeout))
                    .map_err(|e| e.to_string())?;
                self.connections += 1;
                self.conn = Some(BufReader::new(stream));
            }
            let reader = self.conn.as_mut().expect("connection just ensured");
            let payload = body.unwrap_or("");
            let request = format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{payload}",
                self.addr,
                payload.len()
            );
            let outcome = reader
                .get_ref()
                .write_all(request.as_bytes())
                .map_err(|e| e.to_string())
                .and_then(|_| read_response(reader));
            match outcome {
                Ok((status, body, server_closes)) => {
                    self.requests += 1;
                    if server_closes {
                        self.conn = None;
                    }
                    return Ok((status, body));
                }
                // A pooled connection the server quietly closed (idle
                // timeout, drain) fails mid-request; one retry on a fresh
                // socket is safe because nothing was answered.
                Err(_) if reused && attempt == 0 => {
                    self.conn = None;
                }
                Err(e) => {
                    self.conn = None;
                    return Err(e);
                }
            }
        }
        unreachable!("second attempt always returns")
    }

    /// Total requests answered over this client's lifetime.
    pub fn requests_sent(&self) -> u64 {
        self.requests
    }

    /// TCP connections this client had to open (1 == perfect keep-alive).
    pub fn connections_opened(&self) -> u64 {
        self.connections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_handles_both_terminators() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn parse_head_defaults_and_overrides() {
        let head = RequestHead::parse(b"GET /stats?wait_ms=5 HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("parses");
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/stats");
        assert_eq!(head.query_u64("wait_ms"), Some(5));
        assert!(head.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(head.content_length, 0);

        let close = RequestHead::parse(
            b"POST /jobs HTTP/1.1\r\nConnection: close\r\nContent-Length: 2\r\n\r\n",
        )
        .expect("parses");
        assert!(!close.keep_alive);
        assert_eq!(close.content_length, 2);

        let legacy = RequestHead::parse(b"GET / HTTP/1.0\r\n\r\n").expect("parses");
        assert!(!legacy.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn parse_head_rejects_garbage() {
        assert!(RequestHead::parse(b"\r\n\r\n").is_err());
        assert!(RequestHead::parse(b"GET / HTTP/1.1\r\nContent-Length: zap\r\n\r\n").is_err());
        let chunked = RequestHead::parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .expect_err("chunked unsupported");
        assert_eq!(chunked.status, 501);
    }

    #[test]
    fn response_renders_retry_after_and_connection() {
        let mut resp = Response::error(429, "Too Many Requests", "queue full");
        resp.retry_after_s = Some(1);
        let text = String::from_utf8(resp.render(true)).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        let text = String::from_utf8(Response::json(200, "OK", "{}").render(false)).expect("utf8");
        assert!(text.contains("Connection: close\r\n"));
    }
}
