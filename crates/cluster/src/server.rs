//! The client-facing front end: a non-blocking, single-threaded event
//! loop over std TCP.
//!
//! `dumpd` spends a thread per client connection, which is fine for a
//! handful of operators but collapses under hundreds of concurrent
//! clients — the coordinator's job is fan-in, so its front end must be
//! cheap per connection. This loop keeps every client socket in
//! non-blocking mode and drives them all from one thread:
//!
//! * each connection owns a read buffer (`inbox`), a write buffer
//!   (`outbox`), and a render scratch `String`, so steady-state request
//!   dispatch allocates nothing beyond what the JSON parser needs;
//! * reads and writes run until `WouldBlock` and pick up where they left
//!   off on the next pass — a slow reader only delays its own bytes;
//! * per-connection **rate limits** (requests per second) and **job
//!   quotas** (open jobs per connection) reject floods with retryable
//!   error replies instead of degrading everyone else.
//!
//! Verbs mirror `dumpd` (`ping` / `submit` / `status` / `result` /
//! `stats` / `shutdown`), with the same uniform error shape
//! `{"ok":false,"status":"error","code":...,"retryable":...,"error":...}`.
//! There is no `wait`: a blocking verb would stall every connection this
//! one thread serves, so clients poll `status`. The job table keeps the
//! newest 64 finished jobs; an older id answers `unknown_job`, and a
//! forgotten job no longer counts against its connection's quota.
//! Cluster-specific codes: `rate_limited` and `quota_exceeded` are
//! retryable (back off and resend); `shutting_down` is retryable on
//! another coordinator; `bad_request`, `unknown_verb`, `unknown_job`, and
//! `malformed_request` stay fatal. A `shutdown` request starts a
//! *drain*: new submits are refused but queued jobs run to completion and
//! their results stay fetchable (within the 64-job retention) —
//! [`ClusterServer::drained`] reports when the last one lands.
//!
//! Worker sockets never appear here: the event loop talks only to the
//! [`crate::Backend`] job table, so a stalled worker cannot stall a
//! client and vice versa.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use coldboot_dumpio::json::{self, Json};
use coldboot_dumpio::stats::snapshot_json;
use coldboot_metrics::MetricsRegistry;

use crate::backend::{Backend, BackendOptions};
use crate::merge::{JobKind, JobSpec};

/// Hard cap on one request line; longer input closes the connection.
const MAX_LINE_BYTES: usize = 1 << 20;
/// Shortest event-loop idle sleep: the first idle pass barely naps, so a
/// request landing just after a quiet poll is picked up almost instantly.
const IDLE_MIN: Duration = Duration::from_micros(100);
/// Longest event-loop idle sleep; the doubling backoff never exceeds this,
/// bounding worst-case wakeup latency at the old fixed interval.
const IDLE_MAX: Duration = Duration::from_millis(2);
/// Per-connection rate-limit window.
const RATE_WINDOW: Duration = Duration::from_secs(1);

/// Coordinator configuration: the worker fleet plus front-end limits.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// `dumpd` worker addresses (`host:port`). One runner thread each.
    pub workers: Vec<String>,
    /// Default shard count per job phase; `0` means one shard per worker.
    pub shards: usize,
    /// Requests per second allowed per connection; `0` disables the
    /// limit.
    pub max_requests_per_sec: u32,
    /// Open (non-terminal) jobs allowed per connection; `0` disables the
    /// quota.
    pub max_open_jobs: usize,
    /// Scheduling and failover knobs forwarded to the backend.
    pub backend: BackendOptions,
}

impl ClusterConfig {
    /// A config with no front-end limits and one shard per worker.
    #[must_use]
    pub fn new(workers: Vec<String>) -> Self {
        Self {
            workers,
            shards: 0,
            max_requests_per_sec: 0,
            max_open_jobs: 0,
            backend: BackendOptions::default(),
        }
    }

    fn default_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            self.workers.len().max(1)
        }
    }
}

/// Whether a cluster rejection with `code` can succeed on a later retry
/// (or against another coordinator). Mirrors
/// [`coldboot_dumpio::service::error_code_retryable`] and extends it with
/// the front-end limit codes.
#[must_use]
pub fn cluster_code_retryable(code: &str) -> bool {
    matches!(
        code,
        "rate_limited" | "quota_exceeded" | "queue_full" | "shutting_down"
    )
}

/// The uniform error reply, with the cluster's retryable classification.
fn fail(code: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("status".to_string(), Json::Str("error".to_string())),
        ("code".to_string(), Json::Str(code.to_string())),
        (
            "retryable".to_string(),
            Json::Bool(cluster_code_retryable(code)),
        ),
        ("error".to_string(), Json::Str(message.to_string())),
    ])
}

struct ServerShared {
    stop: AtomicBool,
    draining: AtomicBool,
}

/// The coordinator front end. Owns the backend and the event-loop thread.
pub struct ClusterServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    backend: Arc<Backend>,
    config: ClusterConfig,
    pump_thread: Option<JoinHandle<()>>,
}

impl ClusterServer {
    /// Starts the backend runners and the event loop on `listener`.
    pub fn start(listener: TcpListener, config: ClusterConfig) -> std::io::Result<Self> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let backend = Arc::new(Backend::start(
            config.workers.clone(),
            config.backend.clone(),
        ));
        let shared = Arc::new(ServerShared {
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });
        let pump_thread = {
            let shared = Arc::clone(&shared);
            let backend = Arc::clone(&backend);
            let config = config.clone();
            thread::spawn(move || event_loop(&listener, &shared, &backend, &config))
        };
        Ok(Self {
            addr,
            shared,
            backend,
            config,
            pump_thread: Some(pump_thread),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `shutdown` request has started the drain.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Whether the drain is complete: a `shutdown` was requested and no
    /// job is still running. The daemon binary polls this.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.is_draining() && self.backend.unfinished() == 0
    }

    /// Jobs submitted but not yet terminal.
    #[must_use]
    pub fn unfinished(&self) -> u64 {
        self.backend.unfinished()
    }

    /// The coordinator's metric registry (valid after shutdown).
    #[must_use]
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.backend.metrics().registry)
    }

    /// The registry snapshot, rendered exactly as the `stats` verb
    /// renders it.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        snapshot_json(&self.backend.metrics().registry)
    }

    /// The number of configured workers.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.config.workers.len()
    }

    /// Stops the event loop and the backend runners and joins them.
    /// In-flight jobs are abandoned; drain first (see [`Self::drained`])
    /// for a graceful stop.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(pump) = self.pump_thread.take() {
            let _ = pump.join();
        }
        self.backend.shutdown();
    }
}

/// One client connection's state in the event loop.
struct Link {
    stream: TcpStream,
    /// Bytes read but not yet consumed as complete lines.
    inbox: Vec<u8>,
    /// Rendered replies not yet written to the socket.
    outbox: Vec<u8>,
    /// Current request line, copied out of `inbox` (reused).
    line: String,
    /// Render scratch for replies (reused — steady-state dispatch is
    /// allocation-free once these buffers reach working-set size).
    response: String,
    /// Rate-limit window anchor.
    window_started: Instant,
    /// Requests seen in the current window.
    window_used: u32,
    /// Jobs this connection submitted (pruned as they finish).
    jobs: Vec<u64>,
    closed: bool,
}

impl Link {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            inbox: Vec::new(),
            outbox: Vec::new(),
            line: String::new(),
            response: String::new(),
            window_started: Instant::now(),
            window_used: 0,
            jobs: Vec::new(),
            closed: false,
        }
    }
}

/// Puts a fresh client socket into the loop's non-blocking regime.
fn prepare(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    // Reads are readiness-driven, but a timeout bounds any platform edge
    // where a read blocks anyway.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true)
}

/// Capped exponential idle backoff for the poll loop. Each consecutive
/// idle iteration sleeps twice as long, from [`IDLE_MIN`] up to
/// [`IDLE_MAX`]; any socket progress snaps back to the minimum. The loop
/// therefore stays hot while traffic flows and never oversleeps a burst
/// by more than the current (recently-reset) interval.
struct IdleBackoff {
    current: Duration,
}

impl IdleBackoff {
    fn new() -> Self {
        Self { current: IDLE_MIN }
    }

    /// The sleep for one idle iteration; doubles for the next, capped.
    fn next(&mut self) -> Duration {
        let d = self.current;
        self.current = (self.current * 2).min(IDLE_MAX);
        d
    }

    /// Activity observed: start the ramp over.
    fn reset(&mut self) {
        self.current = IDLE_MIN;
    }
}

/// The single-threaded front end: admit, pump, flush, repeat.
fn event_loop(
    listener: &TcpListener,
    shared: &Arc<ServerShared>,
    backend: &Arc<Backend>,
    config: &ClusterConfig,
) {
    let mut links: Vec<Link> = Vec::new();
    let mut backoff = IdleBackoff::new();
    while !shared.stop.load(Ordering::Acquire) {
        let mut active = false;
        loop {
            // lint:allow(blocking-in-event-loop): listener is nonblocking (set in start); accept returns WouldBlock, never parks
            match listener.accept() {
                Ok((stream, _)) => {
                    if prepare(&stream).is_ok() {
                        links.push(Link::new(stream));
                    }
                    active = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        for link in &mut links {
            if pump(link, shared, backend, config) {
                active = true;
            }
            if flush(link) {
                active = true;
            }
        }
        links.retain(|link| !link.closed);
        if active {
            backoff.reset();
        } else {
            // lint:allow(blocking-in-event-loop): capped idle backoff (100µs→2ms), reset on any socket progress; naps only when every link was silent this pass
            thread::sleep(backoff.next());
        }
    }
}

/// Reads whatever the socket has, then answers every complete line.
/// Returns whether any progress happened.
fn pump(
    link: &mut Link,
    shared: &Arc<ServerShared>,
    backend: &Arc<Backend>,
    config: &ClusterConfig,
) -> bool {
    let mut progress = false;
    let mut scratch = [0u8; 4096];
    loop {
        // lint:allow(blocking-in-event-loop): `prepare` made this socket nonblocking with a 100ms timeout backstop; the read drains readiness and returns WouldBlock
        match link.stream.read(&mut scratch) {
            Ok(0) => {
                link.closed = true;
                return true;
            }
            Ok(n) => {
                link.inbox.extend_from_slice(&scratch[..n]);
                progress = true;
                if link.inbox.len() > MAX_LINE_BYTES {
                    link.closed = true;
                    return true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                link.closed = true;
                return true;
            }
        }
    }
    while let Some(pos) = link.inbox.iter().position(|&b| b == b'\n') {
        link.line.clear();
        match std::str::from_utf8(&link.inbox[..pos]) {
            Ok(text) => link.line.push_str(text.trim_end_matches('\r')),
            Err(_) => link.line.push('\u{FFFD}'), // parses to None → malformed_request
        }
        link.inbox.drain(..=pos);
        progress = true;
        let reply = if over_rate_limit(link, config) {
            backend.metrics().rate_limited_rejects.inc();
            fail("rate_limited", "per-connection request rate exceeded")
        } else {
            respond(link, shared, backend, config)
        };
        reply.render_compact_into(&mut link.response);
        link.outbox.extend_from_slice(link.response.as_bytes());
        link.outbox.push(b'\n');
    }
    progress
}

/// Writes as much of the outbox as the socket will take. Returns whether
/// any progress happened.
fn flush(link: &mut Link) -> bool {
    if link.outbox.is_empty() {
        return false;
    }
    let mut written = 0usize;
    loop {
        match link.stream.write(&link.outbox[written..]) {
            Ok(0) => {
                link.closed = true;
                break;
            }
            Ok(n) => {
                written += n;
                if written == link.outbox.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                link.closed = true;
                break;
            }
        }
    }
    link.outbox.drain(..written);
    written > 0 || link.closed
}

/// Counts this request against the connection's 1-second window.
fn over_rate_limit(link: &mut Link, config: &ClusterConfig) -> bool {
    if config.max_requests_per_sec == 0 {
        return false;
    }
    if link.window_started.elapsed() >= RATE_WINDOW {
        link.window_started = Instant::now();
        link.window_used = 0;
    }
    link.window_used = link.window_used.saturating_add(1);
    link.window_used > config.max_requests_per_sec
}

/// Answers one parsed request line (`link.line`).
fn respond(
    link: &mut Link,
    shared: &Arc<ServerShared>,
    backend: &Arc<Backend>,
    config: &ClusterConfig,
) -> Json {
    let Some(request) = json::parse(&link.line) else {
        return fail("malformed_request", "malformed JSON");
    };
    match request.get("verb").and_then(Json::as_str) {
        Some("ping") => Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
        Some("submit") => enroll(link, &request, shared, backend, config),
        Some("status") => match request.get("id").and_then(Json::as_i64) {
            Some(id) if id >= 0 => backend
                .status_json(id as u64)
                .unwrap_or_else(|| fail("unknown_job", "no such job")),
            _ => fail("bad_request", "status requires a job id"),
        },
        Some("result") => match request.get("id").and_then(Json::as_i64) {
            Some(id) if id >= 0 => backend
                .result_json(id as u64)
                .unwrap_or_else(|| fail("unknown_job", "no such job")),
            _ => fail("bad_request", "result requires a job id"),
        },
        Some("stats") => Json::obj([
            ("ok", Json::Bool(true)),
            ("metrics", snapshot_json(&backend.metrics().registry)),
        ]),
        Some("shutdown") => {
            shared.draining.store(true, Ordering::Release);
            Json::obj([("ok", Json::Bool(true))])
        }
        Some(_) => fail("unknown_verb", "unknown verb"),
        None => fail("malformed_request", "missing verb"),
    }
}

/// Validates and submits one cluster job for this connection.
fn enroll(
    link: &mut Link,
    request: &Json,
    shared: &Arc<ServerShared>,
    backend: &Arc<Backend>,
    config: &ClusterConfig,
) -> Json {
    if shared.draining.load(Ordering::Acquire) {
        return fail("shutting_down", "coordinator is draining");
    }
    link.jobs.retain(|&id| !backend.is_terminal(id));
    if config.max_open_jobs > 0 && link.jobs.len() >= config.max_open_jobs {
        backend.metrics().quota_rejects.inc();
        return fail("quota_exceeded", "per-connection open-job quota reached");
    }
    let Some(kind) = request
        .get("kind")
        .and_then(Json::as_str)
        .and_then(JobKind::parse)
    else {
        return fail("bad_request", "kind must be attack|search|mine|frequency");
    };
    let Some(dump) = request.get("dump").and_then(Json::as_str) else {
        return fail("bad_request", "submit requires a dump path");
    };
    let field = |name: &str| request.get(name).and_then(Json::as_i64).filter(|&v| v >= 0);
    let mut spec = JobSpec::new(kind, dump);
    spec.shards = field("shards")
        .map(|v| v as usize)
        .filter(|&v| v > 0)
        .unwrap_or_else(|| config.default_shards());
    if let Some(window) = field("window_blocks") {
        spec.window_blocks = window as u64;
    }
    if let Some(top) = field("top_keys") {
        spec.top_keys = top as u64;
    }
    if let Some(max) = field("max_bytes") {
        spec.max_bytes = Some(max as u64);
    }
    if let Some(threads) = field("threads").filter(|&v| v > 0) {
        spec.threads = threads as u64;
    }
    if let Some(deep) = request.get("deep").and_then(Json::as_bool) {
        spec.deep = deep;
    }
    if let Some(ground) = request.get("ground").and_then(Json::as_str) {
        spec.ground = Some(ground.to_string());
        if let Some(d) = request.get("decay_fraction").and_then(Json::as_f64) {
            if !(d.is_finite() && (0.0..=1.0).contains(&d)) {
                return fail("bad_request", "decay_fraction must be a number in [0, 1]");
            }
            spec.decay_fraction = Some(d);
        }
        if let Some(budget) = field("work_budget") {
            spec.work_budget = Some(budget as u64);
        }
    } else if request.get("decay_fraction").is_some() || request.get("work_budget").is_some() {
        return fail(
            "bad_request",
            "decay_fraction and work_budget require a ground dump",
        );
    }
    match backend.submit(spec) {
        Ok(id) => {
            link.jobs.push(id);
            Json::obj([("ok", Json::Bool(true)), ("id", Json::Int(id as i64))])
        }
        Err(why) => fail("bad_request", &why),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryable_codes_cover_the_front_end_limits() {
        for code in [
            "rate_limited",
            "quota_exceeded",
            "queue_full",
            "shutting_down",
        ] {
            assert!(cluster_code_retryable(code), "{code}");
        }
        for code in [
            "bad_request",
            "unknown_verb",
            "unknown_job",
            "malformed_request",
        ] {
            assert!(!cluster_code_retryable(code), "{code}");
        }
    }

    #[test]
    fn error_replies_use_the_uniform_shape() {
        let reply = fail("rate_limited", "slow down");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            reply.get("code").and_then(Json::as_str),
            Some("rate_limited")
        );
        assert_eq!(reply.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("slow down"));
    }

    #[test]
    fn idle_backoff_doubles_caps_and_resets() {
        let mut backoff = IdleBackoff::new();
        assert_eq!(backoff.next(), IDLE_MIN);
        assert_eq!(backoff.next(), IDLE_MIN * 2);
        assert_eq!(backoff.next(), IDLE_MIN * 4);
        // Ramp to the cap and confirm it holds there.
        for _ in 0..16 {
            backoff.next();
        }
        assert_eq!(backoff.next(), IDLE_MAX);
        assert_eq!(backoff.next(), IDLE_MAX);
        // Any activity restarts the ramp from the minimum.
        backoff.reset();
        assert_eq!(backoff.next(), IDLE_MIN);
    }

    #[test]
    fn default_shards_follow_the_worker_count() {
        let mut config = ClusterConfig::new(vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(config.default_shards(), 3);
        config.shards = 8;
        assert_eq!(config.default_shards(), 8);
        let empty = ClusterConfig::new(Vec::new());
        assert_eq!(empty.default_shards(), 1);
    }
}
