//! `coldboot-dumpd`: a job-oriented scan service over CBDF dumps.
//!
//! A capture rig writes dumps to disk faster than one analysis pass
//! consumes them; the service turns the analysis box into a queue. Jobs
//! run the [`crate::pipeline`] passes against dump files, in bounded
//! memory, on a fixed worker pool, with per-job progress, cooperative
//! cancellation, and wall-clock timeouts.
//!
//! ## Wire protocol
//!
//! Line-delimited JSON over TCP; one request object per line, one
//! response object per line, connections are persistent. [`crate::wire`]
//! writes and reads every document below, for this service and the
//! cluster coordinator alike. Responses always carry `"ok"`; every
//! failure uses one uniform shape:
//! `{"ok":false,"status":"error","code":CODE,"retryable":BOOL,"error":MSG}`.
//! Codes: `queue_full` and `shutting_down` are *retryable* (the same
//! request can succeed later, or on another worker — cluster failover
//! keys off this flag); `bad_request`, `unknown_verb`, `unknown_job`, and
//! `malformed_request` (also the reply to a line without a `verb`) are
//! fatal.
//!
//! | request | response |
//! |---|---|
//! | `{"verb":"ping"}` | `{"ok":true,"pong":true}` |
//! | `{"verb":"submit","kind":"attack"\|"mine"\|"frequency"\|"search_shard","dump":PATH,...}` | `{"ok":true,"id":N}` |
//! | `{"verb":"status","id":N}` | `{"ok":true,"state":...,"blocks_done":N,"blocks_total":N}` |
//! | `{"verb":"result","id":N}` | `{"ok":true,"state":...,"result":...}` |
//! | `{"verb":"wait","id":N,"timeout_ms":T}` | what `result` returns once the job is terminal or `T` ms have passed |
//! | `{"verb":"cancel","id":N}` | `{"ok":true,"state":...}` |
//! | `{"verb":"stats"}` | `{"ok":true,"metrics":{...}}` |
//! | `{"verb":"shutdown"}` | `{"ok":true}` |
//!
//! `submit` options, the one list of them: [`crate::wire::parse_spec`]
//! reads them for this service and for the cluster coordinator, which
//! adds only a `shards` count. `window_blocks` (positive, default 16384),
//! `timeout_secs`, `threads` (default 1 — the pool provides the
//! parallelism), `deep` (attack/`search_shard`: thorough search preset),
//! `max_bytes` (attack/mine: mining prefix), `top_keys` (frequency: how
//! many keys to report, default 48), `shard_start`/`shard_end` and
//! `candidates` (shard jobs, below), and `ground` (attack/`search_shard`:
//! a ground-state dump path that turns on channel-model reconstruction)
//! with its `decay_fraction` (in `[0, 1]`) and `work_budget`. Integer
//! options must be non-negative integers. `"search"` is accepted as an
//! alias for `"attack"`. Job states:
//! `queued`, `running`, `done`, `failed`, `cancelled`, `timed_out`.
//! A job with a `timeout_secs` budget spends it from *submit* time: a job
//! whose budget expires while still queued fails fast as `timed_out`
//! without running.
//!
//! `wait` blocks the connection's own handler thread on the job until it
//! is terminal or `timeout_ms` (required, `0..=60000`) passes, then
//! replies exactly as `result` would: `state`, and `result` once `done`
//! (`null` before). It is how a client learns of completion without
//! polling `status`.
//!
//! The job table keeps the newest [`RETAINED_JOBS`] (64) terminal jobs.
//! When one more job ends, the oldest finished one is forgotten and its
//! id answers `unknown_job`; queued and running jobs are never forgotten.
//! A finished job keeps its result rendered once, as one string that
//! every `result` and `wait` reply splices in; a shard partial or an
//! `attack` result is written straight into that string, with no tree.
//!
//! ## Shard jobs (cluster protocol)
//!
//! `submit` additionally accepts `shard_start`/`shard_end` (global block
//! indices, half-open). With a shard range, `mine` and `frequency` scan
//! only that range and return *mergeable* partials instead of finished
//! results ([`crate::wire::ShardPartial`], framed with its `kind` and the
//! range echo): the raw observation map / histogram the coordinator
//! absorbs and finishes once. The `search_shard` kind
//! takes a `candidates` array (the pass-through form
//! [`crate::wire::candidates_to_json`] emits) and returns the shard's
//! [`coldboot::keysearch::SearchPartial`] — hits, *pre-dedup* recoveries
//! in verification order, and the region-filtered scan count. Merging
//! partials in shard order reproduces the single-node result
//! byte-for-byte; `crates/cluster` is the reference consumer.
//!
//! `stats` snapshots the service's [`crate::stats::ServiceMetrics`]
//! registry — job lifecycle counters, queue depth/wait, per-stage scan
//! counters and latency histograms — as one JSON object keyed by metric
//! name (`dumpctl stats` renders it).

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufReader, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use coldboot::attack::{mining_limit, AttackConfig};
use coldboot::keysearch::SearchConfig;
use coldboot::litmus::MiningConfig;
use coldboot::reconstruct::ReconstructConfig;
use coldboot_dram::retention::{BitChannel, DecayModel};
use coldboot_dram::BLOCK_BYTES;
use coldboot_metrics::duration_us;

use crate::error::DumpError;
use crate::json::{self, Json};
use crate::pipeline::{
    attack_file, attack_total_blocks, frequency_range, mine_range, search_range, PipelineError,
    ScanControl,
};
use crate::reader::DumpReader;
use crate::stats::{snapshot_json, ServiceMetrics};
use crate::wire::{
    self, error_response, parse_spec, result_reply, JobKind, JobSpec, JobState, ShardPartial,
};

/// Longest accepted request line; longer input drops the connection.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Terminal jobs a job table keeps answering for, equal to the default
/// `queue_limit`. The oldest finished job beyond this is forgotten.
pub const RETAINED_JOBS: usize = 64;

/// Longest `timeout_ms` a `wait` request may ask for.
pub const MAX_WAIT_MS: u64 = 60_000;

/// Sizing of the service: worker pool and queue bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Scan worker threads. Zero is allowed (jobs queue but never run) —
    /// useful only for testing queue behaviour.
    pub workers: usize,
    /// Maximum queued (not yet claimed) jobs; `submit` beyond this is
    /// rejected so a flood of dumps degrades loudly, not silently.
    pub queue_limit: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_limit: 64,
        }
    }
}

struct Job {
    id: u64,
    spec: JobSpec,
    state: Mutex<JobState>,
    /// Signalled by the job's one terminal transition; `wait` blocks on it.
    finished: Condvar,
    cancel: AtomicBool,
    blocks_done: AtomicU64,
    blocks_total: AtomicU64,
    /// When `submit` accepted the job; feeds the `queue_wait_us` histogram.
    enqueued_at: Instant,
}

/// A job table that keeps every queued and running job but only the
/// newest [`RETAINED_JOBS`] finished ones.
pub struct JobTable<V> {
    entries: HashMap<u64, V>,
    /// Ids of the finished jobs still held, oldest first.
    finished: VecDeque<u64>,
}

impl<V> Default for JobTable<V> {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            finished: VecDeque::new(),
        }
    }
}

impl<V> JobTable<V> {
    /// Adds a job that has not finished yet.
    pub fn insert(&mut self, id: u64, entry: V) {
        self.entries.insert(id, entry);
    }

    /// The job's entry, `None` for an unknown or forgotten id.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.entries.get(&id)
    }

    /// The job's entry, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        self.entries.get_mut(&id)
    }

    /// Records that job `id` has just finished; call once per job.
    /// Returns the oldest finished entry when this pushes the table past
    /// [`RETAINED_JOBS`], for the caller to drop once it has released the
    /// table's lock.
    #[must_use]
    pub fn retire(&mut self, id: u64) -> Option<V> {
        self.finished.push_back(id);
        if self.finished.len() <= RETAINED_JOBS {
            return None;
        }
        let oldest = self.finished.pop_front()?;
        self.entries.remove(&oldest)
    }
}

struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    /// Taken while a job's state lock is held (`finish`), so never hold
    /// it while taking a job's state lock.
    jobs: Mutex<JobTable<Arc<Job>>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    queue_limit: usize,
    metrics: ServiceMetrics,
}

/// A mutex poisoned by a panicking scan worker still guards coherent
/// bookkeeping (states and counters are written atomically under it), so
/// every lock here continues through poison.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The running scan service. Dropping the handle leaves the threads
/// running; call [`DumpService::shutdown`] to stop them.
pub struct DumpService {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: thread::JoinHandle<()>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl DumpService {
    /// Starts the accept loop and worker pool on `listener`.
    ///
    /// # Errors
    ///
    /// Fails when the listener's local address cannot be read.
    pub fn start(listener: TcpListener, config: ServiceConfig) -> std::io::Result<Self> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            jobs: Mutex::new(JobTable::default()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            queue_limit: config.queue_limit,
            metrics: ServiceMetrics::new(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Self {
            shared,
            addr,
            acceptor,
            workers,
        })
    }

    /// The address the service is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `shutdown` request has been received (or
    /// [`DumpService::shutdown`] called). The daemon binary polls this.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// A snapshot of the service's metric registry, rendered exactly as
    /// the `stats` verb renders it.
    pub fn stats_json(&self) -> Json {
        snapshot_json(&self.shared.metrics.registry)
    }

    /// The service's metric registry. Handles stay valid after
    /// [`DumpService::shutdown`], so the daemon binary can snapshot the
    /// final counters once the queue has drained.
    pub fn metrics_registry(&self) -> Arc<coldboot_metrics::MetricsRegistry> {
        Arc::clone(&self.shared.metrics.registry)
    }

    /// Stops accepting connections, lets the workers drain the queue, and
    /// joins all service threads.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        // The acceptor blocks in `accept`; a connection of our own wakes
        // it to see the flag.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        // After the flag is set, the next connection (the one
        // `DumpService::shutdown` makes) only wakes this loop to stop.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Ok((stream, _peer)) = accepted {
            let shared = Arc::clone(shared);
            // Connection handlers are detached: they notice shutdown
            // through their read timeout and exit on their own.
            let _ = thread::spawn(move || handle_connection(stream, &shared));
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 4096];
    // Reused across lines so steady-state responses allocate nothing
    // once the buffer has grown to the connection's line length.
    let mut response = String::new();
    loop {
        if let Some(newline) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=newline).collect();
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            dispatch(text, shared).render_compact_into(&mut response);
            response.push('\n');
            if stream.write_all(response.as_bytes()).is_err() {
                return;
            }
            continue;
        }
        if buf.len() > MAX_LINE_BYTES {
            return;
        }
        match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A slow writer just hasn't produced the rest of the line
                // yet; `buf` keeps the partial line across wakeups.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            // A signal landing in the read is not a peer failure; dropping
            // the connection here used to lose the buffered partial line.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn dispatch(line: &str, shared: &Arc<Shared>) -> Json {
    let Some(request) = json::parse(line) else {
        return error_response("malformed_request", "malformed JSON");
    };
    match request.get("verb").and_then(Json::as_str) {
        Some("ping") => Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
        Some("submit") => submit(&request, shared),
        Some("status") => match find_job(&request, shared) {
            Ok(job) => job_status(&job),
            Err(e) => e,
        },
        Some("result") => match find_job(&request, shared) {
            Ok(job) => result_reply(job.id, &lock(&job.state)),
            Err(e) => e,
        },
        Some("wait") => wait(&request, shared).unwrap_or_else(|e| e),
        Some("cancel") => match find_job(&request, shared) {
            Ok(job) => cancel_job(&job, shared),
            Err(e) => e,
        },
        Some("stats") => Json::obj([
            ("ok", Json::Bool(true)),
            ("metrics", snapshot_json(&shared.metrics.registry)),
        ]),
        Some("shutdown") => {
            shared.shutdown.store(true, Ordering::Release);
            shared.available.notify_all();
            Json::obj([("ok", Json::Bool(true))])
        }
        Some(_) => error_response("unknown_verb", "unknown verb"),
        None => error_response("malformed_request", "missing verb"),
    }
}

fn submit(request: &Json, shared: &Arc<Shared>) -> Json {
    if shared.shutdown.load(Ordering::Acquire) {
        return error_response("shutting_down", "shutting down");
    }
    let spec = match parse_spec(request) {
        Ok(spec) => spec,
        Err(e) => return e,
    };
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        id,
        spec,
        state: Mutex::new(JobState::Queued),
        finished: Condvar::new(),
        cancel: AtomicBool::new(false),
        blocks_done: AtomicU64::new(0),
        blocks_total: AtomicU64::new(0),
        enqueued_at: Instant::now(),
    });
    {
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.queue_limit {
            shared.metrics.queue_full_rejects.inc();
            return error_response("queue_full", "queue full");
        }
        lock(&shared.jobs).insert(id, Arc::clone(&job));
        queue.push_back(job);
        shared.metrics.jobs_submitted.inc();
        shared.metrics.queue_depth.add(1);
    }
    shared.available.notify_one();
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("id".to_string(), Json::Int(id as i64)),
    ])
}

fn find_job(request: &Json, shared: &Arc<Shared>) -> Result<Arc<Job>, Json> {
    let id = match wire::opt_u64(request, "id")? {
        Some(id) => id,
        None => return Err(error_response("bad_request", "missing job id")),
    };
    lock(&shared.jobs)
        .get(id)
        .cloned()
        .ok_or_else(|| error_response("unknown_job", "unknown job id"))
}

/// The `wait` verb: blocks until the job is terminal or `timeout_ms`
/// passes, then replies as `result` would. Only the job's own lock is
/// involved, and the condvar releases it while waiting.
fn wait(request: &Json, shared: &Arc<Shared>) -> Result<Json, Json> {
    let timeout = match wire::opt_u64(request, "timeout_ms")? {
        Some(ms) if ms <= MAX_WAIT_MS => Duration::from_millis(ms),
        _ => {
            return Err(error_response(
                "bad_request",
                "timeout_ms must be an integer in 0..=60000",
            ))
        }
    };
    let job = find_job(request, shared)?;
    let state = job
        .finished
        .wait_timeout_while(lock(&job.state), timeout, |state| !state.is_terminal())
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .0;
    Ok(result_reply(job.id, &state))
}

fn job_status(job: &Job) -> Json {
    let state = lock(&job.state);
    let mut pairs = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("id".to_string(), Json::Int(job.id as i64)),
        ("state".to_string(), Json::Str(state.name().to_string())),
        (
            "blocks_done".to_string(),
            Json::Int(job.blocks_done.load(Ordering::Relaxed) as i64),
        ),
        (
            "blocks_total".to_string(),
            Json::Int(job.blocks_total.load(Ordering::Relaxed) as i64),
        ),
    ];
    if let JobState::Failed(why) = &*state {
        pairs.push(("error".to_string(), Json::Str(why.clone())));
    }
    Json::Obj(pairs)
}

/// The job's one terminal transition: retires it from the job table,
/// sets `terminal` and wakes its `wait` requests. The job is retired
/// first, so a client that sees the terminal state also sees the table
/// without the entry this job pushed out; that entry is dropped after
/// both locks are released.
fn finish(shared: &Shared, job: &Job, mut state: MutexGuard<'_, JobState>, terminal: JobState) {
    let forgotten = lock(&shared.jobs).retire(job.id);
    *state = terminal;
    drop(state);
    job.finished.notify_all();
    drop(forgotten);
}

fn cancel_job(job: &Job, shared: &Shared) -> Json {
    job.cancel.store(true, Ordering::Relaxed);
    let state = lock(&job.state);
    // A job still in the queue will be skipped by the workers; mark it
    // terminal right away. A running job stops at its next scan tick
    // and is counted by the worker's outcome handling instead — so
    // `jobs_cancelled` moves exactly once per cancelled job.
    if matches!(*state, JobState::Queued) {
        shared.metrics.jobs_cancelled.inc();
        finish(shared, job, state, JobState::Cancelled);
    } else {
        drop(state);
    }
    job_status(job)
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                // Pop-before-shutdown-check: shutdown drains the queue.
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .0;
            }
        };
        let Some(job) = job else { return };
        let metrics = &shared.metrics;
        metrics.queue_depth.sub(1);
        {
            let mut state = lock(&job.state);
            if !matches!(*state, JobState::Queued) {
                continue; // cancelled while queued
            }
            // The wall-clock budget spends from submit time. A job whose
            // budget expired while still queued fails fast instead of
            // running a scan that is already over its deadline; this is
            // its single terminal transition, so `jobs_timed_out` moves
            // exactly once (the run-outcome arms below never see it).
            if job
                .spec
                .timeout_secs
                .is_some_and(|secs| job.enqueued_at.elapsed() >= Duration::from_secs(secs))
            {
                metrics.jobs_timed_out.inc();
                finish(shared, &job, state, JobState::TimedOut);
                continue;
            }
            *state = JobState::Running;
        }
        metrics
            .queue_wait_us
            .observe(duration_us(job.enqueued_at.elapsed()));
        let run_started = Instant::now();
        let outcome = execute(&job, shared);
        metrics
            .job_run_us
            .observe(duration_us(run_started.elapsed()));
        // Each job reaches exactly one terminal arm, so each lifecycle
        // counter moves exactly once per job — the `stats` tests rely on
        // `jobs_timed_out` being 1 after one timed-out job.
        let terminal = match outcome {
            Ok(result) => {
                metrics.jobs_done.inc();
                // Every `result` and `wait` reply splices this string.
                JobState::Done(result.into())
            }
            Err(PipelineError::Cancelled) => {
                metrics.jobs_cancelled.inc();
                JobState::Cancelled
            }
            Err(PipelineError::TimedOut) => {
                metrics.jobs_timed_out.inc();
                JobState::TimedOut
            }
            Err(e) => {
                metrics.jobs_failed.inc();
                JobState::Failed(e.to_string())
            }
        };
        finish(shared, &job, lock(&job.state), terminal);
    }
}

/// Builds the channel-reconstruction config for a job that asked for it:
/// loads the ground-state dump and prices the channel from the explicit
/// `decay_fraction` override or, failing that, the dump's own capture
/// metadata through the paper-calibrated retention model.
fn reconstruct_config(
    spec: &JobSpec,
    meta: &crate::format::DumpMeta,
) -> Result<Option<ReconstructConfig>, PipelineError> {
    let Some(path) = &spec.ground else {
        return Ok(None);
    };
    let file = File::open(path).map_err(DumpError::from)?;
    let ground = DumpReader::new(BufReader::new(file))?.read_to_memory()?;
    let d = spec.decay_fraction.unwrap_or_else(|| {
        DecayModel::paper_calibrated().decay_fraction(
            meta.capture_temp_c,
            meta.transfer_seconds,
            1.0,
        )
    });
    let mut rc = ReconstructConfig::new(BitChannel::from_decay_fraction(d), Arc::new(ground));
    if let Some(budget) = spec.work_budget {
        rc.work_budget = u32::try_from(budget).unwrap_or(u32::MAX);
    }
    Ok(Some(rc))
}

/// Runs a job to its finished document, rendered compact once: a shard
/// partial or an `attack` result is written straight into its line, a key
/// list rendered from its small tree.
fn execute(job: &Job, shared: &Shared) -> Result<String, PipelineError> {
    let spec = &job.spec;
    let file = File::open(&spec.dump).map_err(DumpError::from)?;
    let mut reader = DumpReader::new(BufReader::new(file))?;
    reader.set_metrics(Arc::clone(&shared.metrics.reader));
    let total_bytes = reader.meta().total_bytes;
    let total_blocks = total_bytes / BLOCK_BYTES as u64;
    // The budget is anchored at submit, not run start: queue wait spends
    // it (expired-in-queue jobs never reach here — the worker loop fails
    // them fast).
    let deadline = spec
        .timeout_secs
        .map(|secs| job.enqueued_at + Duration::from_secs(secs));
    let mut ctrl = ScanControl::new()
        .with_cancel(&job.cancel)
        .with_progress(&job.blocks_done)
        .with_metrics(&shared.metrics.pipeline);
    if let Some(deadline) = deadline {
        ctrl = ctrl.with_deadline(deadline);
    }
    let mining = MiningConfig {
        threads: spec.threads,
        ..MiningConfig::default()
    };
    // A range job's progress denominator: the blocks it owns, clamped to
    // the image.
    let range_blocks =
        |range: &std::ops::Range<u64>| range.end.min(total_blocks) - range.start.min(total_blocks);
    match spec.kind {
        JobKind::Attack => {
            let search = if spec.deep {
                SearchConfig::deep()
            } else {
                SearchConfig::default()
            };
            let config = AttackConfig {
                mining,
                search: SearchConfig {
                    threads: spec.threads,
                    reconstruct: reconstruct_config(spec, reader.meta())?,
                    ..search
                },
                mining_prefix_bytes: spec
                    .max_bytes
                    .map_or(AttackConfig::default().mining_prefix_bytes, |m| m as usize),
            };
            job.blocks_total
                .store(attack_total_blocks(total_bytes, &config), Ordering::Relaxed);
            let report = attack_file(&mut reader, &config, spec.window_blocks, &ctrl)?;
            Ok(wire::attack_result_line(&report))
        }
        JobKind::Mine => {
            // A shard job mines its range and exports mergeable
            // observations; a whole-image job mines the `max_bytes` prefix
            // and finishes.
            let range = spec.shard.clone().unwrap_or_else(|| {
                let prefix = mining_limit(spec.max_bytes.unwrap_or(total_bytes), total_bytes);
                0..prefix / BLOCK_BYTES as u64
            });
            job.blocks_total
                .store(range_blocks(&range), Ordering::Relaxed);
            let miner = mine_range(&mut reader, &mining, spec.window_blocks, &range, &ctrl)?;
            Ok(match &spec.shard {
                None => wire::keys_to_json(JobKind::Mine, &miner.finish()).render_compact(),
                Some(shard) => {
                    wire::shard_reply_line(shard, &ShardPartial::Mine(miner.into_observations()))
                }
            })
        }
        JobKind::Frequency => {
            let range = spec.shard.clone().unwrap_or(0..total_blocks);
            job.blocks_total
                .store(range_blocks(&range), Ordering::Relaxed);
            let counter = frequency_range(&mut reader, spec.window_blocks, &range, &ctrl)?;
            Ok(match &spec.shard {
                None => wire::keys_to_json(JobKind::Frequency, &counter.finish(spec.top_keys))
                    .render_compact(),
                Some(shard) => {
                    wire::shard_reply_line(shard, &ShardPartial::Frequency(counter.into_counts()))
                }
            })
        }
        JobKind::SearchShard => {
            // parse_spec guarantees the range is present.
            let shard = spec.shard.clone().unwrap_or(0..total_blocks);
            job.blocks_total
                .store(range_blocks(&shard), Ordering::Relaxed);
            let search = if spec.deep {
                SearchConfig::deep()
            } else {
                SearchConfig::default()
            };
            let search = SearchConfig {
                threads: spec.threads,
                reconstruct: reconstruct_config(spec, reader.meta())?,
                ..search
            };
            let partial = search_range(
                &mut reader,
                &spec.candidates,
                &search,
                spec.window_blocks,
                &shard,
                &ctrl,
            )?;
            Ok(wire::shard_reply_line(
                &shard,
                &ShardPartial::Search(partial),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DEFAULT_WINDOW_BLOCKS;

    #[test]
    fn hex_rendering() {
        use crate::wire::hex_lower;
        assert_eq!(hex_lower(&[]), "");
        assert_eq!(hex_lower(&[0x00, 0xAB, 0xFF, 0x1e]), "00abff1e");
    }

    #[test]
    fn spec_parsing_defaults_and_errors() {
        let req = json::parse(r#"{"verb":"submit","kind":"attack","dump":"/tmp/x.cbdf"}"#)
            .expect("valid json");
        let spec = parse_spec(&req)
            .map_err(|e| e.render_compact())
            .expect("spec");
        assert_eq!(spec.kind, JobKind::Attack);
        assert_eq!(spec.window_blocks, DEFAULT_WINDOW_BLOCKS);
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.top_keys, 48);
        assert!(!spec.deep);
        assert_eq!(spec.timeout_secs, None);

        let req = json::parse(
            r#"{"kind":"search","dump":"d","window_blocks":8,"deep":true,"timeout_secs":3}"#,
        )
        .expect("valid json");
        let spec = parse_spec(&req)
            .map_err(|e| e.render_compact())
            .expect("spec");
        assert_eq!(spec.kind, JobKind::Attack);
        assert_eq!(spec.window_blocks, 8);
        assert!(spec.deep);
        assert_eq!(spec.timeout_secs, Some(3));

        // Clients from before the single driver may still send the old
        // decode/scan overlap switch; it is accepted and ignored.
        let req = json::parse(r#"{"kind":"mine","dump":"d","max_bytes":640,"pipelined":false}"#)
            .expect("valid json");
        let spec = parse_spec(&req)
            .map_err(|e| e.render_compact())
            .expect("spec");
        assert_eq!(spec.kind, JobKind::Mine);
        assert_eq!(spec.max_bytes, Some(640));

        for bad in [
            r#"{"kind":"laundry","dump":"d"}"#,
            r#"{"kind":"mine"}"#,
            r#"{"kind":"mine","dump":"d","window_blocks":0}"#,
            r#"{"kind":"mine","dump":"d","max_bytes":-4}"#,
            // A present field of the wrong type is refused, not dropped.
            r#"{"kind":"mine","dump":"d","deep":"true"}"#,
        ] {
            let req = json::parse(bad).expect("valid json");
            assert!(parse_spec(&req).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn spec_parsing_reconstruction_knobs() {
        let req = json::parse(
            r#"{"kind":"attack","dump":"d","ground":"g.cbdf","decay_fraction":0.19,"work_budget":512}"#,
        )
        .expect("valid json");
        let spec = parse_spec(&req)
            .map_err(|e| e.render_compact())
            .expect("spec");
        assert_eq!(spec.ground.as_deref(), Some("g.cbdf"));
        assert_eq!(spec.decay_fraction, Some(0.19));
        assert_eq!(spec.work_budget, Some(512));

        // Without a ground dump nothing can be reconstructed, so the
        // dependent knobs are rejected rather than silently ignored.
        for bad in [
            r#"{"kind":"attack","dump":"d","decay_fraction":0.19}"#,
            r#"{"kind":"attack","dump":"d","work_budget":512}"#,
            r#"{"kind":"attack","dump":"d","ground":"g","decay_fraction":1.5}"#,
            r#"{"kind":"attack","dump":"d","ground":"g","decay_fraction":-0.1}"#,
            r#"{"kind":"mine","dump":"d","ground":"g"}"#,
            r#"{"kind":"frequency","dump":"d","ground":"g"}"#,
            r#"{"kind":"attack","dump":"d","ground":5}"#,
        ] {
            let req = json::parse(bad).expect("valid json");
            assert!(parse_spec(&req).is_err(), "accepted {bad}");
        }

        // `null` is absent for every optional field, with or without a
        // ground dump.
        for absent in [
            r#"{"kind":"attack","dump":"d","work_budget":null}"#,
            r#"{"kind":"attack","dump":"d","decay_fraction":null,"ground":null,"deep":null}"#,
        ] {
            let req = json::parse(absent).expect("valid json");
            let spec = parse_spec(&req)
                .map_err(|e| e.render_compact())
                .expect(absent);
            assert_eq!(
                (spec.ground, spec.work_budget, spec.deep),
                (None, None, false)
            );
        }

        // A ground path alone is enough: the channel then comes from the
        // dump's own capture metadata.
        let req = json::parse(r#"{"kind":"attack","dump":"d","ground":"g"}"#).expect("valid json");
        let spec = parse_spec(&req)
            .map_err(|e| e.render_compact())
            .expect("spec");
        assert_eq!(spec.ground.as_deref(), Some("g"));
        assert_eq!(spec.decay_fraction, None);
        assert_eq!(spec.work_budget, None);
    }

    #[test]
    fn job_tables_forget_only_the_oldest_finished_jobs() {
        let mut table = JobTable::default();
        let total = RETAINED_JOBS as u64 + 3;
        for id in 1..=total {
            table.insert(id, id * 10);
        }
        // Finish every job but the first, in order: the first stays
        // because it never finished.
        for id in 2..=RETAINED_JOBS as u64 + 1 {
            assert_eq!(table.retire(id), None, "job {id}");
        }
        assert_eq!(table.retire(total - 1), Some(20));
        assert_eq!(table.retire(total), Some(30));
        assert!(table.get(2).is_none() && table.get(3).is_none());
        assert_eq!(table.get(1), Some(&10));
        assert_eq!(table.get(4), Some(&40));
        assert_eq!(table.get(total), Some(&(total * 10)));
    }

    #[test]
    fn state_names() {
        assert_eq!(JobState::Queued.name(), "queued");
        assert_eq!(JobState::Failed("x".into()).name(), "failed");
        assert_eq!(JobState::TimedOut.name(), "timed_out");
    }
}
