//! The worker pool: shard scheduling, failover, and the `dumpd`
//! conversation.
//!
//! One runner thread per configured worker address pulls shard tasks
//! from a shared ready queue and drives the blocking line-protocol
//! exchange with its `dumpd`: submit the shard, block on `wait` until the
//! worker's job is terminal (the reply carries the result), and hand the
//! partial to the job's [`Assembly`]. The runner decodes that reply line
//! in one pass, envelope and partial together, straight into a typed
//! [`ShardPartial`] ([`wire::read_result_reply`], with the reply's kind
//! and range echo checked), before it takes the scheduler lock: the lock
//! covers only the absorb and, for a phase's last shard, its fold. Nothing
//! polls: each `wait` asks for
//! half of [`BackendOptions::io_timeout`], so a long but healthy shard
//! answers `running` before the socket read could time out. The
//! connection persists across tasks and reconnects on error.
//!
//! The job table keeps every running job and the newest
//! [`RETAINED_JOBS`](coldboot_dumpio::service::RETAINED_JOBS) (64)
//! finished ones; an older id answers `unknown_job`.
//! A finished job's result is rendered once, by the runner whose delivery
//! completed it, and every `result` reply splices that string in.
//!
//! Failure policy:
//!
//! * A **retryable** failure (connect refused, I/O error mid-wait, a
//!   worker reply with `retryable: true` such as `queue_full`, a shard
//!   that the worker cancelled/timed out, or a worker that no longer
//!   holds the shard's job — `unknown_job` after it forgot the finished
//!   job or restarted) re-queues the shard with exponential backoff.
//!   Each shard carries an attempt counter; when it exceeds
//!   [`BackendOptions::shard_attempts`] the whole job fails.
//! * A **fatal** failure (the worker ran the shard and said `failed`, or
//!   replied with a non-retryable error code such as `bad_request`) fails
//!   the job immediately — retrying cannot change a deterministic answer.
//! * A worker that fails [`BackendOptions::evict_after`] times in a row
//!   is **evicted**: its runner stops taking tasks and instead pings the
//!   address every [`BackendOptions::probe_interval`] until it answers,
//!   then rejoins. Its queued work drains through the surviving runners,
//!   which is what makes a mid-job worker kill invisible in the merged
//!   output.
//!
//! This module is deliberately *not* part of the non-blocking front end:
//! runner threads block on their own worker sockets (with read timeouts),
//! which keeps the per-worker state machine trivial. The single-threaded
//! event loop in [`crate::server`] never touches a worker socket.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use coldboot_dumpio::json::{self, Json};
use coldboot_dumpio::service::{JobTable, MAX_WAIT_MS};
use coldboot_dumpio::wire::{
    self, result_reply, JobKind, JobSpec, JobState, ResultReply, ShardPartial,
};
use coldboot_dumpio::DumpReader;
use coldboot_metrics::duration_us;

use crate::merge::{Assembly, ShardRequest, Step};
use crate::stats::ClusterMetrics;

/// Scheduling and failover knobs.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Attempts per shard before the job fails (first try included).
    pub shard_attempts: u32,
    /// Base re-queue delay; doubles per failed attempt (capped at 32×).
    pub retry_backoff: Duration,
    /// Consecutive failures before a worker is evicted.
    pub evict_after: u32,
    /// Ping cadence for evicted workers.
    pub probe_interval: Duration,
    /// Read timeout on worker sockets (bounds every blocking read). Each
    /// `wait` asks the worker for half of it.
    pub io_timeout: Duration,
}

impl Default for BackendOptions {
    fn default() -> Self {
        Self {
            shard_attempts: 5,
            retry_backoff: Duration::from_millis(50),
            evict_after: 3,
            probe_interval: Duration::from_millis(200),
            io_timeout: Duration::from_secs(2),
        }
    }
}

struct Entry {
    state: JobState,
    assembly: Assembly,
}

struct Task {
    job: u64,
    shard: Range<u64>,
    /// The shard job's kind, which the worker's reply must name.
    kind: JobKind,
    attempts: u32,
    ready_at: Instant,
    /// The rendered `submit` line, newline included — built once so
    /// retries resend identical bytes.
    line: String,
}

#[derive(Default)]
struct SchedState {
    pending: VecDeque<Task>,
    jobs: JobTable<Entry>,
    next_id: u64,
    unfinished: u64,
}

struct Shared {
    state: Mutex<SchedState>,
    ready: Condvar,
    stop: AtomicBool,
    opts: BackendOptions,
    metrics: ClusterMetrics,
}

/// Locks a mutex, continuing through poisoning: scheduler state stays
/// usable even if some thread panicked while holding it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The coordinator's scheduling core: job table, shard queue, and one
/// runner thread per worker.
pub struct Backend {
    shared: Arc<Shared>,
    runners: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl Backend {
    /// Starts one runner per worker address. The backend assumes every
    /// worker can open the same dump paths (shared storage).
    #[must_use]
    pub fn start(workers: Vec<String>, opts: BackendOptions) -> Self {
        let metrics = ClusterMetrics::new();
        metrics.workers_healthy.set(workers.len() as i64);
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState::default()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            opts,
            metrics,
        });
        let count = workers.len();
        let runners = workers
            .into_iter()
            .map(|addr| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || run_worker_loop(&shared, &addr))
            })
            .collect();
        Self {
            shared,
            runners: Mutex::new(runners),
            workers: count,
        }
    }

    /// Plans and enqueues a job split into `shards` shards per phase. The
    /// dump is opened locally once to read its size (the coordinator
    /// shares storage with the workers).
    pub fn submit(&self, spec: JobSpec, shards: usize) -> Result<u64, String> {
        let total_bytes = read_total_bytes(&spec.dump)?;
        let mut assembly = Assembly::new(spec, shards, total_bytes);
        let step = assembly.begin();
        if matches!(step, Step::Wait) {
            return Err("planner returned no work".to_string());
        }
        let metrics = &self.shared.metrics;
        let mut state = lock(&self.shared.state);
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            Entry {
                state: JobState::Running,
                assembly,
            },
        );
        state.unfinished += 1;
        metrics.jobs_submitted.inc();
        let forgotten = match step {
            Step::Dispatch(requests) => {
                enqueue(&mut state, metrics, id, requests);
                self.shared.ready.notify_all();
                None
            }
            // An empty image: the plan is already the result.
            Step::Done(result) => {
                finish_job(&mut state, metrics, id, JobState::Done(result.into()))
            }
            Step::Wait => None,
        };
        drop(state);
        drop(forgotten);
        Ok(id)
    }

    /// The `status` reply body for a job, `None` for unknown ids.
    #[must_use]
    pub fn status_json(&self, id: u64) -> Option<Json> {
        let state = lock(&self.shared.state);
        let entry = state.jobs.get(id)?;
        let (done, total) = entry.assembly.progress();
        let mut pairs = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("id".to_string(), Json::Int(id as i64)),
            (
                "state".to_string(),
                Json::Str(entry.state.name().to_string()),
            ),
            (
                "phase".to_string(),
                Json::Str(entry.assembly.phase_name().to_string()),
            ),
            ("shards_done".to_string(), Json::Int(done as i64)),
            ("shards_total".to_string(), Json::Int(total as i64)),
        ];
        if let JobState::Failed(why) = &entry.state {
            pairs.push(("error".to_string(), Json::Str(why.clone())));
        }
        Some(Json::Obj(pairs))
    }

    /// The `result` reply body for a job, `None` for unknown ids. A done
    /// job's rendered result is spliced in, never re-rendered.
    #[must_use]
    pub fn result_json(&self, id: u64) -> Option<Json> {
        let state = lock(&self.shared.state);
        Some(result_reply(id, &state.jobs.get(id)?.state))
    }

    /// Whether a job is no longer running: it reached `done` or
    /// `failed`, or the table has forgotten it (only finished jobs are
    /// forgotten), or the id was never issued.
    #[must_use]
    pub fn is_terminal(&self, id: u64) -> bool {
        let state = lock(&self.shared.state);
        state
            .jobs
            .get(id)
            .is_none_or(|e| e.state != JobState::Running)
    }

    /// Jobs submitted but not yet terminal — the drain condition.
    #[must_use]
    pub fn unfinished(&self) -> u64 {
        lock(&self.shared.state).unfinished
    }

    /// The coordinator metrics bundle (shared with runner threads).
    #[must_use]
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.shared.metrics
    }

    /// Number of configured workers.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Stops the runners and joins them. In-flight shards are abandoned;
    /// call only after draining (or when abandoning the jobs is intended).
    pub fn shutdown(&self) {
        // Set under the scheduler lock, so a runner cannot check the flag
        // and then miss the notification while it waits without a timeout.
        {
            let _state = lock(&self.shared.state);
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.ready.notify_all();
        let handles = std::mem::take(&mut *lock(&self.runners));
        for handle in handles {
            // A runner that panicked already poisoned nothing we rely on.
            let _ = handle.join();
        }
    }
}

fn read_total_bytes(path: &str) -> Result<u64, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let reader = DumpReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    Ok(reader.meta().total_bytes)
}

fn enqueue(
    state: &mut SchedState,
    metrics: &ClusterMetrics,
    job: u64,
    requests: Vec<ShardRequest>,
) {
    let now = Instant::now();
    for request in requests {
        let mut line = request.body.render_compact();
        line.push('\n');
        state.pending.push_back(Task {
            job,
            shard: request.shard,
            kind: request.kind,
            attempts: 0,
            ready_at: now,
            line,
        });
        metrics.shard_queue_depth.add(1);
    }
}

/// A running job's one terminal transition: `done` or `failed`. A job
/// that already ended is left as it is. Returns the entry the job table
/// forgets to make room, for the caller to drop after releasing the
/// scheduler lock.
#[must_use]
fn finish_job(
    state: &mut SchedState,
    metrics: &ClusterMetrics,
    job: u64,
    terminal: JobState,
) -> Option<Entry> {
    let entry = state.jobs.get_mut(job)?;
    if entry.state != JobState::Running {
        return None;
    }
    match terminal {
        JobState::Done(_) => metrics.jobs_done.inc(),
        _ => metrics.jobs_failed.inc(),
    }
    entry.state = terminal;
    state.unfinished -= 1;
    state.jobs.retire(job)
}

/// Fails a running job; see [`finish_job`].
fn fail_job(shared: &Shared, job: u64, why: String) {
    let forgotten = finish_job(
        &mut lock(&shared.state),
        &shared.metrics,
        job,
        JobState::Failed(why),
    );
    drop(forgotten);
}

/// A persistent line-protocol connection to one worker.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The last reply line, reused: a shard reply can be megabytes.
    reply: String,
}

impl Wire {
    fn connect(addr: &str, opts: &BackendOptions) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(opts.io_timeout))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            reply: String::new(),
        })
    }

    /// One request/reply exchange, returning the reply line. Any error
    /// invalidates the connection.
    fn roundtrip(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("worker closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// A control exchange (`submit`, `ping`), its small reply parsed into
    /// a tree.
    fn request(&mut self, line: &str) -> Result<Json, String> {
        json::parse(self.roundtrip(line)?).ok_or_else(|| "unparseable reply".to_string())
    }
}

/// How one shard attempt ended.
enum Outcome {
    /// The worker produced this partial.
    Delivered(ShardPartial),
    /// Transient: re-queue the shard (connection trouble, worker overload,
    /// worker-side cancellation/timeout, or coordinator shutdown).
    Retry(String),
    /// Deterministic worker-side failure: retrying cannot help.
    Fatal(String),
}

/// The per-worker runner: alternates between draining the shard queue and
/// (when evicted) probing its worker for a rejoin.
fn run_worker_loop(shared: &Arc<Shared>, addr: &str) {
    let opts = &shared.opts;
    let metrics = &shared.metrics;
    let mut wire: Option<Wire> = None;
    let mut consecutive = 0u32;
    let mut evicted = false;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        if evicted {
            thread::sleep(opts.probe_interval);
            if ping(addr, opts) {
                evicted = false;
                consecutive = 0;
                metrics.worker_rejoins.inc();
                metrics.workers_healthy.add(1);
            }
            continue;
        }
        let Some(task) = next_task(shared) else {
            return; // shutdown
        };
        metrics.shards_dispatched.inc();
        metrics
            .shard_queue_wait_us
            .observe(duration_us(task.ready_at.elapsed()));
        let started = Instant::now();
        let outcome = run_shard(&mut wire, addr, &task, shared);
        match outcome {
            Outcome::Delivered(partial) => {
                consecutive = 0;
                metrics.shard_run_us.observe(duration_us(started.elapsed()));
                deliver(shared, &task, partial);
            }
            Outcome::Retry(why) => {
                wire = None; // reconnect on the next attempt
                if shared.stop.load(Ordering::Acquire) {
                    // Abandoning mid-shutdown: put the task back untouched
                    // so a later drain inspection sees it pending.
                    let mut state = lock(&shared.state);
                    state.pending.push_back(task);
                    metrics.shard_queue_depth.add(1);
                    return;
                }
                consecutive += 1;
                if consecutive >= opts.evict_after {
                    evicted = true;
                    metrics.worker_evictions.inc();
                    metrics.workers_healthy.sub(1);
                }
                requeue(shared, task, why);
            }
            Outcome::Fatal(why) => {
                consecutive = 0;
                fail_job(shared, task.job, why);
            }
        }
    }
}

/// What a runner does with the pending queue at `now`.
#[derive(Debug, PartialEq, Eq)]
enum Pick {
    /// Take the task at this index: the first whose backoff has ended.
    Ready(usize),
    /// Nothing is ready yet; the earliest task is ready after this long.
    Until(Duration),
    /// Nothing is pending: wait for a notification.
    Idle,
}

/// Decides [`Pick`] from the pending tasks' `ready_at`, in queue order.
fn pick(ready_at: impl Iterator<Item = Instant>, now: Instant) -> Pick {
    let mut earliest: Option<Instant> = None;
    for (idx, at) in ready_at.enumerate() {
        if at <= now {
            return Pick::Ready(idx);
        }
        earliest = Some(earliest.map_or(at, |e| e.min(at)));
    }
    earliest.map_or(Pick::Idle, |at| Pick::Until(at - now))
}

/// Pops the first ready task whose job is still running; blocks until
/// one appears (a backoff ends or a notification arrives) or shutdown.
fn next_task(shared: &Arc<Shared>) -> Option<Task> {
    let mut state = lock(&shared.state);
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return None;
        }
        let ready_at = state.pending.iter().map(|t| t.ready_at);
        state = match pick(ready_at, Instant::now()) {
            Pick::Ready(idx) => {
                if let Some(task) = state.pending.remove(idx) {
                    shared.metrics.shard_queue_depth.sub(1);
                    let live = state
                        .jobs
                        .get(task.job)
                        .is_some_and(|e| e.state == JobState::Running);
                    if live {
                        return Some(task);
                    }
                }
                continue; // job already terminal: drop its stale shards
            }
            Pick::Until(delay) => {
                shared
                    .ready
                    .wait_timeout(state, delay)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0
            }
            Pick::Idle => shared
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        };
    }
}

/// Drives one shard attempt against the worker: submit, then `wait`
/// until the worker's job is terminal.
fn run_shard(wire: &mut Option<Wire>, addr: &str, task: &Task, shared: &Arc<Shared>) -> Outcome {
    let opts = &shared.opts;
    if wire.is_none() {
        match Wire::connect(addr, opts) {
            Ok(conn) => *wire = Some(conn),
            Err(why) => return Outcome::Retry(why),
        }
    }
    let Some(conn) = wire.as_mut() else {
        return Outcome::Retry("no worker connection".to_string());
    };
    let reply = match conn.request(&task.line) {
        Ok(reply) => reply,
        Err(why) => return Outcome::Retry(why),
    };
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return reject_outcome(
            reply.get("code").and_then(Json::as_str),
            reply.get("error").and_then(Json::as_str),
            reply.get("retryable").and_then(Json::as_bool),
        );
    }
    let Some(id) = reply.get("id").and_then(Json::as_i64) else {
        return Outcome::Retry("submit reply carried no job id".to_string());
    };
    let timeout_ms = u64::try_from((opts.io_timeout / 2).as_millis())
        .unwrap_or(u64::MAX)
        .min(MAX_WAIT_MS);
    let wait_line = format!("{{\"verb\":\"wait\",\"id\":{id},\"timeout_ms\":{timeout_ms}}}\n");
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return Outcome::Retry("coordinator shutting down".to_string());
        }
        let reply = match conn.roundtrip(&wait_line) {
            Ok(line) => wire::read_result_reply(line, task.kind, &task.shard),
            Err(why) => return Outcome::Retry(why),
        };
        let Some(reply) = reply else {
            return Outcome::Retry("unparseable reply".to_string());
        };
        if let Some(outcome) = wait_outcome(reply, addr) {
            return outcome;
        }
    }
}

/// Classifies a worker's `wait` reply for the runner's own shard: `None`
/// while the worker's job is still queued or running.
fn wait_outcome(reply: ResultReply<'_>, addr: &str) -> Option<Outcome> {
    if reply.ok != Some(true) {
        // The worker no longer holds the shard's job: it forgot the
        // finished job or restarted. That is no verdict on the data.
        if reply.code.as_deref() == Some("unknown_job") {
            return Some(Outcome::Retry(format!(
                "worker {addr} no longer holds the shard's job"
            )));
        }
        return Some(reject_outcome(
            reply.code.as_deref(),
            reply.error.as_deref(),
            reply.retryable,
        ));
    }
    let outcome = match reply.state.as_deref() {
        Some("queued" | "running") => return None,
        Some("done") => match reply.result {
            Some(Ok(partial)) => Outcome::Delivered(partial),
            // A reply of another kind or range, or a malformed partial:
            // the worker broke the merge protocol.
            Some(Err(why)) => Outcome::Fatal(format!("merge: {why}")),
            None => Outcome::Retry("done job returned no result body".to_string()),
        },
        Some("failed") => {
            let why = reply.error.as_deref().unwrap_or("worker reported failure");
            Outcome::Fatal(format!("worker {addr}: {why}"))
        }
        // A worker-side timeout or cancellation is not a verdict on the
        // data — another attempt may succeed.
        Some(other) => Outcome::Retry(format!("worker job ended {other}")),
        None => Outcome::Retry("malformed wait reply".to_string()),
    };
    Some(outcome)
}

/// Classifies a worker's error reply via the uniform error schema: its
/// `code`, `error` and `retryable` fields.
fn reject_outcome(code: Option<&str>, message: Option<&str>, retryable: Option<bool>) -> Outcome {
    let code = code.unwrap_or("error");
    let message = message.unwrap_or("worker rejected the shard");
    let why = format!("{code}: {message}");
    if retryable == Some(true) {
        Outcome::Retry(why)
    } else {
        Outcome::Fatal(why)
    }
}

/// Hands a delivered partial to the job's assembly and acts on the step.
fn deliver(shared: &Arc<Shared>, task: &Task, partial: ShardPartial) {
    let metrics = &shared.metrics;
    let mut state = lock(&shared.state);
    let merge_started = Instant::now();
    let step = match state.jobs.get_mut(task.job) {
        Some(entry) if entry.state == JobState::Running => {
            entry.assembly.accept(&task.shard, partial)
        }
        _ => return, // job failed while this shard was in flight
    };
    metrics
        .merge_us
        .observe(duration_us(merge_started.elapsed()));
    match step {
        Ok(Step::Wait) => {}
        Ok(Step::Dispatch(requests)) => {
            enqueue(&mut state, metrics, task.job, requests);
            drop(state);
            shared.ready.notify_all();
        }
        Ok(Step::Done(result)) => {
            // Shared off the scheduler lock: every `result` reply splices
            // this string. Every shard of the job has been delivered, so
            // nothing else moves the job meanwhile.
            drop(state);
            let rendered = JobState::Done(result.into());
            let forgotten = finish_job(&mut lock(&shared.state), metrics, task.job, rendered);
            drop(forgotten);
        }
        Err(why) => {
            // lint:allow(secret-taint): a merge error names only shard ranges and phase kinds; the taint is the finished key list that `accept`'s `Ok` carries in the same `Result`
            let failed = JobState::Failed(format!("merge: {why}"));
            let forgotten = finish_job(&mut state, metrics, task.job, failed);
            drop(state);
            drop(forgotten);
        }
    }
}

/// Re-queues a failed shard with exponential backoff, or fails the job
/// when its attempt budget is spent.
fn requeue(shared: &Arc<Shared>, mut task: Task, why: String) {
    let opts = &shared.opts;
    let metrics = &shared.metrics;
    task.attempts += 1;
    if task.attempts >= opts.shard_attempts {
        fail_job(
            shared,
            task.job,
            format!(
                "shard {}..{} failed after {} attempts: {why}",
                task.shard.start, task.shard.end, task.attempts
            ),
        );
        return;
    }
    let factor = 1u32 << (task.attempts - 1).min(5);
    task.ready_at = Instant::now() + opts.retry_backoff.saturating_mul(factor);
    let mut state = lock(&shared.state);
    state.pending.push_back(task);
    metrics.shards_requeued.inc();
    metrics.shard_queue_depth.add(1);
    drop(state);
    shared.ready.notify_all();
}

/// One ping exchange on a fresh connection — the rejoin probe.
fn ping(addr: &str, opts: &BackendOptions) -> bool {
    match Wire::connect(addr, opts) {
        Ok(mut conn) => conn
            .request("{\"verb\":\"ping\"}\n")
            .map(|reply| reply.get("ok").and_then(Json::as_bool) == Some(true))
            .unwrap_or(false),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `wait` reply line read for a `mine` shard over blocks 0..4.
    fn reply(text: &str) -> ResultReply<'_> {
        wire::read_result_reply(text, JobKind::Mine, &(0..4)).expect("valid json")
    }

    #[test]
    fn pick_takes_the_first_ready_task_or_waits_for_the_earliest() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        assert_eq!(pick(std::iter::empty(), base), Pick::Idle);
        // Queue order, not readiness order, picks among ready tasks.
        assert_eq!(
            pick([at(5), at(0), at(0)].into_iter(), at(0)),
            Pick::Ready(1)
        );
        assert_eq!(pick([at(5), at(0)].into_iter(), at(7)), Pick::Ready(0));
        // Nothing ready: sleep exactly until the earliest backoff ends,
        // wherever it sits in the queue.
        assert_eq!(
            pick([at(40), at(15), at(90)].into_iter(), at(10)),
            Pick::Until(Duration::from_millis(5))
        );
        assert_eq!(pick([at(15)].into_iter(), at(15)), Pick::Ready(0));
    }

    #[test]
    fn a_forgotten_shard_job_is_retried_not_failed() {
        let outcome = wait_outcome(
            reply(
                r#"{"ok":false,"status":"error","code":"unknown_job","retryable":false,"error":"unknown job id"}"#,
            ),
            "w",
        );
        assert!(matches!(outcome, Some(Outcome::Retry(_))));
        // Other fatal codes stay fatal.
        let outcome = wait_outcome(
            reply(
                r#"{"ok":false,"status":"error","code":"bad_request","retryable":false,"error":"x"}"#,
            ),
            "w",
        );
        assert!(matches!(outcome, Some(Outcome::Fatal(_))));
    }

    #[test]
    fn wait_replies_classify_by_state() {
        let pending = r#"{"ok":true,"id":3,"state":"running","result":null}"#;
        assert!(wait_outcome(reply(pending), "w").is_none());
        let done = r#"{"ok":true,"id":3,"state":"done","result":{"kind":"mine_shard","shard_start":0,"shard_end":4,"observations":[]}}"#;
        match wait_outcome(reply(done), "w") {
            Some(Outcome::Delivered(partial)) => {
                assert_eq!(partial, ShardPartial::Mine(Vec::new()));
            }
            _ => panic!("done reply not delivered"),
        }
        // A done reply whose partial breaks the protocol fails the job.
        let malformed = r#"{"ok":true,"id":3,"state":"done","result":{"kind":"mine_shard"}}"#;
        assert!(matches!(
            wait_outcome(reply(malformed), "w"),
            Some(Outcome::Fatal(why)) if why.starts_with("merge: ")
        ));
        let empty = r#"{"ok":true,"id":3,"state":"done","result":null}"#;
        assert!(matches!(
            wait_outcome(reply(empty), "w"),
            Some(Outcome::Retry(_))
        ));
        let failed = r#"{"ok":true,"id":3,"state":"failed","result":null,"error":"bad dump"}"#;
        assert!(matches!(
            wait_outcome(reply(failed), "w"),
            Some(Outcome::Fatal(_))
        ));
        for retried in ["cancelled", "timed_out"] {
            let text = format!(r#"{{"ok":true,"id":3,"state":"{retried}","result":null}}"#);
            assert!(matches!(
                wait_outcome(reply(&text), "w"),
                Some(Outcome::Retry(_))
            ));
        }
    }
}
