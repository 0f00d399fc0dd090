//! `coldboot-cluster`: a sharded scan coordinator over `coldboot-dumpd`
//! workers.
//!
//! One analysis box scans an 8 GiB dump in hours; a rack of them should
//! scan it in minutes — *without* changing the answer. This crate adds
//! the distribution layer on top of the existing single-node pieces:
//!
//! * [`merge`] — deterministic shard planning and result assembly. A job
//!   is split into contiguous block ranges
//!   ([`coldboot_dumpio::pipeline::plan_shards`]); each worker returns a
//!   *mergeable partial*, and the coordinator finishes the fold exactly
//!   once. Every document the coordinator reads or writes — client and
//!   shard submits, shard replies, finished results, error and `result`
//!   replies — goes through [`coldboot_dumpio::wire`], the codec `dumpd`
//!   itself uses.
//!   The merged output is byte-identical to a single-node run at any
//!   shard count — mining and frequency merges are commutative, and the
//!   search merge replays the order-sensitive recovery dedup over the
//!   partials concatenated in shard order.
//! * [`backend`] — the worker pool. One runner thread per configured
//!   `dumpd` address pulls shard tasks from a shared queue, drives the
//!   line-protocol conversation (submit, then block on `wait` until the
//!   reply carries the result), and reports back.
//!   Failures re-queue the shard with capped retries and exponential
//!   backoff; workers that fail consecutively are evicted and probed with
//!   pings until they rejoin. Retryable-vs-fatal is decided by the
//!   worker's uniform error schema (`code` + `retryable`).
//! * [`server`] — the client-facing front end: a single-threaded,
//!   non-blocking poll-style event loop over std TCP (no thread per
//!   connection, no `libc::poll`) with per-connection read/write buffers,
//!   per-client rate limits, and job quotas. Verbs mirror `dumpd`
//!   (`ping`/`submit`/`status`/`result`/`stats`/`shutdown`), so `dumpctl`
//!   drives a cluster unchanged.
//! * [`stats`] — the coordinator's `coldboot-metrics` bundle: shard
//!   dispatch/requeue/eviction counters and queue-wait / shard-run /
//!   merge latency histograms, served by the `stats` verb.
//!
//! The binary is `clusterd`; see the repository README for a local
//! N-worker quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod merge;
pub mod server;
pub mod stats;

pub use backend::{Backend, BackendOptions};
pub use merge::{Assembly, ShardRequest, Step};
pub use server::{ClusterConfig, ClusterServer};
pub use stats::ClusterMetrics;
